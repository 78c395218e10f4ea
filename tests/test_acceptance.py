"""Acceptance gate: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (run with -s to watch them stream)."""

from types import SimpleNamespace

import pytest

from maxop import checks
from maxop.checks import CRITERIA


@pytest.mark.parametrize("name", list(CRITERIA))
def test_criterion(name, request, monkeypatch):
    if name == "stability":
        # the first of criterion 10's two runs is the session's headline run,
        # which the outputs gate reads too; its re-run stays a fresh one
        shared = [request.getfixturevalue("headline_scan")]
        fresh = checks._stability_scan
        monkeypatch.setattr(checks, "_stability_scan", lambda: shared.pop() if shared else fresh())
    result = CRITERIA[name]()
    status = "PASS" if result.passed else "FAIL"
    print(f"\n{status} {result.name} ({result.seconds:.1f}s): {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def _clock(monkeypatch, *readings):
    ticks = iter(readings)
    monkeypatch.setattr(checks, "time", SimpleNamespace(time=lambda: next(ticks)))


def test_a_criterion_over_its_budget_fails_on_its_runtime(monkeypatch):
    _clock(monkeypatch, 100.0, 112.5)
    result = checks._criterion("budgeted", budget=10.0)(lambda: ([("ok", True)], "note"))()
    assert (result.name, result.passed, result.seconds) == ("budgeted", False, 12.5)
    assert result.detail == "1/2 assertions; note; FAILED: runtime 12.5s < 10s"


def test_a_criterion_without_a_budget_has_no_runtime_assertion(monkeypatch):
    _clock(monkeypatch, 0.0, 1e6)
    result = checks._criterion("unbudgeted")(lambda: ([("ok", True)], ""))()
    assert result.passed and result.detail == "1/1 assertions"
