import csv
import json
import math
import time

import pytest

from maxop import scan
from maxop.cli import main
from maxop.scan import (
    CSV_HEADER,
    Operator,
    ScanConfig,
    ScanReport,
    ScanRow,
    csv_text,
    emit_csv,
    emit_plotdata,
    report_violations,
    run_scan,
)


def _small_cfg(**kw):
    base = dict(
        operator="HL",
        d_range=(1, 2),
        p_list=(2.0,),
        q_list=(2.0,),
        family="gaussian",
        n_members=2,
        grid=(2.0, 8),
        radii_K=6,
        seed=3,
    )
    base.update(kw)
    return ScanConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(operator="NOPE")
    with pytest.raises(ValueError):
        ScanConfig(family="NOPE")
    # JSON configs can carry non-integral counts, which int() would truncate
    for bad in (dict(d_range=(1.5,)), dict(n_members=2.5), dict(grid=(2.0, 8.5)), dict(radii_K=4.5)):
        with pytest.raises(ValueError):
            ScanConfig(**bad)


def test_config_json_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"operator": "SPH", "d_range": [2], "seed": 9}))
    cfg = ScanConfig.from_json(str(path))
    assert cfg.operator == "SPH" and cfg.d_range == (2,) and cfg.seed == 9
    path.write_text(json.dumps({"operator": "SPH", "bogus": 1}))
    with pytest.raises(ValueError):
        ScanConfig.from_json(str(path))


def test_empty_report_is_header_only():
    assert csv_text(ScanReport(())) == CSV_HEADER + "\n"


def test_rows_roundtrip_and_ratio_invariant(tmp_path):
    rep = run_scan(_small_cfg())
    path = tmp_path / "out.csv"
    emit_csv(rep, str(path))
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(rep.rows)
    for raw, row in zip(rows, rep.rows):
        assert raw["operator"] == row.operator
        ratio = float(raw["ratio"])
        assert ratio == pytest.approx(float(raw["output_norm"]) / float(raw["input_norm"]), rel=1e-12)
        assert ratio >= 1.0 - 1e-12  # HL rows
    assert report_violations(rep) == []


def test_rows_sorted_and_deterministic():
    rep1 = run_scan(_small_cfg(d_range=(2, 1)))
    keys = [(r.operator, r.d, r.p, r.q) for r in rep1.rows]
    assert keys == sorted(keys)
    rep2 = run_scan(_small_cfg(d_range=(2, 1)))
    assert csv_text(rep1, mask_wall=True) == csv_text(rep2, mask_wall=True)


def test_error_rows_do_not_abort():
    rep = run_scan(_small_cfg(operator="MULT_L", d_range=(1, 2), radii_K=4, grid=(2.0, 16)))
    tagged = {r.d: r.extra.startswith("error=") for r in rep.rows}
    assert tagged[1] is True and tagged[2] is False
    assert math.isnan(rep.rows[0].ratio)
    assert report_violations(rep) == []


def test_only_declared_preconditions_become_error_rows(monkeypatch):
    # a malformed MAXOP_THREADS is a fault of the caller, not a precondition
    # of the operator: a direct call raises instead of writing an error row
    monkeypatch.setenv("MAXOP_THREADS", "abc")
    with pytest.raises(ValueError, match="MAXOP_THREADS"):
        run_scan(_small_cfg(d_range=(2,), grid=(2.0, 12)))
    monkeypatch.delenv("MAXOP_THREADS")
    rep = run_scan(_small_cfg(operator="DESCENT", d_range=(3,), p_list=(math.inf,), grid=(2.0, 8), radii_K=4))
    assert rep.rows[0].extra == "error=dimension_split needs finite exponents"


def test_wall_ms_carries_the_shared_operator_time(monkeypatch):
    def sleepy(cfg, spec, F, key):
        time.sleep(0.05)
        return list(F), ""

    monkeypatch.setitem(scan.OPERATORS, "HL", Operator(sleepy))
    rep = run_scan(_small_cfg(d_range=(1, 2), p_list=(2.0, 3.0), q_list=(1.5, 2.0)))
    assert len(rep.rows) == 8
    assert all(r.wall_ms >= 50.0 for r in rep.rows)


def test_plotdata_blocks(tmp_path):
    rep = run_scan(_small_cfg(p_list=(2.0, 3.0)))
    path = tmp_path / "plot.txt"
    emit_plotdata(rep, str(path))
    text = path.read_text()
    blocks = [b for b in text.split("\n\n") if b.strip()]
    assert len(blocks) == 2  # one per (p, q)
    for block in blocks:
        lines = block.strip().splitlines()
        assert lines[0].startswith("# operator=HL family=gaussian")
        for line in lines[1:]:
            d_str, ratio_str = line.split()
            int(d_str), float(ratio_str)


def test_single_member_ratio_ignores_q():
    # with one member the l^q reduction collapses to |f|, so the ratio is the
    # scalar L^p ratio whatever q is
    a = run_scan(_small_cfg(n_members=1, q_list=(2.0,), d_range=(2,)))
    b = run_scan(_small_cfg(n_members=1, q_list=(5.0,), d_range=(2,)))
    assert a.rows[0].ratio == pytest.approx(b.rows[0].ratio, rel=1e-12)


def test_sph_remark_bump_records_slope():
    cfg = _small_cfg(
        operator="SPH", family="remark_bump", d_range=(3,), grid=(6.0, 48), radii_K=24
    )
    rep = run_scan(cfg)
    row = rep.rows[0]
    assert row.extra.startswith("slope=")
    slope = float(row.extra.split("=", 1)[1])
    assert -3.0 < slope < -1.0  # ~ -(d-1) on a coarse grid


def test_grushin_rows_carry_note():
    rep = run_scan(_small_cfg(operator="MK", d_range=(1,), grid=(2.0, 8), radii_K=4))
    assert all("cc_note=" in r.extra for r in rep.rows)
    assert all("M_CC" in r.extra for r in rep.rows)


def test_descent_rows_record_split():
    rep = run_scan(_small_cfg(operator="DESCENT", d_range=(3,), grid=(2.0, 8), radii_K=4))
    assert rep.rows[0].extra == "d_prime=3"
    rep_err = run_scan(_small_cfg(operator="DESCENT", d_range=(2,), grid=(2.0, 8), radii_K=4))
    assert rep_err.rows[0].extra.startswith("error=")


def test_cli_scan_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    rc = main(
        [
            "scan",
            "--operator", "HL",
            "--d_range", "1,2",
            "--p_list", "2",
            "--q_list", "2",
            "--n_members", "2",
            "--grid", "2,8",
            "--radii_K", "6",
            "--seed", "1",
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert out.read_text().startswith(CSV_HEADER)
    with pytest.raises(SystemExit) as exc:
        main(["scan"])  # missing --out
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 1


@pytest.mark.parametrize(
    "flags,env",
    [
        (["--p_list", "1.0"], None),
        ([], "abc"),
        (["--d_range", "0"], None),
        (["--n_members", "0"], None),
        (["--operator", "SQFN", "--l", "0"], None),
        (["--q_list", "inf"], None),
        (["--grid", "0,8"], None),
        (["--grid", "2,5"], None),
        (["--radii_K", "1"], None),
        (["--k", "-1"], None),
        (["--seed", "-1"], None),
    ],
)
def test_cli_rejects_bad_config_up_front(tmp_path, monkeypatch, capsys, flags, env):
    if env is not None:
        monkeypatch.setenv("MAXOP_THREADS", env)
    out = tmp_path / "scan.csv"
    base = ["scan", "--operator", "HL", "--d_range", "1", "--n_members", "1",
            "--grid", "2,8", "--radii_K", "4", "--out", str(out)]
    rc = main(base + flags)
    assert rc == 1
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


def test_cli_decay(tmp_path):
    out = tmp_path / "decay.csv"
    rc = main(["decay", "--d", "3", "--l_max", "2", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "l,c1,c2,c3"
    assert len(lines) == 3


def test_cli_grushin(tmp_path):
    out = tmp_path / "gr.csv"
    rc = main(
        [
            "grushin",
            "--d_range", "1",
            "--n_members", "2",
            "--grid", "2,8",
            "--radii_K", "4",
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert (tmp_path / "gr_mk.csv").exists()
    assert (tmp_path / "gr_mk_iter.csv").exists()


def test_maxop_threads_env(monkeypatch):
    from maxop.grid import fft_workers

    monkeypatch.setenv("MAXOP_THREADS", "3")
    assert fft_workers() == 3
    monkeypatch.delenv("MAXOP_THREADS")
    assert fft_workers() >= 1
