import numpy as np
import pytest

from maxop.quadrature import _MAX_RULE_SIZE, adaptive_levels, refine_until_stationary


def test_adaptive_levels_double_from_the_oscillation_count():
    levels = adaptive_levels(10.0)
    assert levels[0] >= 4 * 10.0 + 64 > levels[0] // 2
    assert all(b == 2 * a for a, b in zip(levels, levels[1:]))
    assert levels[-1] == _MAX_RULE_SIZE
    with pytest.raises(ValueError):
        adaptive_levels(_MAX_RULE_SIZE)


def test_refine_until_stationary_returns_first_level_within_tol():
    # level k holds 1000 + 1 - 2^-k, so it moves by 2^-k from level k - 1;
    # the test is absolute, so the size of the values does not relax it
    levels = adaptive_levels(3.0)
    calls = []

    def with_rule(n):
        calls.append(n)
        return np.array([1000.0, 1001.0 - 2.0 ** -levels.index(n)])

    out = refine_until_stationary(with_rule, max_arg=3.0, tol=2.0**-3)
    assert calls == levels[:4]
    np.testing.assert_array_equal(out, [1000.0, 1001.0 - 2.0**-3])


def test_refine_until_stationary_raises_when_the_ladder_runs_out():
    levels = adaptive_levels(3.0)
    calls = []

    def with_rule(n):
        calls.append(n)
        return np.array([float(len(calls))])

    with pytest.raises(RuntimeError, match="stationarity"):
        refine_until_stationary(with_rule, max_arg=3.0, tol=0.5)
    assert calls == levels
