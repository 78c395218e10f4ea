import math

import numpy as np
import pytest
from scipy.special import roots_jacobi, roots_legendre

from maxop import quadrature
from maxop.quadrature import (
    _MAX_RULE_SIZE,
    adaptive_levels,
    gegenbauer_rule,
    gegenbauer_weight_mass,
    radial_power_rule,
    refine_until_stationary,
)

RULE_SIZES = [1, 2, 3, 16, 17, 255, 1024, 4096]
# past _INTERIOR_SEEDS_MAX (a = (d - 3) / 2, b = kappa - 1), where bisection seeds Newton
DIMENSIONS = [*range(3, 9), 35, 40]
KAPPAS = [*range(1, 11), 17, 20, 31]


@pytest.mark.parametrize("n", RULE_SIZES)
def test_rule_nodes_match_scipy(n):
    # past the interior range only up to n = 1,024, which already takes 14
    # bisection passes; n = 4,096 there would add about 10 s
    past_interior = n <= 1024
    for d in DIMENSIONS if past_interior else range(3, 9):
        t, _ = gegenbauer_rule(d, n)
        alpha = (d - 3) / 2.0
        ref = roots_legendre(n)[0] if d == 3 else roots_jacobi(n, alpha, alpha)[0]
        np.testing.assert_allclose(t, ref, rtol=0, atol=1e-14, err_msg=f"d={d}")
    for kappa in KAPPAS if past_interior else range(1, 11):
        rho, _ = radial_power_rule(n, kappa)
        ref = (roots_jacobi(n, 0.0, kappa - 1.0)[0] + 1.0) / 2.0
        np.testing.assert_allclose(rho, ref, rtol=0, atol=1e-14, err_msg=f"kappa={kappa}")


@pytest.mark.parametrize("n", [n for n in RULE_SIZES if n <= 256])
def test_rule_weights_integrate_monomials_exactly(n):
    # exact moments from their own recurrences, without scipy: a Gauss rule of
    # n nodes integrates every polynomial of degree <= 2n - 1
    for d in DIMENSIONS:
        alpha = (d - 3) / 2.0
        t, w = gegenbauer_rule(d, n)
        assert math.isclose(w.sum(), gegenbauer_weight_mass(d), rel_tol=1e-13)
        moment = gegenbauer_weight_mass(d)  # B(j + 1/2, alpha + 1) at j = 0
        for j in range(n):
            assert math.isclose(np.sum(w * t ** (2 * j)), moment, rel_tol=1e-13), (d, j)
            moment *= (j + 0.5) / (j + alpha + 1.5)
    for kappa in KAPPAS:
        rho, w = radial_power_rule(n, kappa)
        for m in range(2 * n):
            assert math.isclose(np.sum(w * rho**m), kappa / (kappa + m), rel_tol=1e-13), (kappa, m)


@pytest.mark.parametrize(
    "call",
    [
        lambda: gegenbauer_rule(2, 0),
        lambda: gegenbauer_rule(2, 2.5),
        lambda: gegenbauer_rule(3, 0),
        lambda: gegenbauer_rule(5, -4),
        lambda: gegenbauer_rule(5, math.inf),
        lambda: radial_power_rule(4, 2.5),
        lambda: radial_power_rule(4, 0),
        lambda: radial_power_rule(0, 3),
        lambda: radial_power_rule(math.nan, 3),
    ],
    ids=["d2-n0", "d2-n2.5", "d3-n0", "d5-n-4", "d5-ninf", "kappa2.5", "kappa0", "radial-n0", "radial-nnan"],
)
def test_rule_arguments_follow_the_integer_rule(call):
    with pytest.raises(ValueError, match="integer"):
        call()


@pytest.mark.parametrize(
    "n, a, b, reason",
    [
        (64, 18.5, 18.5, "converge"),
        (2, 0.0, 19.0, "converge"),
        (2, 0.0, 30.0, "repeat"),
        # two nodes 2 ulps apart on one zero: sorted, but p_(n-1) does not alternate
        (36, 0.0, 16.0, "repeat"),
        # the solved half converges onto a negative zero, which the mirror repeats
        (11, 16.0, 16.0, "repeat"),
    ],
    ids=["d40", "kappa20", "kappa31", "kappa17", "d35"],
)
def test_interior_guesses_past_their_range_raise(monkeypatch, n, a, b, reason):
    # the interior asymptotics miss near the endpoint of a large parameter;
    # the rule raises rather than return a repeated or unconverged node
    monkeypatch.setattr(quadrature, "_INTERIOR_SEEDS_MAX", math.inf)
    with pytest.raises(RuntimeError, match=reason):
        quadrature._gauss_jacobi(n, a, b)


def test_integral_float_rule_arguments_are_integers():
    np.testing.assert_array_equal(gegenbauer_rule(2, 16.0)[1], gegenbauer_rule(2, 16)[1])
    np.testing.assert_array_equal(radial_power_rule(16.0, 4.0)[0], radial_power_rule(16, 4)[0])


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
