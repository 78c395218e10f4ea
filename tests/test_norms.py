import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxop.grid import GridFunction, VectorField, make_grid
from maxop.norms import lp_norm, lq_pointwise, mixed_norm, mixed_norm_values
from maxop.rotations import dimension_split

SPEC = make_grid(2, 1.0, 8)


def _gf(values):
    return GridFunction(SPEC, np.asarray(values, dtype=float))


def test_exponent_validation():
    # every exponent argument goes through one validator, with one message
    f = _gf(np.ones(SPEC.shape))
    F = VectorField((f,))
    calls = (
        lambda p: lp_norm(f, p),
        lambda p: lq_pointwise(F, p),
        lambda p: mixed_norm(F, p, 2.0),
        lambda p: mixed_norm_values([f.values], 2.0, p, SPEC.cell_volume),
        lambda p: dimension_split(p, 2.0),
    )
    for call in calls:
        for bad in (1.0, 0.5, -2.0, math.nan):
            with pytest.raises(ValueError, match=r"exponent must satisfy p > 1 \(or inf\)"):
                call(bad)
    assert lp_norm(f, math.inf) == 1.0


def test_lp_norm_constant():
    one = _gf(np.ones(SPEC.shape))
    assert abs(lp_norm(one, 2.0) - 2.0) < 1e-14  # volume of [-1,1]^2 is 4
    assert lp_norm(one, math.inf) == 1.0


def test_lp_norm_vs_resummation(rng):
    vals = rng.standard_normal(SPEC.shape)
    f = _gf(vals)
    for p in (1.5, 2.0, 3.0, 7.0):
        direct = (sum(abs(v) ** p for v in vals.reshape(-1)) * SPEC.cell_volume) ** (1 / p)
        assert abs(lp_norm(f, p) - direct) < 1e-12 * direct


def test_lq_pointwise_basics(rng):
    f = _gf(rng.standard_normal(SPEC.shape))
    single = lq_pointwise(VectorField((f,)), 2.0)
    np.testing.assert_allclose(single.values, np.abs(f.values), rtol=1e-14)
    double = lq_pointwise(VectorField((f, f)), 2.0)
    np.testing.assert_allclose(double.values, math.sqrt(2) * np.abs(f.values), rtol=1e-14)
    with pytest.raises(ValueError):
        lq_pointwise(VectorField((f,)), math.inf)


def test_lq_pointwise_vs_per_node(rng):
    F = VectorField(tuple(_gf(rng.standard_normal(SPEC.shape)) for _ in range(3)))
    got = lq_pointwise(F, 2.5).values
    want = np.zeros(SPEC.shape)
    for i in np.ndindex(SPEC.shape):
        want[i] = sum(abs(m.values[i]) ** 2.5 for m in F) ** (1 / 2.5)
    np.testing.assert_allclose(got, want, rtol=1e-13)


def test_mixed_norm_reductions(rng):
    f = _gf(rng.standard_normal(SPEC.shape))
    assert abs(mixed_norm(VectorField((f,)), 3.0, 2.0) - lp_norm(f, 3.0)) < 1e-13
    F = VectorField((f, _gf(rng.standard_normal(SPEC.shape))))
    c = 3.7
    scaled = VectorField(tuple(_gf(c * m.values) for m in F))
    assert abs(mixed_norm(scaled, 2.0, 3.0) - c * mixed_norm(F, 2.0, 3.0)) < 1e-12


def test_mixed_norm_monotone(rng):
    F = VectorField(tuple(_gf(rng.standard_normal(SPEC.shape)) for _ in range(2)))
    G = VectorField(tuple(_gf(np.abs(m.values) + 0.1) for m in F))
    assert mixed_norm(F, 2.0, 2.0) <= mixed_norm(G, 2.0, 2.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(1.0, 8.0))
def test_triangle_inequality(seed, p):
    r = np.random.default_rng(seed)
    a, b = r.standard_normal(SPEC.shape), r.standard_normal(SPEC.shape)
    lhs = lp_norm(_gf(a + b), max(p, 1.0 + 1e-9))
    rhs = lp_norm(_gf(a), max(p, 1.0 + 1e-9)) + lp_norm(_gf(b), max(p, 1.0 + 1e-9))
    assert lhs <= rhs * (1 + 1e-12)
