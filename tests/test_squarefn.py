import math

import numpy as np
import pytest

from maxop.grid import GridFunction, VectorField, make_grid
from maxop.multiplier import dyadic_piece, surface_multiplier
from maxop.norms import lp_norm
from maxop.squarefn import TGrid, default_tgrid, prop2_check, sharp_annulus, square_function

SPEC = make_grid(2, 2.0, 32)


def _zero_mean(rng):
    v = rng.standard_normal(SPEC.shape)
    return GridFunction(SPEC, v - v.mean())


def test_tgrid_validation_and_log_weight():
    tg = default_tgrid(sharp_annulus(0.5, 2.0), SPEC, n=128)
    # constant log-step weights: any resolved subinterval sums to its log-length
    assert np.allclose(np.diff(np.log(tg.ts)), tg.weights[0])
    assert abs(tg.weights.sum() - math.log(tg.ts[-1] / tg.ts[0]) - tg.weights[0]) < 1e-12
    with pytest.raises(ValueError):
        TGrid(ts=np.array([1.0, 0.5]), weights=np.array([0.1, 0.1]))
    with pytest.raises(ValueError):
        TGrid(ts=np.array([0.5, 1.0]), weights=np.array([0.1, -0.1]))
    # a NaN weight would make square_function NaN
    for ts, w in (([0.5, math.inf], [0.1, 0.1]), ([0.5, math.nan], [0.1, 0.1]), ([0.5, 1.0], [0.1, math.nan])):
        with pytest.raises(ValueError, match="finite"):
            TGrid(ts=np.array(ts), weights=np.array(w))


def test_tgrid_size_must_be_a_positive_integer():
    for bad in (0, -3, 2.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="integer"):
            default_tgrid(sharp_annulus(0.5, 2.0), SPEC, n=bad)
    # integral floats are the same size
    want = default_tgrid(sharp_annulus(0.5, 2.0), SPEC, n=16)
    got = default_tgrid(sharp_annulus(0.5, 2.0), SPEC, n=16.0)
    np.testing.assert_array_equal(got.ts, want.ts)
    np.testing.assert_array_equal(got.weights, want.weights)


def test_rejects_non_annulus():
    with pytest.raises(ValueError):
        default_tgrid(surface_multiplier(2), SPEC)
    f = GridFunction(SPEC, np.ones(SPEC.shape))
    tg = default_tgrid(sharp_annulus(0.5, 2.0), SPEC)
    with pytest.raises(ValueError):
        square_function(f, surface_multiplier(2), tg)


def test_disjoint_supports_give_zero(rng):
    # input oscillating at the grid's top frequencies, profile near zero:
    # every dilation of the annulus misses the active band
    vals = np.zeros(SPEC.shape)
    vals[0, 0] = 1.0  # frequency-flat impulse
    f = GridFunction(SPEC, vals)
    prof = sharp_annulus(1e-4, 2e-4)
    tg = TGrid(ts=np.array([1.0, 2.0]), weights=np.array([0.5, 0.5]))
    g = square_function(f, prof, tg)
    assert np.all(g.values == 0.0)


def test_plancherel_equality_case(rng):
    f = _zero_mean(rng)
    height = 0.8
    prof = sharp_annulus(0.5, 2.0, height)
    g = square_function(f, prof, default_tgrid(prof, SPEC, n=128))
    lhs = lp_norm(g, 2.0)
    rhs = height * math.sqrt(math.log(4.0)) * lp_norm(f, 2.0)
    assert abs(lhs - rhs) <= 1e-3 * rhs


def test_amplitude_scaling(rng):
    f = _zero_mean(rng)
    prof = sharp_annulus(0.5, 2.0)
    tg = default_tgrid(prof, SPEC)
    g1 = square_function(f, prof, tg)
    g2 = square_function(GridFunction(SPEC, 3.0 * f.values), prof, tg)
    np.testing.assert_allclose(g2.values, 3.0 * g1.values, atol=1e-12)
    assert np.all(g1.values >= 0)


def test_prop2_inequality_and_zero_member(rng):
    prof = sharp_annulus(0.5, 2.0, 1.1)
    F = VectorField(tuple(GridFunction(SPEC, rng.standard_normal(SPEC.shape)) for _ in range(3)))
    lhs, rhs = prop2_check(F, prof)
    assert lhs <= rhs * (1 + 1e-2)
    padded = VectorField(F.members + (GridFunction(SPEC, np.zeros(SPEC.shape)),))
    lhs2, _ = prop2_check(padded, prof)
    assert abs(lhs2 - lhs) <= 1e-12 * lhs


def test_sharp_annulus_bounds_a_negative_height_and_refuses_nan(rng):
    prof = sharp_annulus(0.5, 2.0, -1.3)
    F = VectorField(tuple(GridFunction(SPEC, rng.standard_normal(SPEC.shape)) for _ in range(3)))
    lhs, rhs = prop2_check(F, prof)
    assert 0.0 < lhs <= rhs * (1 + 1e-2)
    # C is |height|: rhs is 1.3 sqrt(log 4) times the L^2(l^2) norm of F
    norm = math.sqrt(sum(np.sum(m.values**2) for m in F) * SPEC.cell_volume)
    assert abs(rhs - 1.3 * math.sqrt(math.log(4.0)) * norm) <= 1e-13 * rhs
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="height"):
            sharp_annulus(0.5, 2.0, bad)


def test_prop2_with_dyadic_piece(rng):
    piece = dyadic_piece(2, 1)
    F = VectorField(tuple(GridFunction(SPEC, rng.standard_normal(SPEC.shape)) for _ in range(2)))
    lhs, rhs = prop2_check(F, piece)
    assert lhs <= rhs * (1 + 1e-2)
    # its C, a sampled sup, against a pointwise max four times denser
    a, b = piece.support
    norm = math.sqrt(sum(np.sum(m.values**2) for m in F) * SPEC.cell_volume)
    C = rhs / (math.sqrt(math.log(b / a)) * norm)
    dense = np.max(np.abs(piece(np.linspace(a, b, 4 * 8191 + 1))))
    assert abs(C - dense) <= 1e-4 * dense


def test_tgrid_refinement_convergence(rng):
    f = _zero_mean(rng)
    piece = dyadic_piece(2, 1)
    a = square_function(f, piece, default_tgrid(piece, SPEC, n=128))
    b = square_function(f, piece, default_tgrid(piece, SPEC, n=256))
    rel = np.abs(a.values - b.values).max() / np.abs(a.values).max()
    assert rel <= 1e-3
