import math

import numpy as np
import pytest

from maxop.checks import _oracle_hl
from maxop.grid import GridFunction, VectorField, make_grid, sample
from maxop.grushin import grushin_maximal, iterated_maximal, min_node_gap
from maxop.maximal import (
    _EXACT_PATH_MAX_NODES,
    RadiiSet,
    _ball_max_exact,
    _cumulative_weights,
    _strict_bound,
    default_radii,
    hl_maximal,
    maximal_1d,
    weighted_maximal,
)
from maxop.multiplier import apply_multiplier, bump, maximal_multiplier, spherical_maximal
from maxop.norms import lp_norm
from maxop.rotations import DescentSplit, descent_maximal, haar_rotation
from maxop.squarefn import default_tgrid, square_function


def test_default_radii_endpoints():
    spec = make_grid(1, 1.0, 4)
    rs = default_radii(spec, 2)
    assert rs.radii == pytest.approx((0.5, 2.0))
    rs3 = default_radii(spec, 3)
    assert rs3.radii[1] == pytest.approx(1.0)  # geometric midpoint
    assert all(b > a for a, b in zip(rs3.radii, rs3.radii[1:]))
    for bad in (1, 2.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="integer"):
            default_radii(spec, bad)
    assert default_radii(spec, 3.0) == rs3  # integral floats are accepted


def test_radii_set_validation():
    with pytest.raises(ValueError):
        RadiiSet(())
    with pytest.raises(ValueError):
        RadiiSet((1.0, 1.0))
    with pytest.raises(ValueError):
        RadiiSet((-1.0, 2.0))
    for bad in ((0.5, math.nan), (0.5, math.inf), (math.nan,)):
        with pytest.raises(ValueError, match="finite"):
            RadiiSet(bad)


def test_strict_bound_center_only_at_h():
    # radius h leaves exactly the center cell: n*h^2 < h^2 only for n = 0
    assert _strict_bound(0.5, 0.5) == 0
    assert _strict_bound(0.5001, 0.5) == 1
    assert _strict_bound(1.0, 0.5) == 3


def test_constant_is_fixed_everywhere():
    spec = make_grid(2, 2.0, 16)
    one = GridFunction(spec, np.ones(spec.shape))
    for op in (
        lambda f: hl_maximal(f, default_radii(spec, 8)),
        lambda f: maximal_1d(f, default_radii(spec, 8), axis=1),
    ):
        np.testing.assert_allclose(op(one).values, 1.0, atol=1e-12)


def test_domination_and_sublinearity(rng):
    spec = make_grid(2, 1.5, 12)
    radii = default_radii(spec, 12)
    f_vals = rng.standard_normal(spec.shape)
    g_vals = rng.standard_normal(spec.shape)
    Mf = hl_maximal(GridFunction(spec, f_vals), radii).values
    Mg = hl_maximal(GridFunction(spec, g_vals), radii).values
    Mfg = hl_maximal(GridFunction(spec, f_vals + g_vals), radii).values
    assert np.all(Mf >= np.abs(f_vals) - 1e-14)
    assert np.all(Mf >= 0)
    assert np.all(Mfg <= Mf + Mg + 1e-12)


def test_translation_covariance():
    spec = make_grid(1, 2.0, 32)
    vals = np.exp(-8 * (spec.axis_nodes() - 0.2) ** 2)
    shifted = np.roll(vals, 1)
    radii = RadiiSet((spec.h, 0.3, 0.6))
    a = hl_maximal(GridFunction(spec, vals), radii).values
    b = hl_maximal(GridFunction(spec, shifted), radii).values
    # where the largest stencil stays inside the cube, Mf shifts with f
    reach = math.isqrt(_strict_bound(0.6, spec.h))
    inner = slice(reach + 1, spec.N - reach)
    np.testing.assert_allclose(b[inner], a[inner.start - 1 : inner.stop - 1], atol=1e-14)


def test_interval_indicator_matches_continuum_sup():
    # sup_r of the centered average of chi_[-1,1] at x=2 is 1/3, at r = 3
    spec = make_grid(1, 4.0, 128)
    f = sample(spec, lambda p: (np.abs(p[..., 0]) <= 1.0).astype(float))
    M = hl_maximal(f, RadiiSet(tuple(np.linspace(spec.h, 6.0, 160))))
    node = int(np.argmin(np.abs(spec.axis_nodes() - 2.0)))
    assert abs(M.values[node] - 1.0 / 3.0) <= 2 * spec.h


@pytest.mark.parametrize(
    "d,N,k", [(2, 40, 0), (2, 40, 1), (3, 6, 0)], ids=["d2-k0", "d2-k1", "d3-k0"]
)
def test_fft_path_matches_exact_path(rng, d, N, k):
    spec = make_grid(d, 2.0, N)
    assert spec.size > _EXACT_PATH_MAX_NODES  # the FFT route
    vals = rng.standard_normal(spec.shape)
    # default radii end at the cube diameter, past the first radius whose ball
    # covers every in-grid offset
    radii = default_radii(spec, 10)
    got = weighted_maximal(GridFunction(spec, vals), k, radii).values
    tmax = _strict_bound(radii.radii[-1], spec.h)
    want = _ball_max_exact(
        np.abs(vals)[None], spec.h, radii.radii, k, _cumulative_weights(d, tmax, k, spec.h)
    )[0]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("k", [0, 1])
def test_covering_radius_reaches_the_far_corner(k):
    # a spike in one corner enters a ball centered at the opposite corner
    # only once the ball covers every in-grid offset
    spec = make_grid(2, 2.0, 10)
    vals = np.zeros(spec.shape)
    vals[0, 0] = 1.0
    radii = default_radii(spec, 8)
    got = weighted_maximal(GridFunction(spec, vals), k, radii).values
    tmax = _strict_bound(radii.radii[-1], spec.h)
    denom = _cumulative_weights(2, tmax, k, spec.h)
    want = _ball_max_exact(vals[None], spec.h, radii.radii, k, denom)[0]
    assert want[-1, -1] > 0
    assert got[-1, -1] == pytest.approx(want[-1, -1], rel=1e-12)
    assert np.abs(got - want).max() <= 1e-12 * want.max()


def test_fft_path_matches_naive_oracle(rng):
    spec = make_grid(2, 1.5, 12)  # 144 nodes: the FFT route
    assert spec.size > _EXACT_PATH_MAX_NODES
    vals = rng.standard_normal(spec.shape)
    radii = RadiiSet((spec.h, 0.3, 0.55, 1.0, 1.9, 4.2))
    got = hl_maximal(GridFunction(spec, vals), radii).values
    want = _oracle_hl(vals, spec.h, radii)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # the center-only radius is exact, so domination holds without rounding
    assert np.all(got >= np.abs(vals))


@pytest.mark.parametrize("N", [8, 12], ids=["exact", "fft"])
def test_vector_field_matches_per_member_calls(rng, N):
    spec = make_grid(2, 2.0, N)
    F = VectorField(tuple(GridFunction(spec, rng.standard_normal(spec.shape)) for _ in range(3)))
    radii = default_radii(spec, 12)
    prof = bump(1)
    tg = default_tgrid(prof, spec)
    for op in (
        lambda f: hl_maximal(f, radii),
        lambda f: weighted_maximal(f, 2, radii),
        lambda f: maximal_multiplier(f, prof, radii),
        lambda f: apply_multiplier(f, prof, 0.7),
        lambda f: square_function(f, prof, tg),
    ):
        G = op(F)
        assert isinstance(G, VectorField) and len(G) == len(F)
        for g, f in zip(G, F):
            want = op(f).values
            assert np.abs(g.values - want).max() <= 1e-14 * np.abs(want).max()


# the lattice operators outside the stencil engine, each on a small grid of
# its own; iterated-fft has u-slices above the exact-path size
_LATTICE_OPERATORS = {
    "descent": (
        make_grid(3, 2.0, 8),
        lambda f: descent_maximal(
            f, haar_rotation(3, 1), DescentSplit(3, 3), (0.3, 0.7), n_radial=4, n_sphere=8, seed=2
        ),
    ),
    "koranyi": (
        make_grid(2, 2.0, 8),
        lambda f: grushin_maximal(f, (0.9 * min_node_gap(f.spec), 0.5, 0.9)),
    ),
    "iterated-exact": (make_grid(2, 2.0, 8), lambda f: iterated_maximal(f, (0.5, 1.0, 2.0), (0.5, 1.5))),
    "iterated-fft": (
        make_grid(3, 3.0, 10),
        lambda f: iterated_maximal(f, np.geomspace(0.6, 8.0, 12), np.geomspace(0.6, 6.0, 12)),
    ),
    "interval": (make_grid(2, 2.0, 8), lambda f: maximal_1d(f, (0.5, 1.0, 2.0), axis=1)),
}


@pytest.mark.parametrize("name", list(_LATTICE_OPERATORS))
def test_lattice_operators_take_vector_fields_bit_exactly(rng, name):
    spec, op = _LATTICE_OPERATORS[name]
    F = VectorField(tuple(GridFunction(spec, rng.standard_normal(spec.shape)) for _ in range(3)))
    G = op(F)
    assert isinstance(G, VectorField) and len(G) == len(F)
    for g, f in zip(G, F):
        assert np.array_equal(g.values, op(f).values)
    assert isinstance(op(F.members[0]), GridFunction)


@pytest.mark.parametrize("name", list(_LATTICE_OPERATORS))
def test_lattice_operators_reject_complex_input(rng, name):
    spec, op = _LATTICE_OPERATORS[name]
    f = GridFunction(spec, rng.standard_normal(spec.shape) + 1j)
    for g in (f, VectorField((GridFunction(spec, np.ones(spec.shape)), f))):
        with pytest.raises(ValueError, match="real-valued"):
            op(g)


def test_weighted_k0_is_hl(rng):
    spec = make_grid(2, 1.0, 8)
    f = GridFunction(spec, rng.standard_normal(spec.shape))
    radii = RadiiSet((spec.h, 0.5, 1.1))
    np.testing.assert_array_equal(
        weighted_maximal(f, 0, radii).values, hl_maximal(f, radii).values
    )
    for bad in (-1, 0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="integer"):
            weighted_maximal(f, bad, radii)
    np.testing.assert_array_equal(weighted_maximal(f, 1.0, radii).values, weighted_maximal(f, 1, radii).values)


def test_weighted_constant_interior():
    spec = make_grid(2, 2.0, 16)
    one = GridFunction(spec, np.ones(spec.shape))
    radii = RadiiSet(tuple(np.geomspace(spec.h, 1.0, 6)))
    M = weighted_maximal(one, 2, radii).values
    ax = spec.axis_nodes()
    interior = np.abs(np.stack(np.meshgrid(ax, ax, indexing="ij"), -1)).max(-1) <= spec.L - 1.05
    np.testing.assert_allclose(M[interior], 1.0, atol=1e-12)


def test_weighted_below_spherical_on_bump():
    # polar coordinates turn the weighted average into an average of sphere
    # averages, so the spherical maximal function dominates
    spec = make_grid(2, 4.0, 48)
    f = sample(spec, lambda p: np.exp(-2 * np.sum(p**2, -1)))
    radii = RadiiSet(tuple(np.geomspace(spec.h, 2.5, 12)))
    dense = RadiiSet(tuple(np.geomspace(spec.h / 2, 3.0, 48)))
    for k in (1, 3):
        W = weighted_maximal(f, k, radii).values
        S = spherical_maximal(f, dense).values
        ax = spec.axis_nodes()
        interior = np.abs(np.stack(np.meshgrid(ax, ax, indexing="ij"), -1)).max(-1) <= 1.0
        assert np.all(W[interior] <= S[interior] * 1.05 + 4 * spec.h)


def test_maximal_1d_equals_hl_in_1d(rng):
    spec = make_grid(1, 1.0, 8)
    f = GridFunction(spec, rng.standard_normal(spec.shape))
    radii = RadiiSet((spec.h, 0.3, 0.8, 1.9))
    a = maximal_1d(f, radii, axis=0).values
    b = hl_maximal(f, radii).values
    np.testing.assert_allclose(a, b, atol=1e-13)
    with pytest.raises(ValueError):
        maximal_1d(f, radii, axis=1)


def test_maximal_1d_spike_decay():
    spec = make_grid(1, 1.0, 64)
    vals = np.zeros(spec.shape)
    vals[32] = 1.0
    radii = RadiiSet(tuple(np.geomspace(spec.h, 1.5, 64)))
    M = maximal_1d(GridFunction(spec, vals), radii, axis=0).values
    for cells in (6, 10, 16):
        s = cells * spec.h
        expect = spec.h / (2 * s)
        assert abs(M[32 + cells] - expect) <= 0.25 * expect


def test_maximal_1d_per_fiber(rng):
    spec = make_grid(2, 1.0, 8)
    vals = rng.standard_normal(spec.shape)
    radii = RadiiSet((spec.h, 0.4, 0.9))
    M = maximal_1d(GridFunction(spec, vals), radii, axis=1).values
    spec1 = make_grid(1, 1.0, 8)
    for i in range(spec.N):
        fiber = hl_maximal(GridFunction(spec1, vals[i]), radii).values
        np.testing.assert_allclose(M[i], fiber, atol=1e-13)


def test_dimension_stability_probe():
    # ||M f||_2 / ||f||_2 for the unit gaussian stays below 3 across d=1..5
    ratios = []
    for d, N in ((1, 32), (2, 24), (3, 16), (4, 12), (5, 12)):
        spec = make_grid(d, 4.0, N)
        f = sample(spec, lambda p: np.exp(-np.sum(p**2, -1)))
        M = hl_maximal(f, default_radii(spec, 16))
        ratios.append(lp_norm(M, 2.0) / lp_norm(f, 2.0))
    assert all(r < 3.0 for r in ratios)
    assert all(r >= 1.0 - 1e-12 for r in ratios)


def test_rejects_frequency_domain_and_oversized_radii(rng):
    spec = make_grid(1, 1.0, 8)
    f = GridFunction(spec, rng.standard_normal(spec.shape))
    from maxop.grid import forward_transform

    with pytest.raises(ValueError):
        hl_maximal(forward_transform(f), RadiiSet((0.5,)))
    with pytest.raises(ValueError):
        hl_maximal(f, RadiiSet((0.5, 50.0)))
