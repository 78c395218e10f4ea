import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft

from maxop import maximal
from maxop.checks import _oracle_hl
from maxop.grid import GridFunction, PreconditionError, VectorField, make_grid, sample
from maxop.grushin import grushin_maximal, iterated_maximal, min_node_gap
from maxop.maximal import (
    RadiiSet,
    _even_spectrum,
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
    vals = rng.standard_normal(spec.shape)
    # default radii end at the cube diameter, past the first radius whose ball
    # covers every in-grid offset
    radii = default_radii(spec, 10)
    got = weighted_maximal(GridFunction(spec, vals), k, radii).values
    want = _oracle_hl(vals, spec.h, radii, k)
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
    want = _oracle_hl(vals, spec.h, radii, k)
    assert want[-1, -1] > 0
    assert got[-1, -1] == pytest.approx(want[-1, -1], rel=1e-12)
    assert np.abs(got - want).max() <= 1e-12 * want.max()


def _cutoff_members(spec):
    # a centered gaussian, and a spike in one corner that reaches the
    # opposite corner only through the ball holding every in-grid offset
    x = spec.axis_nodes()
    corner = np.zeros(spec.shape)
    corner[0, 0] = 1.0
    return {"gaussian": np.exp(-(x[:, None] ** 2 + x[None, :] ** 2) / 4.0), "corner": corner}


# h = 1, so every nonzero weight |delta h|^k is at least 1 and the bound's
# weight factor matters at every radius
_CUTOFF_SPEC = make_grid(2, 6.0, 12)


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("member", ["gaussian", "corner"])
def test_radius_cutoff_is_exact(member, k):
    spec = _CUTOFF_SPEC
    vals = _cutoff_members(spec)[member]
    radii = default_radii(spec)
    f = GridFunction(spec, vals)
    got = (hl_maximal(f, radii) if k == 0 else weighted_maximal(f, k, radii)).values
    want = _oracle_hl(vals, spec.h, radii, k)
    assert np.abs(got - want).max() <= 1e-13 * want.max()
    if member == "corner":
        # the winning radius at the far corner is the covering one
        assert want[-1, -1] > 0
        assert got[-1, -1] == pytest.approx(want[-1, -1], rel=1e-13)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_radius_cutoff_skips_convolutions(monkeypatch, k):
    spec = _CUTOFF_SPEC
    radii = default_radii(spec)
    # each radius times 1 + 1e-9 keeps its stencil, so the interleaved set
    # repeats every stencil key, and the sweep convolves each key once, for
    # its smallest radius
    repeated = RadiiSet(tuple(s for r in radii for s in (r, r * (1 + 1e-9))))
    # one member on a small grid is one batch per padded shape, so every
    # convolved radius runs one inverse transform
    calls = []
    inverse = maximal._inverse
    monkeypatch.setattr(maximal, "_inverse", lambda *args: calls.append(args) or inverse(*args))
    counts = {}
    for name, vals in _cutoff_members(spec).items():
        f = GridFunction(spec, vals)
        calls.clear()
        want = weighted_maximal(f, k, radii).values
        counts[name] = len(calls)
        calls.clear()
        assert np.array_equal(weighted_maximal(f, k, repeated).values, want)
        assert len(calls) == counts[name]
    # distinct stencils: in-grid offset sets of the balls the sweep convolves,
    # from the first one past the center up to the covering one, which is an
    # FFT stencil for every k
    off = np.arange(-(spec.N - 1), spec.N)
    n2 = off[:, None] ** 2 + off[None, :] ** 2
    ts = [_strict_bound(r, spec.h) for r in radii]
    swept = [t for t in ts if 0 < t < n2.max()] + [n2.max()]
    stencils = {tuple(np.flatnonzero(n2 <= t)) for t in swept}
    # the corner spike leaves the far corner at 0 below the covering radius,
    # so no radius is skipped; the gaussian skips the radii whose bound its
    # running max already meets everywhere
    assert counts["corner"] == len(stencils)
    assert counts["gaussian"] < len(stencils)


def test_center_only_radii_seed_the_max(rng):
    spec = make_grid(2, 1.5, 12)
    vals = rng.standard_normal(spec.shape)
    f = GridFunction(spec, vals)
    # every ball of radius <= h holds only the center
    small = (0.3 * spec.h, 0.7 * spec.h, spec.h)
    assert np.array_equal(hl_maximal(f, small).values, np.abs(vals))
    for k in (1, 2):
        assert np.array_equal(weighted_maximal(f, k, small).values, np.zeros(spec.shape))
    got = hl_maximal(f, small + (2.5 * spec.h,)).values
    assert np.all(got >= np.abs(vals))
    assert np.any(got > np.abs(vals))


@pytest.mark.parametrize(
    "d,L,N,radii,k_ok,k_bad",
    [(2, 4.0, 32, None, 280, 400), (1, 1.0, 200, None, 160, 200), (2, 4.0, 32, (1.0, 10.0), 300, 400)],
    ids=["overflow", "underflow", "half-box"],
)
def test_weights_out_of_the_double_range_are_refused(monkeypatch, d, L, N, radii, k_ok, k_bad):
    # at k_bad the largest denominator overflows, or (h = 0.01) the one of the
    # smallest radius past the center underflows to 0; k_ok stays finite, and
    # neither raises a RuntimeWarning, also where (radius 10 at k = 300) the
    # stencil's half box holds offsets beyond the ball whose weights overflow
    spec = make_grid(d, L, N)
    f = GridFunction(spec, np.ones(spec.shape))
    radii = default_radii(spec, 8) if radii is None else radii
    assert np.all(np.isfinite(weighted_maximal(f, k_ok, radii).values))

    def built(*args):
        raise AssertionError("a stencil was built before the weights were checked")

    monkeypatch.setattr(maximal, "_even_spectrum", built)
    with pytest.raises(PreconditionError, match=f"k={k_bad} on the grid"):
        weighted_maximal(f, k_bad, radii)


@pytest.mark.parametrize("k", [0, 1])
def test_fft_path_is_bit_exact_across_batches(monkeypatch, rng, k):
    spec = _CUTOFF_SPEC
    F = VectorField(tuple(GridFunction(spec, rng.standard_normal(spec.shape)) for _ in range(3)))
    radii = default_radii(spec)
    sizes = []
    spectra = maximal._member_spectra
    monkeypatch.setattr(maximal, "_member_spectra", lambda a, mshape: sizes.append(len(a)) or spectra(a, mshape))
    whole = weighted_maximal(F, k, radii)
    # every padded shape of the 12^2 grid holds the three members in one batch
    assert sizes and set(sizes) == {3}
    monkeypatch.setattr(maximal, "_SWEEP_BATCH_BYTES", 1)  # one member per batch
    assert maximal._chunk((64, 64), maximal._SWEEP_BATCH_BYTES) == 1
    sizes.clear()
    for g, w in zip(weighted_maximal(F, k, radii), whole):
        assert np.array_equal(g.values, w.values)
    # each batch holds one member's spectra at a time
    assert sizes and max(sizes) == 1


def test_fft_sweep_peak_memory_is_bounded_by_design(rng):
    spec = make_grid(4, 4.0, 16)
    spike = np.zeros(spec.shape)
    spike[(0,) * 4] = 1.0  # keeps the far corner at 0, so no radius is skipped
    F = VectorField((GridFunction(spec, spike), GridFunction(spec, rng.random(spec.shape))))
    radii = default_radii(spec)
    # The sweep ends on the widest padded shape (32^4), where one member's
    # spectra (8.9 MB) exceed the 4 MiB batch, so the members go one at a
    # time.  Its design bound: one member's spectra there, their product with
    # the stencil spectrum (8.9 MB), the stencil spectrum (a real array on the
    # spectra's layout: 4.5 MB), and a margin of 6.5 arrays of both members
    # on the grid (6.5 x 1.05 MB): the stacked input and its abs, the running
    # max that every radius raises in place, one batch's inverse with its
    # cropped intermediates, and the stencil's half-box arrays.  A sweep that
    # held both members' spectra there (one more 8.9 MB) would not fit.
    spectrum = 16 * 32**3 * 17
    bound = spectrum + spectrum + spectrum // 2 + 13 * spec.size * 8
    tracemalloc.start()
    try:
        hl_maximal(F, radii)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, (peak, bound)


@pytest.mark.parametrize(
    "mshape",
    [(18, 21), (21, 25), (25, 27), (27, 32), (32, 33), (33, 35), (35, 63), (63, 18), (21, 33, 25), (63, 27, 35)],
)
def test_even_spectrum_mirror_matches_the_gather(rng, mshape):
    # odd padded lengths come from next_fast_len at d = 3; every length sits
    # on a mirrored (non-last) axis at least once
    half = rng.random(tuple(min(6, m // 2) for m in mshape))
    got = _even_spectrum(half, mshape)
    s = half
    for ax, m in enumerate(mshape):
        s = scipy.fft.rfftn(s, s=(m,), axes=(ax,)).real
    idx = [np.minimum(np.arange(m), m - np.arange(m)) for m in mshape[:-1]]
    want = s[np.ix_(*idx, np.arange(s.shape[-1]))]
    assert got.shape == want.shape and np.array_equal(got, want)
    # and it is the spectrum of the even stencil laid out with wrap-around
    full = np.zeros(mshape)
    for corner in np.ndindex(*half.shape):
        fold = 2 ** sum(c > 0 for c in corner)
        for signs in np.ndindex(*(2,) * len(mshape)):
            full[tuple(-c if sg else c for c, sg in zip(corner, signs))] = half[corner] / fold
    np.testing.assert_allclose(got, np.fft.rfftn(full).real, rtol=0, atol=1e-12 * np.abs(got).max())


def test_even_spectrum_allocates_one_full_size_array(rng):
    # the d = 4 stencil spectrum on the padded 32^4 shape: the output beside
    # the real half box (17^4 nodes, 0.15 of the output's bytes) reads 1.15;
    # keeping the complex half box alive while the output is allocated reads
    # 1.30, and mirroring by concatenation 1.53
    mshape = (32,) * 4
    half = rng.random((9,) * 4)
    tracemalloc.start()
    try:
        got = _even_spectrum(half, mshape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * got.nbytes, peak / got.nbytes


def test_fft_path_matches_naive_oracle(rng):
    spec = make_grid(2, 1.5, 12)
    vals = rng.standard_normal(spec.shape)
    radii = RadiiSet((spec.h, 0.3, 0.55, 1.0, 1.9, 4.2))
    got = hl_maximal(GridFunction(spec, vals), radii).values
    want = _oracle_hl(vals, spec.h, radii)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # the center-only radius is exact, so domination holds without rounding
    assert np.all(got >= np.abs(vals))


# the ids name two grid sizes, 64 and 144 nodes; both take the FFT sweep
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
# its own; the iterated ids name two u-slice sizes, 8 and 10 x 10 nodes,
# both on the FFT sweep
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
    # complex data are rejected when their GridFunction is built; outputs skip
    # the constructor's checks, so they are checked to be real and finite here
    spec, op = _LATTICE_OPERATORS[name]
    with pytest.raises(ValueError, match="real"):
        op(GridFunction(spec, rng.standard_normal(spec.shape) + 1j))
    out = op(GridFunction(spec, rng.standard_normal(spec.shape))).values
    assert out.dtype == np.float64 and np.all(np.isfinite(out))


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


def test_maximal_1d_axis_follows_the_integer_rule(rng):
    spec = make_grid(2, 1.0, 8)
    f = GridFunction(spec, rng.standard_normal(spec.shape))
    radii = RadiiSet((spec.h, 0.4, 0.9))
    assert np.array_equal(maximal_1d(f, radii, axis=1.0).values, maximal_1d(f, radii, axis=1).values)
    for bad in (0.5, -1, math.nan, "1"):
        with pytest.raises(ValueError, match="axis"):
            maximal_1d(f, radii, axis=bad)


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


def test_maximal_1d_matches_the_oracle_on_long_fibers(rng):
    # 96-node fibers along the first axis, every fiber a member of one FFT call
    spec = make_grid(2, 3.0, 96)
    vals = rng.standard_normal(spec.shape)
    vals[60:] = 0.0  # a zero tail in every fiber
    radii = RadiiSet(tuple(np.geomspace(spec.h, 2 * spec.L, 8)))
    M = maximal_1d(GridFunction(spec, vals), radii, axis=0).values
    for j in (0, 47, 95):
        want = _oracle_hl(vals[:, j], spec.h, radii)
        assert np.abs(M[:, j] - want).max() <= 1e-12 * np.abs(want).max()


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


def test_rejects_oversized_radii(rng):
    spec = make_grid(1, 1.0, 8)
    f = GridFunction(spec, rng.standard_normal(spec.shape))
    with pytest.raises(ValueError):
        hl_maximal(f, RadiiSet((0.5, 50.0)))
