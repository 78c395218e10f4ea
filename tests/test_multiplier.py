import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import j0

from maxop import multiplier
from maxop.checks import _zonal_inverse
from maxop.grid import (
    GridFunction,
    forward_transform,
    frequency_radii,
    inverse_transform,
    make_grid,
    node_coordinates,
    sample,
)
from maxop.maximal import RadiiSet, default_radii, hl_maximal
from maxop.multiplier import (
    RadialProfile,
    _SurfaceTransform,
    _shells,
    _trig_progression,
    _trig_sum,
    apply_multiplier,
    bump,
    decay_constants,
    dyadic_piece,
    funk_hecke_kernel,
    kernel,
    maximal_multiplier,
    spherical_maximal,
    surface_multiplier,
    tilde_piece,
)
from maxop.quadrature import gegenbauer_rule, gegenbauer_weight_mass
from maxop.squarefn import default_tgrid, square_function


def test_surface_multiplier_normalization():
    for d in (2, 3, 4, 5, 7):
        assert abs(surface_multiplier(d)(0.0) - 1.0) <= 1e-10


def test_surface_multiplier_closed_forms():
    m3 = surface_multiplier(3)
    s = np.array([0.25, 1.0, 3.7])
    np.testing.assert_allclose(m3(s), np.sin(2 * np.pi * s) / (2 * np.pi * s), atol=1e-10)
    m2 = surface_multiplier(2)
    np.testing.assert_allclose(m2(s), j0(2 * np.pi * s), atol=1e-10)
    with pytest.raises(ValueError):
        surface_multiplier(1)


def test_zonal_inverse_does_not_sum_progressions(monkeypatch):
    # the oracle evaluates m by direct quadrature point by point, never
    # through the angle-addition kernel of the production sweeps
    def progression(*args):
        raise AssertionError("the oracle summed a progression")

    monkeypatch.setattr(multiplier, "_trig_progression", progression)
    _zonal_inverse(bump(1), 3, np.linspace(0.1, 2.3, 40))


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("deriv", [False, True])
def test_surface_progression_matches_the_direct_quadrature(d, deriv):
    # three octaves of an evenly spaced sweep, summed by angle addition
    st = _SurfaceTransform(d)
    a, b, n = 0.3, 40.0, 3001
    got = st._progression(a, b, n, deriv)
    want = st._bucketed(np.linspace(a, b, n), deriv, tol=1e-10)
    np.testing.assert_allclose(got, want, rtol=0, atol=2e-10)
    if d == 3:
        s = np.linspace(a, b, n)
        x = 2 * np.pi * s
        closed = (np.cos(x) / s - np.sin(x) / (2 * np.pi * s**2)) if deriv else np.sin(x) / x
        np.testing.assert_allclose(got, closed, rtol=0, atol=1e-10)


def test_decay_constants_sweep_each_piece_once(monkeypatch):
    # c1, c2 and the pieces' sup_bound read the same m and m' samples
    calls = []
    progression = _SurfaceTransform._progression

    def counting(self, a, b, n, deriv):
        calls.append((self.d, a, b, n, deriv))
        return progression(self, a, b, n, deriv)

    monkeypatch.setattr(_SurfaceTransform, "_progression", counting)
    multiplier._swept_m.cache_clear()
    decay_constants(3, 3)
    want = [(3, *multiplier._bump_support(l), 8192, deriv) for l in (1, 2, 3) for deriv in (False, True)]
    assert sorted(calls) == sorted(want)


@pytest.mark.parametrize("trig", [np.cos, np.sin])
@pytest.mark.parametrize("n", [1, 2, 97, 100, 111])  # 111 = 11 * 10 + 1 with B = 11
@pytest.mark.parametrize("n_x", [128, 1024])
def test_trig_progression_matches_the_dense_product(trig, n, n_x):
    rng = np.random.default_rng(n * n_x)
    x = rng.uniform(-1.0, 1.0, n_x)
    w = rng.standard_normal(n_x)
    u0, du = 17.3, 0.0371
    dense = _trig_sum(trig, u0 + du * np.arange(n), x, w)
    got = _trig_progression(trig, u0, du, n, x, w)
    assert got.shape == (n,)
    np.testing.assert_allclose(got, dense, rtol=0, atol=1e-13 * np.sum(np.abs(w)))


def test_trig_progression_keeps_its_tables_within_the_chunk(monkeypatch):
    # 1024 entries leave 8 rows of 128 nodes: B drops from 11 to 8 and the
    # 14 anchors run in two blocks
    monkeypatch.setattr(multiplier, "_CHUNK", 1024)
    rng = np.random.default_rng(5)
    x = rng.uniform(-1.0, 1.0, 128)
    w = rng.standard_normal(128)
    for trig in (np.cos, np.sin):
        dense = _trig_sum(trig, 3.1 + 0.25 * np.arange(111), x, w)
        got = _trig_progression(trig, 3.1, 0.25, 111, x, w)
        np.testing.assert_allclose(got, dense, rtol=0, atol=1e-13 * np.sum(np.abs(w)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_surface_multiplier_rejects_non_finite_arguments(bad):
    st = _SurfaceTransform(3)
    for batch in (np.array([bad, 1.0]), np.append(np.linspace(0.0, 2.0, 5000), bad)):
        for evaluate in (st.value, st.deriv):
            with pytest.raises(ValueError, match="finite"):
                evaluate(batch)


def test_non_integral_sphere_dimensions_are_rejected():
    for call in (
        lambda: surface_multiplier(3.5),
        lambda: dyadic_piece(3.5, 1),
        lambda: funk_hecke_kernel(1, 3.5, 0.5),
        lambda: decay_constants(3.5, 2),
        lambda: gegenbauer_rule(3.5, 16),
    ):
        with pytest.raises(ValueError, match="integer"):
            call()
    # integral floats are the same dimension
    np.testing.assert_array_equal(gegenbauer_rule(4.0, 16)[0], gegenbauer_rule(4, 16)[0])
    assert surface_multiplier(3.0)(0.25) == surface_multiplier(3)(0.25)


@pytest.mark.parametrize("bad", [-1, 1.5, math.inf, math.nan])
def test_dyadic_indices_are_rejected_unless_nonnegative_integers(bad):
    for call in (
        lambda: bump(bad),
        lambda: dyadic_piece(3, bad),
        lambda: tilde_piece(3, bad),
        lambda: funk_hecke_kernel(bad, 3, 0.5),
    ):
        with pytest.raises(ValueError, match="integer"):
            call()
    # integral floats are the same index
    assert bump(2.0).support == bump(2).support


def test_surface_multiplier_decay_envelope():
    # |m(s)| s^((d-1)/2) stays bounded (the classical oscillatory decay)
    m5 = surface_multiplier(5)
    s = np.linspace(1.0, 100.0, 1500)
    assert np.max(np.abs(m5(s)) * s**2) < 2.0
    assert np.max(np.abs(m5(s))) <= 1.0 + 1e-12


def test_bump_plateau_and_support():
    phi0 = bump(0)
    assert phi0(0.5) == 1.0
    assert phi0(3.0) == 0.0
    assert phi0(1.5) == pytest.approx(0.5)  # symmetry of the splice midpoint
    phi2 = bump(2)
    assert phi2(1.9) == 0.0 and phi2(8.1) == 0.0
    assert phi2(4.0) == pytest.approx(1.0)


def test_bump_partition_of_unity():
    s = np.linspace(0.0, 32.0, 3001)
    total = sum(bump(l)(s) for l in range(6))
    np.testing.assert_allclose(total, 1.0, atol=1e-12)


def test_dyadic_pieces_sum_to_multiplier():
    d = 3
    s = np.linspace(0.0, 8.0, 1200)
    total = sum(dyadic_piece(d, l)(s) for l in range(4))
    np.testing.assert_allclose(total, surface_multiplier(d)(s), atol=1e-10)


def test_dyadic_piece_vanishing_and_support():
    piece = dyadic_piece(3, 1)
    assert piece(0.0) == 0.0
    assert np.all(piece(np.array([4.1, 7.0, 100.0])) == 0.0)
    assert piece.sup_bound is not None
    s = np.linspace(1.0, 4.0, 500)
    assert np.max(np.abs(piece(s))) <= piece.sup_bound


def test_tilde_piece_matches_finite_differences():
    delta = 3e-5
    for d, l in ((3, 1), (4, 2)):
        piece, tilde = dyadic_piece(d, l), tilde_piece(d, l)
        assert tilde(0.0) == 0.0
        sp = np.array([0.8, 1.0, 1.2]) * 2.0**l
        fd = sp * (piece(sp + delta) - piece(sp - delta)) / (2 * delta)
        np.testing.assert_allclose(tilde(sp), fd, rtol=1e-6)
        assert np.all(tilde(np.array([2.0 ** (l + 1) + 0.1, 2.0 ** (l - 1) - 0.05])) == 0.0)


def test_apply_multiplier_identity_and_linearity(rng):
    spec = make_grid(2, 2.0, 16)
    f = GridFunction(spec, rng.standard_normal(spec.shape))
    g = GridFunction(spec, rng.standard_normal(spec.shape))
    out = apply_multiplier(f, bump(0), 1e-9)
    np.testing.assert_allclose(out.values, f.values, atol=1e-12)
    lin = apply_multiplier(GridFunction(spec, f.values + 2.0 * g.values), dyadic_piece(2, 1), 1.3)
    parts = apply_multiplier(f, dyadic_piece(2, 1), 1.3).values + 2.0 * apply_multiplier(
        g, dyadic_piece(2, 1), 1.3
    ).values
    np.testing.assert_allclose(lin.values, parts, atol=1e-12)


@pytest.mark.parametrize("r", [0.0, -1.0, math.inf, math.nan])
def test_apply_multiplier_rejects_bad_dilations(r):
    spec = make_grid(2, 2.0, 16)
    with pytest.raises(ValueError, match="dilation"):
        apply_multiplier(GridFunction(spec, np.ones(spec.shape)), bump(1), r)


def test_apply_multiplier_is_sphere_average():
    spec = make_grid(3, 4.0, 32)
    f = sample(spec, lambda p: np.exp(-np.sum(p**2, -1)))
    r = 1.5
    sph = apply_multiplier(f, surface_multiplier(3), r)
    c = spec.N // 2
    x0 = math.sqrt(3) * spec.h / 2
    t, w = gegenbauer_rule(3, 256)
    vals = np.exp(-(x0**2 + r**2 - 2 * x0 * r * t))
    oracle = float(vals @ w) / gegenbauer_weight_mass(3)
    assert abs(sph.values[c, c, c] - oracle) <= 1e-8 * oracle


def test_maximal_multiplier_basics(rng):
    spec = make_grid(2, 2.0, 16)
    f = GridFunction(spec, rng.standard_normal(spec.shape))
    radii = RadiiSet((0.5, 1.0, 2.0))
    ident = RadialProfile(fn=lambda s: np.ones_like(np.asarray(s, float)), support=(0.0, math.inf), sup_bound=1.0)
    M = maximal_multiplier(f, ident, radii)
    np.testing.assert_allclose(M.values, np.abs(f.values), atol=1e-12)
    c = -2.5
    Mc = maximal_multiplier(GridFunction(spec, c * f.values), ident, radii)
    np.testing.assert_allclose(Mc.values, abs(c) * M.values, atol=1e-12)


def test_spherical_maximal_at_bump_center():
    spec = make_grid(3, 2.0, 16)
    f = sample(spec, lambda p: np.exp(-4 * np.sum(p**2, -1)))
    radii = RadiiSet(tuple(np.geomspace(spec.h, 1.0, 8)))
    M = spherical_maximal(f, radii)
    c = spec.N // 2
    assert M.values[c, c, c] >= 0.8 * f.values[c, c, c]
    with pytest.raises(ValueError):
        spherical_maximal(GridFunction(make_grid(1, 1.0, 8), np.ones(8)), radii)


def test_prop1_majorant_domination():
    # the multiplier maximal function is controlled by ||Omega||_1 times the
    # Hardy-Littlewood maximal function, Omega(s) the largest |kernel| over
    # the nodes with |x| >= s (the kernel's nonincreasing radial majorant)
    spec = make_grid(2, 4.0, 48)
    prof = bump(0)
    kern = kernel(prof, spec)
    node_r = np.sqrt(np.sum(node_coordinates(spec) ** 2, axis=-1)).reshape(-1)
    order = np.argsort(node_r)
    tail_max = np.maximum.accumulate(np.abs(kern.values).reshape(-1)[order][::-1])[::-1]
    r_unique, first = np.unique(node_r[order], return_index=True)
    # the upper Riemann sum of Omega over the annuli between node radii
    mass = float(np.sum(tail_max[first] * np.pi * np.diff(r_unique**2, prepend=0.0)))
    f = sample(spec, lambda p: np.exp(-3 * np.sum((p - 0.4) ** 2, -1)))
    radii = RadiiSet(tuple(np.geomspace(spec.h, 2.0, 10)))
    dense = default_radii(spec, 24)
    Mw = maximal_multiplier(f, prof, radii)
    Mhl = hl_maximal(f, dense)
    assert np.all(Mw.values <= mass * Mhl.values * 1.05 + 1e-8)


def test_funk_hecke_refuses_an_unverified_rule_before_tabulating():
    # the radial rule cannot verify for d >= 13; the cosine table's length is
    # computed, not allocated, so the refusal holds no table-sized array
    with pytest.raises(RuntimeError, match="did not verify"):
        funk_hecke_kernel(1, 63, [0.5])
    tracemalloc.start()
    try:
        with pytest.raises(RuntimeError, match="did not verify"):
            funk_hecke_kernel(1, 34, [0.5])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_kernel_guards_and_phi0_mass():
    spec = make_grid(2, 6.0, 96)
    k0 = kernel(bump(0), spec)
    assert k0.values.dtype == np.float64
    assert abs(float(k0.values.sum()) * spec.cell_volume - 1.0) <= 1e-8
    with pytest.raises(ValueError):
        kernel(surface_multiplier(2), spec)  # unbounded support
    with pytest.raises(ValueError):
        kernel(dyadic_piece(2, 4), spec)  # support 32 exceeds extent 4


# non-dyadic sizes; N = 42 gives an odd DCT length N/2 = 21
@pytest.mark.parametrize("N", [32, 40, 48, 42])
def test_kernel_matches_generic_inverse_transform(N):
    # the octant DCT-III agrees with the full inverse transform
    spec = make_grid(2, N / 16.0, N)  # extent 4 holds the support of the piece
    prof = dyadic_piece(2, 1)
    fast = kernel(prof, spec)
    slow = inverse_transform(spec, prof(frequency_radii(spec))).real
    assert np.abs(fast.values - slow).max() <= 1e-12 * np.abs(slow).max()


@pytest.mark.parametrize("d,N,L", [(1, 40, 2.5), (2, 40, 2.5), (3, 24, 1.7)])
def test_kernel_with_weight_at_the_extent_matches_generic_inverse_transform(d, N, L):
    # a profile nonzero at s = freq_extent weighs the unpaired -N/2 bins,
    # which make the generic inverse transform complex; kernel() is its real part
    spec = make_grid(d, L, N)
    ext = spec.freq_extent
    prof = RadialProfile(fn=lambda s: np.where(s <= ext, np.cos(s), 0.0), support=(0.0, ext))
    slow = inverse_transform(spec, prof(frequency_radii(spec)))
    assert np.abs(slow.imag).max() > 1e-3  # the -N/2 bins break the symmetry
    assert np.abs(kernel(prof, spec).values - slow.real).max() <= 1e-12 * np.abs(slow.real).max()


# N/2 even and odd in every dimension
@pytest.mark.parametrize("d,N", [(1, 40), (1, 42), (2, 40), (2, 42), (3, 24), (3, 26), (4, 12), (4, 14)])
def test_kernel_is_exactly_even_in_every_axis(d, N):
    spec = make_grid(d, N / 16.0, N)
    ext = spec.freq_extent
    prof = RadialProfile(fn=lambda s: np.where(s <= ext, np.cos(s), 0.0), support=(0.0, ext))
    values = kernel(prof, spec).values
    for ax in range(d):
        assert np.array_equal(values, np.flip(values, ax))


def test_kernel_allocates_one_full_size_array():
    # the output plus one octant is 1 + 2^-d of the output's bytes; a second
    # full-size array (a padded or reflected copy) lifts the peak past 1.2
    prof = dyadic_piece(3, 1)
    spec = make_grid(3, 4.0, 128)
    tracemalloc.start()
    try:
        values = kernel(prof, spec).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * values.nbytes


def _check_shells(spec, axes, L, shape):
    radii, index = _shells(spec, axes)
    # |xi| node by node: the oracle for the shell radii
    want = np.sqrt(sum(g**2 for g in np.meshgrid(*(a * spec.freq_step for a in axes), indexing="ij", sparse=True)))
    assert index.dtype == np.int32 and index.shape == shape
    if L == 4.0:
        # freq_step = 1/8: every square and sum is exact on both routes
        assert np.array_equal(radii[index], want)
    else:
        # the node route rounds each of its d squares and their sum
        np.testing.assert_array_max_ulp(radii[index], want, maxulp=2)
    assert np.all(np.diff(radii) > 0)
    # every shell holds a node, so a multiplier vanishing on the shells
    # vanishes on the grid
    assert np.bincount(index.reshape(-1)).min() > 0


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("N", [8, 9, 16, 17])
@pytest.mark.parametrize("L", [4.0, 3.0])
def test_rfft_shells_rebuild_the_node_radii(d, N, L):
    # GridSpec takes even N only; the layout itself is defined for odd N too
    spec = SimpleNamespace(d=d, N=N, freq_step=1.0 / (2.0 * L))
    # FFT order on every axis, only the nonnegative half of the last one
    k = np.fft.ifftshift(np.arange(N) - N // 2)
    _check_shells(spec, [k] * (d - 1) + [k[: N // 2 + 1]], L, (N,) * (d - 1) + (N // 2 + 1,))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("N", [8, 9, 16, 17])
@pytest.mark.parametrize("L", [4.0, 3.0])
def test_octant_shells_rebuild_the_node_radii(d, N, L):
    # kernel()'s layout: the nonnegative frequencies k < N/2 on every axis
    spec = SimpleNamespace(d=d, N=N, freq_step=1.0 / (2.0 * L))
    _check_shells(spec, [np.arange(N // 2)] * d, L, (N // 2,) * d)


def _plancherel_pieces(f, profile, ts):
    # the reference route: forward transform, multiply, inverse transform; the
    # profile is evaluated once per distinct float among the node radii
    fhat = forward_transform(f)
    freq, node = np.unique(frequency_radii(f.spec), return_inverse=True)
    node = node.reshape(fhat.shape)
    return [inverse_transform(f.spec, fhat * profile(t * freq)[node]).real for t in ts]


def test_fourier_operators_evaluate_profiles_per_shell(rng):
    # the per-node Plancherel route is the oracle; both routes evaluate m by
    # the same direct quadrature, on shell batches and on node batches
    spec = make_grid(3, 3.0, 64)
    f = GridFunction(spec, rng.standard_normal(spec.shape))
    prof = dyadic_piece(3, 1)
    sizes = []

    def fn(s):
        sizes.append(np.size(s))
        return prof.fn(s)

    counted = RadialProfile(fn=fn, support=prof.support, sup_bound=prof.sup_bound)

    def close(got, want):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    radii = RadiiSet((0.4, 0.9, 1.7, 3.1))
    close(maximal_multiplier(f, counted, radii).values, np.max(np.abs(_plancherel_pieces(f, prof, radii)), axis=0))
    tg = default_tgrid(prof, spec, n=16)
    sq = sum(w * p**2 for w, p in zip(tg.weights, _plancherel_pieces(f, prof, tg.ts)))
    close(square_function(f, counted, tg).values, np.sqrt(sq))
    close(kernel(counted, spec).values, inverse_transform(spec, prof(frequency_radii(spec))).real)
    # one point per shell at most; a per-node evaluation passes 135,168
    k = np.fft.ifftshift(np.arange(spec.N) - spec.N // 2)
    assert 0 < max(sizes) <= _shells(spec, [k, k, k[: spec.N // 2 + 1]])[0].size


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("N", [32, 48])
def test_fourier_operators_match_plancherel_reference(rng, d, N):
    spec = make_grid(d, N / 16.0, N)
    f = GridFunction(spec, rng.standard_normal(spec.shape))
    prof = bump(1)
    radii = RadiiSet((0.3, 0.7, 1.5, 40.0))  # the last multiplier vanishes on the grid
    tg = default_tgrid(prof, spec, n=16)

    def close(got, want):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    pieces = _plancherel_pieces(f, prof, radii)
    assert not np.any(pieces[-1])
    close(maximal_multiplier(f, prof, radii).values, np.max(np.abs(pieces), axis=0))
    close(apply_multiplier(f, prof, 0.7).values, pieces[1])
    sq = sum(w * p**2 for w, p in zip(tg.weights, _plancherel_pieces(f, prof, tg.ts)))
    close(square_function(f, prof, tg).values, np.sqrt(sq))
    assert np.all(apply_multiplier(f, prof, 40.0).values == 0.0)


def test_fourier_operators_reject_complex_input(rng):
    # complex data are rejected when their GridFunction is built; outputs skip
    # the constructor's checks, so they are checked to be real and finite here
    spec = make_grid(2, 2.0, 32)  # extent 4 holds the support of bump(1)
    with pytest.raises(ValueError, match="real"):
        GridFunction(spec, rng.standard_normal(spec.shape) + 1j)
    f = GridFunction(spec, rng.standard_normal(spec.shape))
    prof = bump(1)
    radii = RadiiSet((0.5, 1.0))
    for g in (
        apply_multiplier(f, prof, 0.5),
        maximal_multiplier(f, prof, radii),
        spherical_maximal(f, radii),
        square_function(f, prof, default_tgrid(prof, spec)),
        kernel(prof, spec),
    ):
        assert g.values.dtype == np.float64 and np.all(np.isfinite(g.values))


def test_kernel_dilation_rule():
    # (profile(r .))^v is the L^1-normalized dilate of the kernel
    d, r = 3, 2.0
    spec = make_grid(3, 6.0, 48)
    prof = dyadic_piece(d, 1)
    dilated = RadialProfile(
        fn=lambda s: prof.fn(np.asarray(s, float) * r),
        support=(prof.support[0] / r, prof.support[1] / r),
        sup_bound=prof.sup_bound,
    )
    kd = kernel(dilated, spec)
    probes = np.array([0.6, 1.1, 2.3])
    direct = _zonal_inverse(dilated, d, probes, tol=1e-10)
    scaled = _zonal_inverse(prof, d, probes / r, tol=1e-10) / r**d
    np.testing.assert_allclose(direct, scaled, atol=1e-9)
    c = spec.N // 2
    ray = kd.values[:, c, c]
    x1 = spec.axis_nodes()
    sel = (x1 > 0.4) & (x1 < 2.5)
    rad = np.sqrt(x1[sel] ** 2 + 2 * (spec.h / 2) ** 2)
    np.testing.assert_allclose(ray[sel], _zonal_inverse(dilated, d, rad, tol=1e-10), atol=1e-5)


@pytest.mark.parametrize("l, d", [(1, 3), (4, 5)])
def test_cosine_table_spline_matches_scipy(l, d):
    from scipy.interpolate import CubicSpline

    table = multiplier._CosineTransform(dyadic_piece(d, l), d, 8.0, abs_tol=1e-6 * 2.0**l)
    y = table.coef[-1]
    grid = np.arange(y.size) * table.du
    np.testing.assert_array_equal(np.diff(grid), table.du)  # uniform in floating point
    oracle = CubicSpline(grid, y)
    rng = np.random.default_rng(7)
    end = grid[-1]
    # dense points of both signs, the last 4 grid steps, and past the grid's end
    u = np.concatenate([rng.uniform(-end, end, 20000), end - 4 * table.du * rng.random(2000), end + table.du * rng.random(50)])
    np.testing.assert_allclose(table(u), oracle(np.abs(u)), rtol=0, atol=1e-14 * np.abs(y).max())


def test_funk_hecke_against_zonal_route():
    # chord-integral route vs direct radial transform of the full piece
    probes = np.array([0.0, 0.5, 1.0, 2.0])
    for l in (1, 2):
        fh = funk_hecke_kernel(l, 3, probes, tol=1e-10)
        direct = _zonal_inverse(dyadic_piece(3, l), 3, probes, tol=1e-10)
        np.testing.assert_allclose(fh, direct, atol=1e-7)
    assert isinstance(funk_hecke_kernel(1, 3, 0.7), float)
    with pytest.raises(ValueError):
        funk_hecke_kernel(1, 2, 0.5)


def test_funk_hecke_validates_x_norm():
    empty = funk_hecke_kernel(1, 3, [])
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)
    for bad in ([np.nan], [np.inf], [0.5, -0.1], -1.0):
        with pytest.raises(ValueError, match="x_norm"):
            funk_hecke_kernel(1, 3, bad)


def test_funk_hecke_evaluates_any_shape_element_wise():
    xs = np.array([[0.5, 1.0], [0.0, 2.0]])
    grid = funk_hecke_kernel(1, 3, xs, tol=1e-10)
    assert grid.shape == (2, 2)
    np.testing.assert_allclose(grid.reshape(-1), funk_hecke_kernel(1, 3, xs.reshape(-1), tol=1e-10), rtol=0, atol=1e-12)
    assert funk_hecke_kernel(1, 3, np.empty((0, 3))).shape == (0, 3)


def test_funk_hecke_at_origin_is_bump_kernel_on_sphere():
    # at x = 0 every chord has length 1, so the value is the bump kernel at 1
    val = funk_hecke_kernel(2, 3, 0.0, tol=1e-10)
    phi_kernel_at_1 = _zonal_inverse(bump(2), 3, np.array([1.0]), tol=1e-11)[0]
    assert abs(val - phi_kernel_at_1) <= 1e-8 * max(1.0, abs(phi_kernel_at_1))


def test_funk_hecke_decay_envelope():
    xs = np.linspace(0.0, 8.0, 33)
    vals = funk_hecke_kernel(1, 3, xs, tol=1e-8)
    env = np.abs(vals) * (1 + xs) ** 4 / 2.0
    assert np.max(env) < 50.0


def test_decay_constants_small():
    rows = decay_constants(3, 2)
    assert [r.l for r in rows] == [1, 2]
    assert all(r.c1 > 0 and r.c2 > 0 and r.c3 > 0 for r in rows)
    with pytest.raises(ValueError):
        decay_constants(2, 6)
    with pytest.raises(ValueError):
        decay_constants(3, 1)
    with pytest.raises(ValueError, match="integer"):
        decay_constants(3, 2.5)


def test_ptw_partial_sums_dominate():
    # the spherical maximal function sits below the summed dyadic maximal
    # pieces, with a tail defect shrinking as more pieces are added
    spec = make_grid(2, 2.0, 128)
    f = sample(spec, lambda p: np.exp(-4 * np.sum(p**2, -1)))
    radii = RadiiSet(tuple(np.geomspace(spec.h, 1.5, 10)))
    MS = spherical_maximal(f, radii).values
    total = np.zeros(spec.shape)
    defects = []
    for l in range(5):
        total += maximal_multiplier(f, dyadic_piece(2, l), radii).values
        defects.append(float(np.max(MS - total)))
    assert defects[-1] <= 0.02
    assert defects[-1] <= defects[0] + 1e-12
    assert max(0.0, defects[-1]) < max(0.02, defects[0])
