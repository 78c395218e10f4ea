import math
import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

from maxop import maximal, rotations
from maxop.checks import _oracle_descent, _oracle_shift_sum
from maxop.grid import GridFunction, PreconditionError, VectorField, make_grid, sample
from maxop.maximal import RadiiSet, hl_maximal
from maxop.quadrature import radial_power_rule
from maxop.rotations import (
    DescentSplit,
    RotationMatrix,
    _shift_max,
    descent_maximal,
    dimension_split,
    haar_rotation,
    lemma2_domination,
    rotation_average_check,
    sphere_identity_check,
)
from maxop.scan import OPERATORS, ScanConfig, _field


def test_rotation_matrix_validation(rng):
    with pytest.raises(ValueError):
        RotationMatrix(2, np.array([[1.0, 0.1], [0.0, 1.0]]))
    theta = haar_rotation(5, 123)
    assert np.max(np.abs(theta.matrix.T @ theta.matrix - np.eye(5))) <= 1e-10
    assert abs(abs(np.linalg.det(theta.matrix)) - 1.0) <= 1e-10


def test_haar_deterministic_and_balanced():
    a = haar_rotation(3, 7).matrix
    b = haar_rotation(3, 7).matrix
    np.testing.assert_array_equal(a, b)
    signs = [float(haar_rotation(1, seed).matrix[0, 0]) for seed in range(10000)]
    frac = np.mean([s > 0 for s in signs])
    assert 0.48 <= frac <= 0.52
    assert set(np.sign(signs)) == {-1.0, 1.0}


def test_haar_first_column_uniform():
    d, n = 4, 10000
    coords = np.array([haar_rotation(d, seed).matrix[0, 0] for seed in range(n)])
    # first coordinate of a uniform point on S^(d-1): mean 0, var 1/d
    se = math.sqrt(1.0 / d / n)
    assert abs(coords.mean()) <= 3 * se
    assert abs(coords.var() - 1.0 / d) <= 5 * math.sqrt(2.0 / n)


def test_descent_split_validation():
    with pytest.raises(ValueError):
        DescentSplit(4, 2)
    with pytest.raises(ValueError):
        DescentSplit(3, 4)
    assert DescentSplit(5, 3).k == 2


def test_descent_identity_degeneration(rng):
    # theta = identity, d' = d, k = 0: the descent operator is the ball
    # average up to quadrature + interpolation error
    spec = make_grid(3, 2.0, 12)
    f = sample(spec, lambda p: np.exp(-2 * np.sum(p**2, -1)))
    radii = RadiiSet((0.4, 0.7))
    ident = RotationMatrix(3, np.eye(3))
    D = descent_maximal(f, ident, DescentSplit(3, 3), radii, n_radial=24, n_sphere=256, seed=5)
    M = hl_maximal(f, radii)
    ax = spec.axis_nodes()
    interior = np.abs(np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), -1)).max(-1) <= 1.2
    assert np.max(np.abs(D.values - M.values)[interior]) <= 2.5 * spec.h


def test_descent_rotation_invariance_on_radial_input():
    # on a radial function a rotation reparametrizes the quadrature sphere
    # only, so two different rotations agree up to sphere-MC error
    spec = make_grid(3, 2.0, 12)
    f = sample(spec, lambda p: np.exp(-3 * np.sum(p**2, -1)))
    radii = RadiiSet((0.3, 0.6))
    split = DescentSplit(3, 3)
    a = descent_maximal(f, haar_rotation(3, 1), split, radii, n_radial=12, n_sphere=96, seed=2)
    b = descent_maximal(f, haar_rotation(3, 9), split, radii, n_radial=12, n_sphere=96, seed=2)
    ax = spec.axis_nodes()
    interior = np.abs(np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), -1)).max(-1) <= 1.2
    assert np.max(np.abs(a.values - b.values)[interior]) <= 0.05


def test_descent_matches_shift_oracle_on_the_benchmark_config():
    # the DESCENT scan of the lattice benchmark: 16^3 on [-4, 4]^3, one
    # random_bumps member, the scan's 8 radii, rotation and seed
    cfg = ScanConfig(operator="DESCENT", d_range=(3,), grid=(4.0, 16), n_members=1,
                     family="random_bumps", seed=1)
    F = _field(cfg, OPERATORS["DESCENT"], 3)
    d_prime = dimension_split(2.0, 2.0)
    G, _ = OPERATORS["DESCENT"].apply(cfg, F, d_prime)
    spec = F.spec
    radii = np.geomspace(spec.h, spec.L / 2.0, 8)
    want = _oracle_descent(F.members[0], haar_rotation(3, 1), DescentSplit(3, d_prime), radii, seed=1)
    assert np.abs(G.members[0].values - want).max() <= 1e-12 * np.abs(want).max()


def test_descent_matches_shift_oracle_at_d4_with_two_members(rng):
    spec = make_grid(4, 2.0, 8)
    F = VectorField(tuple(GridFunction(spec, rng.standard_normal(spec.shape)) for _ in range(2)))
    args = (haar_rotation(4, 3), DescentSplit(4, 3), (spec.h, 0.6, 1.1))
    G = descent_maximal(F, *args, n_radial=6, n_sphere=16, seed=4)
    for g, f in zip(G, F):
        want = _oracle_descent(f, *args, n_radial=6, n_sphere=16, seed=4)
        assert np.abs(g.values - want).max() <= 1e-12 * np.abs(want).max()


def test_descent_reads_f_at_x_plus_the_sample_offset(rng):
    # one radial node and one sphere point: descent is the radial weight
    # times |f| interpolated (order 1, zero off the grid) at x + r rho theta
    # sigma, drawn as descent_maximal draws it; the oracle above copies
    # descent's sign, so only this test pins the point
    spec = make_grid(3, 2.0, 8)
    f = GridFunction(spec, rng.standard_normal(spec.shape))
    rotation, split, r, seed = haar_rotation(3, 5), DescentSplit(3, 3), 0.9, 7
    got = descent_maximal(f, rotation, split, (r,), n_radial=1, n_sphere=1, seed=seed).values
    sigma = rotations._sphere_points(np.random.default_rng(np.random.SeedSequence(seed)), 1, split.d_prime)
    rho, rho_w = radial_power_rule(1, split.k + split.d_prime)
    offset = r * rho[0] * (sigma @ rotation.matrix[:, : split.d_prime].T)[0] / spec.h
    nodes = np.indices(spec.shape).reshape(spec.d, -1)

    def at(sign):
        vals = ndimage.map_coordinates(
            np.abs(f.values), nodes + sign * offset[:, None], order=1, mode="constant", cval=0.0, prefilter=False
        )
        return rho_w[0] * vals.reshape(spec.shape)

    assert np.abs(got - at(+1)).max() <= 1e-12 * np.abs(got).max()
    assert np.abs(got - at(-1)).max() > 0.1 * np.abs(got).max()


def test_descent_member_batches_do_not_change_values(rng, monkeypatch):
    spec = make_grid(3, 2.0, 8)
    F = VectorField(tuple(GridFunction(spec, rng.standard_normal(spec.shape)) for _ in range(3)))
    args = (haar_rotation(3, 2), DescentSplit(3, 3), (0.3, 0.6, 0.9))
    whole = descent_maximal(F, *args, n_radial=4, n_sphere=8)
    monkeypatch.setattr(rotations, "_DESCENT_BATCH_BYTES", 1)  # one member per batch
    for g, w in zip(descent_maximal(F, *args, n_radial=4, n_sphere=8), whole):
        assert np.array_equal(g.values, w.values)


def test_descent_batches_share_one_accumulator(rng, monkeypatch):
    # one member per batch: every batch reuses the accumulator of the first,
    # so three members peak as one does; a batch that allocates its own while
    # the last one's is still alive reads about 1.76
    a = rng.uniform(0.5, 1.5, (3, 16, 16, 16))
    shifts = [rng.uniform(-3.0, 3.0, (8, 3)) for _ in range(16)]
    coeff = np.full(8, 1.0 / 8.0)
    whole = _shift_max(a, shifts, coeff)
    monkeypatch.setattr(rotations, "_DESCENT_BATCH_BYTES", 1)
    peaks = []
    for members in (a[:1], a):
        tracemalloc.start()
        try:
            got = _shift_max(members, shifts, coeff)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert np.array_equal(got, whole)
    assert peaks[1] <= 1.25 * peaks[0], peaks[1] / peaks[0]


def test_shift_sums_match_ndimage_at_the_edges(rng):
    a = rng.uniform(0.5, 1.5, (6, 7, 5))
    cases = {
        "half cell": (0.5, -0.5, 0.5),  # node 0 of axis 0 samples -1/2: reads 0
        "integer axis": (2.0, 0.3, -0.4),
        "negative integer axis": (0.7, -3.0, 0.25),
        "identity": (0.0, 0.0, 0.0),
        "past the grid": (7.5, 0.2, 0.1),
        "past the grid, integer": (-6.0, 0.0, 1.5),
    }
    got = [_shift_max(a[None], [np.array([s])], np.ones(1))[0] for s in cases.values()]
    for g, (name, s) in zip(got, cases.items()):
        want = _oracle_shift_sum(a, [s], [1.0])
        assert np.abs(g - want).max() <= 1e-12 * a.max(), name
    half, identity, past, past_int = got[0], got[3], got[4], got[5]
    assert np.abs(half[0]).max() <= 1e-14 and np.abs(half[1:, :-1, 1:]).min() > 0.4
    assert np.abs(identity - a).max() <= 1e-14
    assert np.abs(past).max() <= 1e-14 and np.abs(past_int).max() <= 1e-14
    # one group whose rows zero different boundary nodes at each corner
    pair = [cases["integer axis"], cases["half cell"]]
    g = _shift_max(a[None], [np.array(pair)], np.array([0.25, 0.75]))[0]
    assert np.abs(g - _oracle_shift_sum(a, pair, [0.25, 0.75])).max() <= 1e-12 * a.max()


def test_descent_rejects_radii_beyond_the_box_before_any_work(monkeypatch):
    # at r = 1e30 the int64 cast of the shifts overflows into bogus taps
    spec = make_grid(3, 2.0, 8)
    f = sample(spec, lambda p: np.exp(-np.sum(p**2, -1)))

    def work(*args, **kwargs):
        raise AssertionError("work began before the radii were checked")

    monkeypatch.setattr(rotations, "_shift_max", work)
    with pytest.raises(ValueError, match="max radius"):
        descent_maximal(f, haar_rotation(3, 0), DescentSplit(3, 3), (0.5, 1e30))


@pytest.mark.parametrize("n_radial,n_sphere", [(16, 0), (0, 64), (16, -2), (16, 2.5)])
def test_descent_rejects_bad_sample_counts(n_radial, n_sphere):
    spec = make_grid(3, 2.0, 8)
    f = GridFunction(spec, np.ones(spec.shape))
    with pytest.raises(ValueError, match="n_radial|n_sphere"):
        descent_maximal(f, haar_rotation(3, 1), DescentSplit(3, 3), (0.5,), n_radial=n_radial, n_sphere=n_sphere)


def test_integral_float_counts_are_integers(rng):
    # every count takes an integral float as the same int
    spec = make_grid(3, 2.0, 8)
    f = GridFunction(spec, rng.standard_normal(spec.shape))
    args = (haar_rotation(3, 1), DescentSplit(3, 3), (0.5, 0.9))
    want = descent_maximal(f, *args, n_radial=4, n_sphere=8)
    assert np.array_equal(descent_maximal(f, *args, n_radial=4.0, n_sphere=8.0).values, want.values)
    assert np.array_equal(haar_rotation(3.0, 1).matrix, args[0].matrix)
    assert DescentSplit(4.0, 3.0) == DescentSplit(4, 3) and type(DescentSplit(4.0, 3.0).d_prime) is int
    for bad in (lambda: haar_rotation(2.5, 0), lambda: DescentSplit(3.5, 3), lambda: DescentSplit(4, 3.5)):
        with pytest.raises(ValueError, match="integer"):
            bad()
    # the d' range stays a declared precondition
    with pytest.raises(PreconditionError):
        DescentSplit(4, 2)


@pytest.mark.parametrize("n_mc", [0, 1, 2.5, math.inf])
def test_monte_carlo_checks_need_two_samples(n_mc):
    # one sample gives an infinite or undefined error bar, which no gap can exceed
    spec = make_grid(3, 2.0, 8)
    one = GridFunction(spec, np.ones(spec.shape))
    split = DescentSplit(3, 3)
    for call in (
        lambda: rotation_average_check(one, split, r=0.5, x_index=(4, 4, 4), n_mc=n_mc),
        lambda: sphere_identity_check(lambda y: y[:, 0] ** 2, split, n_mc=n_mc),
        lambda: lemma2_domination(one, split, (0.5,), n_mc=n_mc, n_radial=4, n_sphere=8),
    ):
        with pytest.raises(ValueError, match="n_mc"):
            call()


@pytest.mark.parametrize("seed", [2.5, -1, math.inf, math.nan])
def test_seeds_follow_the_integer_rule(rng, seed):
    # a seed is an integer >= 0 like every count, and an integral float is
    # the same seed as its int
    spec = make_grid(3, 2.0, 8)
    f = GridFunction(spec, rng.standard_normal(spec.shape))
    split, ident = DescentSplit(3, 3), RotationMatrix(3, np.eye(3))
    calls = (
        lambda s: haar_rotation(3, s).matrix,
        lambda s: descent_maximal(f, ident, split, (0.5,), n_radial=4, n_sphere=8, seed=s).values,
        lambda s: np.array(rotation_average_check(f, split, r=0.5, x_index=(4, 4, 4), n_mc=4, seed=s)),
        lambda s: np.array(sphere_identity_check(lambda y: y[:, 0] ** 2, split, n_mc=4, seed=s)),
        lambda s: np.stack(
            [g.values for g in lemma2_domination(f, split, (0.5,), n_mc=2, seed=s, n_radial=4, n_sphere=8)]
        ),
    )
    for call in calls:
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            call(seed)
        np.testing.assert_array_equal(call(3.0), call(3))


def test_rotation_average_constant_exact():
    spec = make_grid(3, 2.0, 12)
    one = GridFunction(spec, np.ones(spec.shape))
    res = rotation_average_check(one, DescentSplit(3, 3), r=0.5, x_index=(6, 6, 6), n_mc=64, seed=1)
    assert res.lhs == pytest.approx(1.0, abs=1e-12)
    assert res.rhs == pytest.approx(1.0, abs=1e-12)


def test_rotation_average_radial(rng):
    spec = make_grid(3, 2.0, 16)
    f = sample(spec, lambda p: np.exp(-np.sum(p**2, -1)))
    res = rotation_average_check(f, DescentSplit(3, 3), r=0.8, x_index=(8, 8, 8), n_mc=256, seed=3)
    assert abs(res.lhs - res.rhs) <= 3 * res.stderr + 2 * spec.h


def test_rotation_average_ball_may_touch_the_boundary(rng):
    # r = 0.7 on h = 1/3 holds |delta|^2 <= 4: reach 2, which from node 2
    # reaches node 0 and from node 9 reaches node N - 1 = 11
    spec = make_grid(3, 2.0, 12)
    f = GridFunction(spec, rng.standard_normal(spec.shape))
    index = (2, 6, 9)
    box = np.stack(np.meshgrid(*[np.arange(-2, 3)] * 3, indexing="ij"), -1).reshape(-1, 3)
    ball = box[np.sum(box**2, axis=1) <= 4]
    assert len(ball) == 33
    want = np.abs(f.values[tuple((np.array(index) + ball).T)]).mean()
    res = rotation_average_check(f, DescentSplit(3, 3), r=0.7, x_index=index, n_mc=4, seed=1)
    assert abs(res.lhs - want) <= 1e-14 * want


def test_rotation_average_stencil_guard():
    spec = make_grid(3, 2.0, 12)
    one = GridFunction(spec, np.ones(spec.shape))
    with pytest.raises(ValueError):
        rotation_average_check(one, DescentSplit(3, 3), r=1.5, x_index=(0, 6, 6), n_mc=8, seed=1)


@pytest.mark.parametrize("r", [-0.7, 0.0, math.inf, math.nan])
def test_rotation_average_applies_the_radius_rule(monkeypatch, r):
    # a negative radius would average the ball of radius |r|, and r = 0 the
    # center alone, whose zero error bar no gap can exceed
    spec = make_grid(3, 2.0, 12)
    one = GridFunction(spec, np.ones(spec.shape))

    def work(*args, **kwargs):
        raise AssertionError("work began before the radius was checked")

    monkeypatch.setattr(rotations, "_ball_average_at_node", work)
    with pytest.raises(ValueError, match="radii must be"):
        rotation_average_check(one, DescentSplit(3, 3), r=r, x_index=(6, 6, 6), n_mc=4, seed=1)


@pytest.mark.parametrize("index", [(8, 8), (8, 8, 8, 8), (8.5, 8, 8)])
def test_rotation_average_needs_one_integer_index_per_axis(index):
    spec = make_grid(3, 2.0, 16)
    one = GridFunction(spec, np.ones(spec.shape))
    with pytest.raises(ValueError, match="x_index"):
        rotation_average_check(one, DescentSplit(3, 3), r=0.5, x_index=index, n_mc=4, seed=1)


def test_sphere_identity_examples():
    split = DescentSplit(4, 3)
    res = sphere_identity_check(lambda y: np.ones(y.shape[0]), split, n_mc=512, seed=2)
    assert res.lhs == pytest.approx(1.0) and res.rhs == pytest.approx(1.0)
    res = sphere_identity_check(lambda y: y[:, 0] ** 2, split, n_mc=8192, seed=2)
    assert abs(res.lhs - 0.25) <= 3 * res.stderr + 1e-3
    assert abs(res.lhs - res.rhs) <= 3 * res.stderr
    res = sphere_identity_check(lambda y: y[:, 1] ** 3, split, n_mc=8192, seed=4)
    assert abs(res.lhs) <= 4 * res.stderr + 1e-3
    assert abs(res.rhs) <= 4 * res.stderr + 1e-3


def test_lemma2_domination_and_seeding():
    spec = make_grid(3, 2.0, 10)
    f = sample(spec, lambda p: np.exp(-2 * np.sum(p**2, -1)))
    radii = RadiiSet((spec.h, 0.6))
    a = lemma2_domination(f, DescentSplit(3, 3), radii, n_mc=8, seed=5, n_radial=6, n_sphere=12)
    b = lemma2_domination(f, DescentSplit(3, 3), radii, n_mc=8, seed=5, n_radial=6, n_sphere=12)
    np.testing.assert_array_equal(a.average.values, b.average.values)
    M = hl_maximal(f, radii)
    ax = spec.axis_nodes()
    interior = np.abs(np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), -1)).max(-1) <= spec.L - 0.7
    ok = M.values <= a.average.values + 3 * a.stderr.values + 2 * spec.h
    assert ok[interior].mean() >= 0.95


@pytest.mark.parametrize(
    "p,q,expect",
    [(2.0, 2.0, 3), (3.0, 2.0, 4), (1.25, 1.25, 6), (5.0, 1.5, 6), (2.5, 2.5, 3)],
)
def test_dimension_split_values(p, q, expect):
    d = dimension_split(p, q)
    assert d == expect
    assert d / (d - 1) < min(p, q) and max(p, q) < d


def test_dimension_split_bracket_property(rng):
    for _ in range(200):
        p = float(np.exp(rng.uniform(np.log(1.05), np.log(40.0))))
        q = float(np.exp(rng.uniform(np.log(1.05), np.log(40.0))))
        d = dimension_split(p, q)
        assert d / (d - 1) < min(p, q) < max(p, q) < d
