import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxop import grushin
from maxop.grid import GridFunction, VectorField, make_grid, sample
from maxop.grushin import (
    GrushinPoint,
    cc_domination_note,
    grushin_maximal,
    iterated_maximal,
    koranyi_ball_volume,
    koranyi_distance,
    min_node_gap,
)
from maxop.maximal import RadiiSet

GRID = make_grid(2, 2.0, 8)  # one x-axis, then the u-axis


def test_distance_identities():
    origin = GrushinPoint((0.0, 0.0), 0.0)
    assert koranyi_distance(origin, origin) == 0.0
    assert koranyi_distance(origin, GrushinPoint((0.3, 0.4), 0.0)) == pytest.approx(0.5, rel=1e-13)
    assert koranyi_distance(origin, GrushinPoint((0.0, 0.0), 0.18)) == pytest.approx(
        math.sqrt(0.36), rel=1e-13
    )
    with pytest.raises(ValueError):
        koranyi_distance(origin, GrushinPoint((1.0,), 0.0))


coords = st.floats(-3.0, 3.0, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(st.tuples(coords, coords), st.tuples(coords, coords), coords, coords)
def test_distance_symmetry_and_positivity(xa, xb, ua, ub):
    a, b = GrushinPoint(xa, ua), GrushinPoint(xb, ub)
    dab, dba = koranyi_distance(a, b), koranyi_distance(b, a)
    assert dab == dba
    assert dab >= 0.0
    # strictly positive once the points are separated beyond float noise
    if max(abs(xa[0] - xb[0]), abs(xa[1] - xb[1]), abs(ua - ub)) > 1e-6:
        assert dab > 0.0


def test_ball_volume_monotone_and_symmetric():
    grid = make_grid(2, 3.0, 48)
    c = GrushinPoint((0.0,), 0.0)
    vols = [koranyi_ball_volume(c, r, grid) for r in (0.5, 0.9, 1.3, 1.7)]
    assert all(b >= a for a, b in zip(vols, vols[1:]))
    up = GrushinPoint((0.0,), 0.4)
    down = GrushinPoint((0.0,), -0.4)
    assert koranyi_ball_volume(up, 1.0, grid) == koranyi_ball_volume(down, 1.0, grid)


def test_ball_volume_exit_guard():
    grid = make_grid(2, 1.0, 16)
    with pytest.raises(ValueError):
        koranyi_ball_volume(GrushinPoint((0.9,), 0.0), 0.8, grid)


@pytest.mark.parametrize("r", [0.0, math.inf, math.nan])
def test_ball_volume_rejects_bad_radii(r):
    with pytest.raises(ValueError, match="radius"):
        koranyi_ball_volume(GrushinPoint((0.0,), 0.0), r, make_grid(2, 1.0, 16))


def test_ball_volume_checks_its_radius_before_enumerating(monkeypatch):
    # criterion 9's d = 1 grid: at r = 100 the enumerated box would hold
    # about 5e8 candidates
    grid = make_grid(2, 3.0, 96)
    bound = grushin._koranyi_limit(grid)
    enumerate_ball = grushin._ball_lattice
    calls = []

    def enumerate_once(*args):
        calls.append(args)
        if len(calls) > 1:
            raise AssertionError("a ball beyond the Koranyi bound was enumerated")
        return enumerate_ball(*args)

    monkeypatch.setattr(grushin, "_ball_lattice", enumerate_once)
    center = GrushinPoint((0.0,), 0.0)
    # r at the bound passes the radius rule and reaches the box check: every
    # ball with r >= L + h holds a node outside the box
    with pytest.raises(ValueError, match="exits the box"):
        koranyi_ball_volume(center, bound, grid)
    assert len(calls) == 1
    for r in (math.nextafter(bound, math.inf), 100.0):
        with pytest.raises(ValueError, match="max radius"):
            koranyi_ball_volume(center, r, grid)


def test_radii_beyond_the_box_are_rejected_before_any_work(monkeypatch):
    # at L = 0.3 nodes sit farther apart in d_K than the cube diameter plus h,
    # and within the Koranyi bound 2 sqrt(d L^2 + L) + h
    grid = make_grid(2, 0.3, 4)
    f = GridFunction(grid, np.ones(grid.shape))
    d, L, h = 1, grid.L, grid.h
    koranyi_bound = 2.0 * math.sqrt(d * L**2 + L) + h
    cube_bound = 2.0 * L * math.sqrt(grid.d) + h
    axis = grid.axis_nodes()
    nodes = [GrushinPoint((x,), u) for x in axis for u in axis]
    widest = max(koranyi_distance(a, b) for a in nodes for b in nodes)
    assert cube_bound < widest <= koranyi_bound
    r0 = 0.9 * min_node_gap(grid)
    assert grushin_maximal(f, (r0, koranyi_bound)).values.shape == grid.shape
    assert iterated_maximal(f, (h, cube_bound), (h, cube_bound)).values.shape == grid.shape

    def work(*args, **kwargs):
        raise AssertionError("work began before the radii were checked")

    for name in ("_ball_lattice", "_ball_max_values", "_interval_max_values"):
        monkeypatch.setattr(grushin, name, work)
    above = math.nextafter(koranyi_bound, math.inf)
    with pytest.raises(ValueError, match="max radius"):
        grushin_maximal(f, (r0, above))
    above = math.nextafter(cube_bound, math.inf)
    for rx, ru in (((h, above), (h, 0.5)), ((h, 0.5), (h, above))):
        with pytest.raises(ValueError, match="max radius"):
            iterated_maximal(f, rx, ru)


def test_dilation_volume_scaling():
    grid = make_grid(2, 3.0, 96)
    c = GrushinPoint((0.3,), 0.2)
    r = 1.4
    lhs = koranyi_ball_volume(c, r, grid)
    rhs = r**3 * koranyi_ball_volume(GrushinPoint((0.3 / r,), 0.2 / r**2), 1.0, grid)
    assert abs(lhs - rhs) / lhs <= 0.05


def test_maximal_constant_and_domination(rng):
    one = GridFunction(GRID, np.ones(GRID.shape))
    radii = RadiiSet((0.9 * min_node_gap(GRID), 0.7, 1.4))
    np.testing.assert_allclose(grushin_maximal(one, radii).values, 1.0, atol=1e-12)
    f = GridFunction(GRID, rng.standard_normal(GRID.shape))
    M = grushin_maximal(f, radii)
    assert np.all(M.values >= np.abs(f.values) - 1e-15)


def test_iterated_constant_and_separable(rng):
    one = GridFunction(GRID, np.ones(GRID.shape))
    rx = RadiiSet(tuple(np.geomspace(GRID.h, 2.0, 6)))
    ru = RadiiSet(tuple(np.geomspace(GRID.h, 2.0, 6)))
    np.testing.assert_allclose(iterated_maximal(one, rx, ru).values, 1.0, atol=1e-12)
    # separable nonnegative data: the two stages factor
    a = np.abs(rng.standard_normal(GRID.N)) + 0.1
    b = np.abs(rng.standard_normal(GRID.N)) + 0.1
    f = GridFunction(GRID, np.outer(a, b))
    got = iterated_maximal(f, rx, ru).values
    from maxop.maximal import hl_maximal, maximal_1d

    spec1 = make_grid(1, 2.0, 8)
    Ma = hl_maximal(GridFunction(spec1, a), rx).values
    Mb = maximal_1d(GridFunction(spec1, b), ru, axis=0).values
    np.testing.assert_allclose(got, np.outer(Ma, Mb), rtol=1e-12)


def test_iterated_matches_per_slice_exact_reference(rng):
    # 10 x 10 u-slices take the batched FFT sweep; the reference runs the
    # naive ball loop of the brute-force check slice by slice
    from maxop.checks import _oracle_hl
    from maxop.maximal import _interval_max_values

    grid = make_grid(3, 3.0, 10)
    f = GridFunction(grid, rng.standard_normal(grid.shape))
    rx = RadiiSet(tuple(np.geomspace(grid.h, 2 * grid.L * math.sqrt(2), 12)))
    ru = RadiiSet(tuple(np.geomspace(grid.h, 2 * grid.L, 12)))
    got = iterated_maximal(f, rx, ru).values
    stage1 = _interval_max_values(f.values, grid.h, ru.radii, axis=2)
    want = np.stack([_oracle_hl(stage1[..., iu], grid.h, rx) for iu in range(grid.N)], axis=-1)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_koranyi_below_iterated_on_bump():
    grid = make_grid(3, 3.0, 10)
    f = sample(grid, lambda p: np.exp(-np.sum(p**2, -1)))
    rk = RadiiSet(tuple(np.geomspace(0.9 * min_node_gap(grid), 1.2, 6)))
    rx = RadiiSet(tuple(np.geomspace(grid.h, 2 * grid.L * math.sqrt(2), 12)))
    ru = RadiiSet(tuple(np.geomspace(grid.h, 2 * grid.L, 12)))
    mk = grushin_maximal(f, rk).values
    it = iterated_maximal(f, rx, ru).values
    assert np.all(mk <= it * 1.0 + 1e-12)


def test_cc_note_mentions_chain_and_no_values():
    note = cc_domination_note()
    assert "M_K" in note and "M_CC" in note
    assert "not computed" in note
    assert not any(ch.isdigit() and ch not in "12" for ch in note.split("(")[0])



def test_maximal_bit_exact_with_two_x_axes(rng):
    # pins the multi-axis index layout against the naive loop of the
    # acceptance suite; h = 0.6 is not dyadic
    from maxop.checks import _oracle_grushin

    grid = make_grid(3, 1.2, 4)
    f = GridFunction(grid, rng.standard_normal(grid.shape))
    radii = RadiiSet((0.9 * min_node_gap(grid), 0.5, 0.9))
    assert np.array_equal(grushin_maximal(f, radii).values, _oracle_grushin(f, radii))


def test_norm_domination_companion_catches_weakened_iterated(monkeypatch):
    from maxop import checks

    spec = make_grid(2, 3.0, 16)
    c_meas, c_norm = checks._grushin_domination(spec)
    assert c_norm <= 1.0
    genuine = checks.iterated_maximal

    def weakened(F, radii_x, radii_u):
        return VectorField(tuple(GridFunction(g.spec, 0.5 * g.values) for g in genuine(F, radii_x, radii_u)))

    monkeypatch.setattr(checks, "iterated_maximal", weakened)
    weak_meas, weak_norm = checks._grushin_domination(spec)
    assert weak_norm > 1.0
    # the C_meas stability gate compares C_meas across d, and a uniform
    # scaling moves every C_meas by the same factor, so that gate cannot see it
    assert weak_meas == pytest.approx(2.0 * c_meas, rel=1e-12)


def test_one_axis_grid_is_not_grushin_data():
    spec = make_grid(1, 2.0, 8)
    f = GridFunction(spec, np.ones(spec.shape))
    radii = RadiiSet((0.5, 1.0))
    for call in (
        lambda: min_node_gap(spec),
        lambda: grushin_maximal(f, radii),
        lambda: iterated_maximal(f, radii, radii),
        lambda: koranyi_ball_volume(GrushinPoint((), 0.0), 0.5, spec),
    ):
        with pytest.raises(ValueError, match="u-axis"):
            call()
