import importlib
import math
import pkgutil
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxop
from maxop.grid import (
    GridFunction,
    VectorField,
    forward_transform,
    inverse_transform,
    make_grid,
    node_coordinates,
    sample,
)
from maxop.scan import ScanConfig, run_scan


def test_make_grid_spacing():
    assert make_grid(1, 1.0, 4).h == 0.5
    assert make_grid(3, 4.0, 64).h == 0.125
    spec = make_grid(2.0, 1, 16.0)  # integral floats are stored as int
    assert spec == make_grid(2, 1.0, 16) and type(spec.d) is int and type(spec.N) is int


@pytest.mark.parametrize(
    "d,L,N",
    [
        (2, 1.0, 5), (2, 1.0, 2), (1, 0.0, 8), (1, -1.0, 8), (0, 1.0, 8),
        (2, math.inf, 8), (2, math.nan, 8), (2.7, 1.0, 10), (2, 1.0, 10.5), (math.inf, 1.0, 8),
    ],
)
def test_make_grid_rejects(d, L, N):
    with pytest.raises(ValueError):
        make_grid(d, L, N)


def test_sample_node_formula():
    spec = make_grid(1, 1.0, 4)
    f = sample(spec, lambda p: p[..., 0])
    np.testing.assert_allclose(f.values, [-0.75, -0.25, 0.25, 0.75])


def test_sample_constant_and_symmetry():
    spec = make_grid(2, 1.5, 8)
    one = sample(spec, lambda p: np.ones(p.shape[:-1]))
    assert np.all(one.values == 1.0)
    g = sample(spec, lambda p: np.exp(-np.sum(p**2, -1)))
    np.testing.assert_array_equal(g.values, g.values[::-1, ::-1])


def test_sample_is_deterministic():
    spec = make_grid(2, 1.0, 8)
    a = sample(spec, lambda p: np.sin(3 * p[..., 0]) + p[..., 1] ** 2)
    b = sample(spec, lambda p: np.sin(3 * p[..., 0]) + p[..., 1] ** 2)
    np.testing.assert_array_equal(a.values, b.values)


def test_sample_rejects_nonfinite():
    spec = make_grid(1, 1.0, 4)
    with pytest.raises(ValueError):
        sample(spec, lambda p: np.where(p[..., 0] == 0.25, np.inf, 1.0))
    # cell-centered nodes dodge the singular radius |x| = 0
    assert np.all(np.isfinite(sample(spec, lambda p: 1.0 / p[..., 0]).values))


def test_values_are_read_only():
    spec = make_grid(1, 1.0, 4)
    f = sample(spec, lambda p: p[..., 0])
    with pytest.raises(ValueError):
        f.values[0] = 3.0


def test_delta_has_flat_modulus():
    spec = make_grid(1, 1.0, 16)
    vals = np.zeros(spec.shape)
    vals[7] = 1.0
    mods = np.abs(forward_transform(GridFunction(spec, vals)))
    np.testing.assert_allclose(mods, mods[0])


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3), st.sampled_from([4, 8, 16]), st.integers(0, 2**31 - 1))
def test_roundtrip_and_plancherel(d, N, seed):
    if N**d > 5000:
        N = 8
    spec = make_grid(d, 1.7, N)
    vals = np.random.default_rng(seed).standard_normal(spec.shape)
    fhat = forward_transform(GridFunction(spec, vals))
    back = inverse_transform(spec, fhat)
    scale = np.abs(vals).max()
    assert np.abs(back - vals).max() <= 1e-12 * scale
    phys = np.sum(np.abs(vals) ** 2) * spec.cell_volume
    freq = np.sum(np.abs(fhat) ** 2) * spec.freq_step**spec.d
    assert abs(phys - freq) <= 1e-12 * phys


def test_grid_functions_hold_real_finite_samples():
    spec = make_grid(2, 1.0, 4)
    for bad, match in (
        (np.ones(spec.shape, dtype=complex), "real"),
        (np.full(spec.shape, np.nan), "finite"),
        (np.full(spec.shape, -np.inf), "finite"),
        (np.ones((4, 2)), "shape"),
    ):
        with pytest.raises(ValueError, match=match):
            GridFunction(spec, bad)
    with pytest.raises(ValueError, match="real"):
        sample(spec, lambda p: p[..., 0] + 1j)
    # integer input is stored as a float copy
    ints = np.arange(16).reshape(spec.shape)
    f = GridFunction(spec, ints)
    assert f.values.dtype == np.float64 and np.array_equal(f.values, ints)
    with pytest.raises(ValueError, match="shape"):
        inverse_transform(spec, np.ones((4, 2), dtype=complex))


def test_vector_field_validation():
    spec = make_grid(1, 1.0, 8)
    other = make_grid(1, 2.0, 8)
    f = sample(spec, lambda p: p[..., 0])
    g = sample(other, lambda p: p[..., 0])
    with pytest.raises(ValueError):
        VectorField(())
    with pytest.raises(ValueError):
        VectorField((f, g))
    assert len(VectorField((f, f))) == 2


def test_node_coordinates_shape():
    spec = make_grid(3, 1.0, 4)
    assert node_coordinates(spec).shape == (4, 4, 4, 3)


def test_only_the_quadrature_rule_builders_are_cached():
    # a coordinate grid or a phase table kept for the process would outlive
    # the sampling that built it
    cached = set()
    for info in pkgutil.iter_modules(maxop.__path__):
        module = importlib.import_module(f"maxop.{info.name}")
        for obj in vars(module).values():
            if callable(obj) and hasattr(obj, "cache_info"):
                cached.add(f"{obj.__module__}.{obj.__qualname__}")
    assert cached == {"maxop.quadrature.gegenbauer_rule", "maxop.quadrature.radial_power_rule"}


def test_a_scan_leaves_no_coordinate_grid_behind():
    # L = 3.3 is a grid no other test samples; its 16^4 x 4 coordinates take 2 MiB
    cfg = ScanConfig(operator="HL", d_range=(4,), p_list=(2.0,), q_list=(2.0,), n_members=1,
                     grid=(3.3, 16), radii_K=4)
    run_scan(replace(cfg, d_range=(1,)))  # imports and first-call set-up, untraced
    tracemalloc.start()
    try:
        report = run_scan(cfg)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(report.rows) == 1 and report.rows[0].ratio >= 1.0
    assert held < 16**4 * 4 * 8 / 4
