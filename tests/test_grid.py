import numpy as np
import pytest

from fracflow import build_grid, eval_preset, GridFunction
from oracles import zero_function


def test_1d_collar_construction():
    dom = build_grid(1, 0.0, 1.0, 4, 2.0)
    assert dom.n_nodes == 8
    assert dom.n_interior == 4
    assert dom.dx == 0.25
    x = dom.node_coords[:, 0]
    assert x[0] == -0.375 and x[-1] == 1.375
    assert np.allclose(np.diff(x), 0.25)
    assert dom.collar_min == (-0.5,) and dom.collar_max == (1.5,)
    inside = dom.interior_mask
    assert np.array_equal(x[inside], [0.125, 0.375, 0.625, 0.875])


def test_degenerate_collar():
    dom = build_grid(1, 0.0, 1.0, 4, 1.0)
    assert dom.n_nodes == 4
    assert dom.n_interior == 4


def test_2d_tensor_construction():
    dom = build_grid(2, (0.0, 0.0), (1.0, 1.0), 4, 2.0)
    assert dom.n_nodes == 64
    assert dom.n_interior == 16
    # node-major order: x varies fastest
    assert dom.node_coords[1, 0] - dom.node_coords[0, 0] == 0.25
    assert dom.node_coords[1, 1] == dom.node_coords[0, 1]


@pytest.mark.parametrize("dim,lo,hi,n_cells,collar", [
    (1, 0.0, 1.0, 64, 2.0), (1, 0.1, 1.1, 50, 1.7), (2, 0.0, 1.0, 16, 2.0),
    (2, 0.0, 1.0, 7, 1.37), (2, (0.1, 0.3), (1.1, 1.3), 16, 2.0),
    (2, (0.1, 0.3), (1.1, 1.3), 7, 1.37)],
    ids=["1d", "1d-offset-non-dyadic", "2d", "2d-non-dyadic", "2d-offset",
         "2d-offset-non-dyadic"])
def test_interior_is_one_box_of_interior_shape(dim, lo, hi, n_cells, collar):
    # the interior is the set of nodes strictly inside Omega, and on the
    # node lattice (array order, x last) it is one box: the kernel reads
    # shape and interior_shape as the extents of that lattice and that box
    dom = build_grid(dim, lo, hi, n_cells, collar)
    x = dom.node_coords
    assert np.array_equal(dom.interior_mask,
                          np.all((x > dom.omega_min) & (x < dom.omega_max),
                                 axis=1))
    assert dom.shape == (round(n_cells * collar),) * dim
    mask = dom.interior_mask.reshape(dom.shape)
    box = mask[tuple(slice(i.min(), i.max() + 1) for i in np.nonzero(mask))]
    assert box.all() and box.size == dom.n_interior
    assert box.shape == dom.interior_shape


def test_build_rejections():
    with pytest.raises(ValueError):
        build_grid(3, 0.0, 1.0, 4)
    with pytest.raises(ValueError):
        build_grid(1, 1.0, 0.0, 4)
    with pytest.raises(ValueError):
        build_grid(1, 0.0, 0.0, 4)
    with pytest.raises(ValueError):
        build_grid(1, 0.0, 1.0, 1)
    with pytest.raises(ValueError):
        build_grid(1, 0.0, 1.0, 4, 0.5)
    with pytest.raises(ValueError):
        build_grid(2, (0.0, 0.0), (1.0, 2.0), 4)


def test_interior_volume_converges():
    # misaligned collar so interior cells only approximate Omega
    for n_cells in (16, 32, 64, 128):
        dom = build_grid(1, 0.0, 1.0, n_cells, 1.37)
        rel = abs(dom.omega_volume - 1.0)
        assert rel < 2.0 / n_cells


def test_grid_function_invariants():
    dom = build_grid(1, 0.0, 1.0, 4, 2.0)
    vals = np.zeros(8)
    vals[0] = 1.0  # exterior node
    with pytest.raises(ValueError):
        GridFunction(dom, vals)
    with pytest.raises(ValueError):
        GridFunction(dom, np.full(8, np.nan))
    with pytest.raises(ValueError):
        GridFunction(dom, np.zeros(5))
    u = zero_function(dom)
    assert u.linf() == 0.0


def test_arithmetic_preserves_exterior_zeros():
    dom = build_grid(1, 0.0, 1.0, 8, 2.0)
    rng = np.random.default_rng(0)
    a = rng.normal(size=dom.n_nodes) * dom.interior_mask
    b = rng.normal(size=dom.n_nodes) * dom.interior_mask
    u, v = GridFunction(dom, a), GridFunction(dom, b)
    w = u - v
    assert np.all(w.values[~dom.interior_mask] == 0.0)
    assert np.all(np.isfinite(w.values))


def test_bump_preset():
    dom = build_grid(1, 0.0, 1.0, 8, 2.0)
    assert np.all(eval_preset(dom, "bump", 0.0).values == 0.0)
    u = eval_preset(dom, "bump", 2.0)
    x = dom.node_coords[:, 0]
    expect = np.where(dom.interior_mask, 2.0 * 4.0 * x * (1.0 - x), 0.0)
    assert np.allclose(u.values, expect)


def test_step_preset_middle_half():
    dom = build_grid(1, 0.0, 1.0, 8, 2.0)
    u = eval_preset(dom, "step", 1.0)
    x = dom.node_coords[:, 0]
    inside_mid = (x >= 0.25) & (x <= 0.75)
    assert np.all(u.values[inside_mid] == 1.0)
    assert np.all(u.values[~inside_mid] == 0.0)


def test_random_preset_reproducible():
    dom = build_grid(1, 0.0, 1.0, 8, 2.0)
    a = eval_preset(dom, "random", 1.0, seed=7)
    b = eval_preset(dom, "random", 1.0, seed=7)
    assert np.array_equal(a.values, b.values)
    c = eval_preset(dom, "random", 1.0, seed=8)
    assert not np.array_equal(a.values, c.values)
    assert np.all(np.abs(a.values) <= 1.0)


def test_csv_preset(tmp_path):
    dom = build_grid(1, 0.0, 1.0, 4, 2.0)
    good = tmp_path / "u.csv"
    vals = np.where(dom.interior_mask, 0.5, 0.0)
    good.write_text("\n".join(str(v) for v in vals) + "\n")
    u = eval_preset(dom, "csv", 1.0, csv_path=str(good))
    assert np.array_equal(u.values, vals)

    short = tmp_path / "short.csv"
    short.write_text("1.0\n2.0\n")
    with pytest.raises(ValueError, match="values"):
        eval_preset(dom, "csv", 1.0, csv_path=str(short))

    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(["1.0"] * dom.n_nodes) + "\n")
    with pytest.raises(ValueError, match="exterior"):
        eval_preset(dom, "csv", 1.0, csv_path=str(bad))


def test_unknown_preset_and_bad_amplitude():
    dom = build_grid(1, 0.0, 1.0, 4, 2.0)
    with pytest.raises(ValueError):
        eval_preset(dom, "wavelet", 1.0)
    with pytest.raises(ValueError):
        eval_preset(dom, "bump", np.inf)
