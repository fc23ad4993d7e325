"""Uniform midpoint grids on a box with an exterior collar.

The computational domain Omega is a bounded interval (1D) or square box (2D)
embedded in a larger collar box.  Nodes sit at cell midpoints of the collar
box; a node is *interior* iff its center lies strictly inside Omega.  A grid
function vanishes on every exterior node, which is how the nonlocal
homogeneous Dirichlet condition is realized on a finite grid, so it is
stored by its values on the interior nodes alone, in node order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

__all__ = ["GridDomain", "GridFunction", "build_grid", "eval_preset"]


@dataclass(frozen=True, eq=False)
class GridDomain:
    """Immutable description of the collar box and its interior region."""

    dim: int
    omega_min: tuple
    omega_max: tuple
    n_cells: int
    collar_factor: float
    node_coords: np.ndarray      # (n_nodes, dim), cell midpoints
    interior_mask: np.ndarray    # (n_nodes,) bool, True iff center in Omega
    dx: float
    vol: float
    collar_min: tuple
    collar_max: tuple
    # nodes per axis and interior nodes per axis, in array order (x last):
    # interior_mask.reshape(shape) is True on one box of interior_shape
    shape: tuple
    interior_shape: tuple

    @property
    def n_nodes(self) -> int:
        return self.node_coords.shape[0]

    @property
    def n_interior(self) -> int:
        return int(self.interior_mask.sum())

    @property
    def omega_volume(self) -> float:
        """Measure of Omega as the grid sees it (interior cell count x vol)."""
        return self.n_interior * self.vol

    @property
    def omega_diameter(self) -> float:
        ext = np.asarray(self.omega_max) - np.asarray(self.omega_min)
        return float(np.sqrt((ext ** 2).sum()))

    @property
    def collar_diameter(self) -> float:
        ext = np.asarray(self.collar_max) - np.asarray(self.collar_min)
        return float(np.sqrt((ext ** 2).sum()))

    def signature(self) -> tuple:
        """Hashable identity of the discretization, which
        ``KernelTable.require_match`` compares."""
        return (self.dim, self.omega_min, self.omega_max, self.n_cells,
                float(self.collar_factor))


def _as_coords(value, dim: int, name: str) -> tuple:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.size == 1 and dim > 1:
        arr = np.full(dim, float(arr[0]))
    if arr.size != dim:
        raise ValueError(f"{name} must have {dim} component(s), got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return tuple(float(v) for v in arr)


def build_grid(dim: int, omega_min, omega_max, n_cells: int,
               collar_factor: float = 2.0) -> GridDomain:
    """Build the midpoint grid for Omega = (omega_min, omega_max)^dim.

    The collar box is concentric with Omega and ``collar_factor`` times its
    side; it is split into ``round(n_cells * collar_factor)`` cells per axis.
    """
    if dim not in (1, 2):
        raise ValueError("dim must be 1 or 2")
    if n_cells < 2:
        raise ValueError("n_cells must be at least 2")
    if not 1.0 <= collar_factor < np.inf:      # nan fails too
        raise ValueError("collar_factor must be >= 1 and finite")
    lo = _as_coords(omega_min, dim, "omega_min")
    hi = _as_coords(omega_max, dim, "omega_max")
    extents = [b - a for a, b in zip(lo, hi)]
    if min(extents) <= 0.0:
        raise ValueError("omega_max must exceed omega_min componentwise")
    if dim == 2 and abs(extents[0] - extents[1]) > 1e-12 * max(extents):
        raise ValueError("anisotropic boxes are not supported (cell width must "
                         "be the same on every axis)")

    side = extents[0]
    m = int(round(n_cells * collar_factor))
    collar_side = collar_factor * side
    dx = collar_side / m
    centers = [0.5 * (a + b) for a, b in zip(lo, hi)]
    cmin = tuple(c - 0.5 * collar_side for c in centers)
    cmax = tuple(c + 0.5 * collar_side for c in centers)

    axis = [cmin[d] + (np.arange(m) + 0.5) * dx for d in range(dim)]
    if dim == 1:
        coords = axis[0][:, None]
    else:
        # node-major with x fastest
        X, Y = np.meshgrid(axis[0], axis[1], indexing="xy")
        coords = np.column_stack([X.ravel(), Y.ravel()])

    # the interior is the outer product of each axis's interior: a box
    inside_axis = [(axis[d] > lo[d]) & (axis[d] < hi[d]) for d in range(dim)]
    inside = functools.reduce(np.logical_and.outer, inside_axis[::-1]).ravel()
    if not inside.any():
        raise ValueError("grid has no interior node; refine n_cells")

    coords.setflags(write=False)
    inside.setflags(write=False)
    return GridDomain(dim=dim, omega_min=lo, omega_max=hi, n_cells=n_cells,
                      collar_factor=float(collar_factor), node_coords=coords,
                      interior_mask=inside, dx=dx, vol=dx ** dim,
                      collar_min=cmin, collar_max=cmax, shape=(m,) * dim,
                      interior_shape=tuple(int(a.sum())
                                           for a in inside_axis[::-1]))


@dataclass(frozen=True, eq=False)
class GridFunction:
    """A function on a GridDomain that vanishes off Omega: ``values`` holds
    its n_interior values on the interior nodes, in node order (the order
    of ``domain.node_coords[domain.interior_mask]``)."""

    domain: GridDomain
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.shape != (self.domain.n_interior,):
            raise ValueError(f"expected {self.domain.n_interior} interior "
                             f"values, got {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid function values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def linf(self) -> float:
        return float(np.max(np.abs(self.values)))


def _bump_profile(domain: GridDomain, lo: tuple, hi: tuple) -> np.ndarray:
    """Polynomial bump on every node, 1 at the center of the box (lo, hi)
    and 0 on its boundary."""
    prof = np.ones(domain.n_nodes)
    for d in range(domain.dim):
        xhat = (domain.node_coords[:, d] - lo[d]) / (hi[d] - lo[d])
        prof = prof * 4.0 * xhat * (1.0 - xhat)
    return prof


def eval_preset(domain: GridDomain, preset: str, amplitude: float,
                seed: int = 0, csv_path: str | None = None) -> GridFunction:
    """Sample one of the built-in initial data presets at the centers of
    the collar nodes and keep the values on the interior ones.

    ``bump``   amplitude times a polynomial bump vanishing on the boundary;
    ``step``   amplitude on the middle half of Omega (per axis), 0 elsewhere;
    ``random`` i.i.d. uniform[-amplitude, amplitude], drawn for every
               collar node: numpy's ``default_rng(seed).uniform`` stream,
               reproduced by ``stream.Stream`` without importing numpy's
               random subpackage (whose import costs about 6 MiB of
               resident memory); ValueError if ``2 amplitude`` overflows;
    ``csv``    one value per line in node-major order, one per collar node,
               zero on the exterior ones.
    """
    if not np.isfinite(amplitude):
        raise ValueError("amplitude must be finite")
    n = domain.n_nodes
    if preset == "bump":
        vals = amplitude * _bump_profile(domain, domain.omega_min,
                                         domain.omega_max)
    elif preset == "step":
        vals = np.full(n, float(amplitude))
        for d in range(domain.dim):
            a, b = domain.omega_min[d], domain.omega_max[d]
            x = domain.node_coords[:, d]
            lo, hi = a + 0.25 * (b - a), a + 0.75 * (b - a)
            vals[(x < lo) | (x > hi)] = 0.0
    elif preset == "random":
        from .stream import Stream  # imported where drawn (see stream)
        vals = Stream(seed).uniform(-amplitude, amplitude, size=n)
    elif preset == "csv":
        if csv_path is None:
            raise ValueError("csv preset requires a path")
        with open(csv_path) as fh:
            raw = [line.strip() for line in fh if line.strip()]
        if len(raw) != n:
            raise ValueError(f"csv holds {len(raw)} values, grid has {n} nodes")
        vals = np.array([float(v) for v in raw])
        if np.any(vals[~domain.interior_mask] != 0.0):
            raise ValueError("csv assigns a nonzero value to an exterior node")
    else:
        raise ValueError(f"unknown preset {preset!r}")
    return GridFunction(domain, vals[domain.interior_mask])
