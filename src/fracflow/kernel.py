"""Singular interaction weights |x - y|^(-(n+sp)) on the collar grid.

Grid functions vanish off Omega, so a pair of exterior nodes contributes
nothing: what is built is the pair table among the interior nodes plus one
boundary weight per interior node (its summed weight to every exterior node
and to the region beyond the collar box).  The table over all collar-node
pairs is built only on request, as the test oracle.  The principal value is
realized by dropping the diagonal (the within-cell difference of a nodal
function is zero, which is the discrete counterpart of the symmetric
cancellation).  The region beyond the collar box is handled analytically
through per-node tail weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import GridDomain

__all__ = ["FlowParams", "KernelTable", "assemble_kernel"]


@dataclass(frozen=True)
class FlowParams:
    """Exponents and stepping/solver controls for one flow run.

    The standing admissibility assumptions are 0 < s < 1, p > 1 and q > 0;
    anything outside that range is rejected at construction.
    """

    s: float
    p: float
    q: float
    h: float
    t_end: float
    solver_tol: float = 1e-9
    solver_max_iter: int = 50000

    def __post_init__(self):
        if not (0.0 < self.s < 1.0):
            raise ValueError("s must lie in (0,1)")
        if not self.p > 1.0:
            raise ValueError("p must exceed 1")
        if not self.q > 0.0:
            raise ValueError("q must be positive")
        if not self.h > 0.0:
            raise ValueError("h must be positive")
        if not self.t_end >= self.h:
            raise ValueError("t_end must be at least h")
        if not self.solver_tol > 0.0:
            raise ValueError("solver_tol must be positive")
        if not self.solver_max_iter > 0:
            raise ValueError("solver_max_iter must be positive")

    @property
    def n_steps(self) -> int:
        return int(math.ceil(self.t_end / self.h - 1e-12))

    def with_h(self, h: float) -> "FlowParams":
        return FlowParams(self.s, self.p, self.q, h, self.t_end,
                          self.solver_tol, self.solver_max_iter)


@dataclass(frozen=True, eq=False)
class KernelTable:
    """Interior pair weights, boundary weights and analytic exterior tails.

    With weights[i, j] = vol^2 * |x_i - x_j|^(-(n+sp)) for i != j and 0 on
    the diagonal: interior is the interior block of weights; tail[i] = vol *
    integral of the kernel over the region beyond the collar box (closed
    radial form); boundary[i] = tail[i] + sum_{j exterior} weights[i, j] is
    what acts on |u_i| of a zero-exterior u; degree[i] = boundary[i] +
    sum_j interior[i, j] is node i's total weight, so that at p = 2 the pair
    operator is the graph Laplacian diag(degree) - interior.  The full
    collar table ``weights`` is the test oracle: it is built on first read,
    and no computation reads it.  Rebuilt whenever (s, p, grid) changes;
    params_hash records what it was built for.
    """

    domain: GridDomain
    s: float
    p: float
    tail: np.ndarray = field(repr=False)
    interior: np.ndarray = field(repr=False)
    boundary: np.ndarray = field(repr=False)
    degree: np.ndarray = field(repr=False)
    params_hash: tuple = ()

    @cached_property
    def weights(self) -> np.ndarray:
        w = _pair_weights(self.domain.node_coords, self.domain.vol,
                          self.domain.dim + self.s * self.p)
        w.setflags(write=False)
        return w

    def require_match(self, domain: GridDomain, s: float, p: float) -> None:
        """Refuse an (s, p, grid) other than the one the table was built for."""
        expected = (float(s), float(p)) + domain.signature()
        if self.params_hash != expected:
            raise ValueError("kernel table was built for different (s, p, grid)")


def _collar_face_distances(domain: GridDomain) -> np.ndarray:
    """Distances from each node to every collar face, shape (n_nodes, 2*dim)."""
    cols = []
    for d in range(domain.dim):
        x = domain.node_coords[:, d]
        cols.append(x - domain.collar_min[d])
        cols.append(domain.collar_max[d] - x)
    return np.column_stack(cols)


def _tail_weights(domain: GridDomain, params: FlowParams) -> np.ndarray:
    sp = params.s * params.p
    dists = _collar_face_distances(domain)
    if domain.dim == 1:
        t = domain.vol * (dists[:, 0] ** (-sp) + dists[:, 1] ** (-sp)) / sp
    else:
        # inscribed-disc surrogate: integrate radially beyond the nearest face.
        # The exterior of the disc contains the exterior of the box, so this
        # overestimates the true tail.
        r = dists.min(axis=1)
        t = domain.vol * 2.0 * math.pi * r ** (-sp) / sp
    return t


_BLOCK_BYTES = 8 << 20     # scratch for one row block of _pair_weights


def _pair_weights(coords: np.ndarray, vol: float, expo: float,
                  lag: float = 0.0, rows: np.ndarray | None = None) -> np.ndarray:
    """vol^2 (|x_i-x_j|^2 + lag^2)^(-expo/2) for i in ``rows`` (default all)
    and all j, no self pair at lag 0; built one axis at a time, in row blocks,
    in place, so the only other array is one block of differences (8 MiB)."""
    n = coords.shape[0]
    rows = np.arange(n) if rows is None else rows
    w = np.zeros((rows.size, n))
    per_block = max(1, _BLOCK_BYTES // (8 * n))
    diff = np.empty((min(per_block, rows.size), n))
    for lo in range(0, rows.size, per_block):
        block = w[lo:lo + per_block]
        d = diff[:block.shape[0]]
        for x in coords.T:
            np.subtract.outer(x[rows[lo:lo + per_block]], x, out=d)
            d **= 2
            block += d
    w += lag ** 2
    np.sqrt(w, out=w)
    if lag == 0.0:
        w[np.arange(rows.size), rows] = np.inf  # inf ** -expo == 0: no self pair
    w **= -expo
    w *= vol ** 2
    return w


def _node_set_weights(domain: GridDomain, nodes: np.ndarray, expo: float,
                      lag: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Pair weights among the nodes of the boolean set ``nodes``, and each
    such node's summed weight to every node outside it: the block and the
    boundary row sums of ``_pair_weights`` restricted to those rows.  Built
    one row block at a time, so the (n_nodes, n_nodes) table is never
    formed."""
    rows = np.flatnonzero(nodes)
    rest = np.flatnonzero(~nodes)
    block = np.empty((rows.size, rows.size))
    outside = np.empty(rows.size)
    per_block = max(1, _BLOCK_BYTES // (8 * domain.n_nodes))
    for lo in range(0, rows.size, per_block):
        part = rows[lo:lo + per_block]
        w = _pair_weights(domain.node_coords, domain.vol, expo, lag, part)
        every = np.arange(part.size)
        block[lo:lo + part.size] = w[np.ix_(every, rows)]
        outside[lo:lo + part.size] = w[np.ix_(every, rest)].sum(axis=1)
        del w   # free this block before the next one is built
    return block, outside


def assemble_kernel(domain: GridDomain, params: FlowParams) -> KernelTable:
    """Build the interior pair block and the boundary weights for (s, p) on
    the given grid: O(n_interior * n_nodes) work, O(n_interior^2) memory."""
    if domain.n_interior > 6000:
        raise ValueError(f"{domain.n_interior} interior nodes: the dense "
                         "interior pair table is sized for a few thousand "
                         "interior nodes; coarsen the grid")
    mask = domain.interior_mask
    interior, outside = _node_set_weights(domain, mask,
                                          domain.dim + params.s * params.p)
    tail = _tail_weights(domain, params)
    boundary = outside + tail[mask]
    degree = interior.sum(axis=1) + boundary
    for arr in (tail, interior, boundary, degree):
        arr.setflags(write=False)
    phash = (float(params.s), float(params.p)) + domain.signature()
    return KernelTable(domain=domain, s=params.s, p=params.p,
                       tail=tail, interior=interior,
                       boundary=boundary, degree=degree, params_hash=phash)
