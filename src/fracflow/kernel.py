"""Singular interaction weights |x - y|^(-(n+sp)) on the collar grid.

The pairwise table covers all collar-node pairs; the principal value is
realized by dropping the diagonal (the within-cell difference of a nodal
function is zero, which is the discrete counterpart of the symmetric
cancellation).  The region beyond the collar box is handled analytically
through per-node tail weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import GridDomain

__all__ = ["FlowParams", "KernelTable", "assemble_kernel", "tail_weight"]


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
    """Dense symmetric pair weights plus analytic exterior tails.

    weights[i, j] = vol^2 * |x_i - x_j|^(-(n+sp)) for i != j, 0 on the
    diagonal; tail[i] = vol * integral of the kernel over the region beyond
    the collar box (closed radial form).  interior is the interior block of
    weights; boundary[i] = tail[i] + sum_{j exterior} weights[i, j] is what
    acts on |u_i| of a zero-exterior u.  Rebuilt whenever (s, p, grid)
    changes; params_hash records what it was built for.
    """

    domain: GridDomain
    s: float
    p: float
    weights: np.ndarray = field(repr=False)
    tail: np.ndarray = field(repr=False)
    interior: np.ndarray = field(repr=False)
    boundary: np.ndarray = field(repr=False)
    params_hash: tuple = ()

    @property
    def n_nodes(self) -> int:
        return self.weights.shape[0]

    def require_match(self, domain: GridDomain, p: float) -> None:
        expected = (float(self.s), float(p)) + domain.signature()
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


def tail_weight(domain: GridDomain, params: FlowParams, node: int) -> float:
    """Analytic weight of the region beyond the collar box, seen from one node."""
    if not (0 <= node < domain.n_nodes):
        raise ValueError(f"node index {node} outside the collar box grid")
    return float(_tail_weights(domain, params)[node])


def _pair_weights(coords: np.ndarray, vol: float, expo: float,
                  lag: float = 0.0) -> np.ndarray:
    """vol^2 (|x_i-x_j|^2 + lag^2)^(-expo/2), zero diagonal at lag 0; built
    one axis at a time and in place, so no (N, N, dim) array is held."""
    w = np.zeros((coords.shape[0],) * 2)
    for x in coords.T:
        w += (x[:, None] - x[None, :]) ** 2
    w += lag ** 2
    np.sqrt(w, out=w)
    if lag == 0.0:
        np.fill_diagonal(w, np.inf)       # inf ** -expo == 0: no self pair
    w **= -expo
    w *= vol ** 2
    return w


def assemble_kernel(domain: GridDomain, params: FlowParams) -> KernelTable:
    """Build the full O(N^2) pair table for (s, p) on the given grid."""
    if domain.n_nodes > 6000:
        raise ValueError(f"{domain.n_nodes} nodes: the dense pair table is "
                         "sized for a few thousand nodes; coarsen the grid")
    weights = _pair_weights(domain.node_coords, domain.vol,
                            domain.dim + params.s * params.p)
    tail = _tail_weights(domain, params)
    mask = domain.interior_mask
    interior = weights[np.ix_(mask, mask)]
    boundary = weights[np.ix_(mask, ~mask)].sum(axis=1) + tail[mask]
    for arr in (weights, tail, interior, boundary):
        arr.setflags(write=False)
    phash = (float(params.s), float(params.p)) + domain.signature()
    return KernelTable(domain=domain, s=params.s, p=params.p,
                       weights=weights, tail=tail, interior=interior,
                       boundary=boundary, params_hash=phash)
