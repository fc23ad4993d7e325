"""Singular interaction weights |x - y|^(-(n+sp)) on the collar grid.

Grid functions vanish off Omega, so a pair of exterior nodes contributes
nothing: what a run needs is the pair table among the interior nodes plus
one boundary weight per interior node (its summed weight to every exterior
node and to the region beyond the collar box).  The kernel is translation
invariant and the nodes form a uniform lattice, so a pair's weight depends
only on the integer offset between its nodes: ``pow`` runs once per offset,
(2m-1)^dim of them for m nodes per axis, and assembly builds that offset
table once and takes from it all its p computes with.  The weights among
the nodes of any box are windows of the offset table, one per node
(``_box_weights``, a view that copies nothing); the interior nodes form a
box, so the interior block is Toeplitz in 1D and block-Toeplitz in 2D.  At
p = 2 the pair operator is linear: each node's total weight is a window sum
of the offset table, and the interior block's product with a vector is a
circulant product of twice the size per axis, one real FFT pair against a
spectrum computed once.  For other p the interior block is the interior's
view, and a node's weight to the exterior is its window sum less its row
sum in the block: an exterior node adds no work.  Row sums are taken over
row blocks copied one at a time (``_row_blocks``), by assembly and by the
space-time sums of ``verify`` alike, and no block is kept.  The table over
all collar-node pairs is built only on request, as the test oracle.  The
principal value is realized by dropping the diagonal (the within-cell
difference of a nodal function is zero, which is the discrete counterpart
of the symmetric cancellation).  The region beyond the collar box is
handled analytically through per-node tail weights.
"""

from __future__ import annotations

import functools
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
    anything outside that range, or any non-finite value, is rejected at
    construction.
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
        if not 1.0 < self.p < math.inf:
            raise ValueError("p must exceed 1 and be finite")
        if not 0.0 < self.q < math.inf:
            raise ValueError("q must be positive and finite")
        if not self.h > 0.0:
            raise ValueError("h must be positive")
        if not self.h <= self.t_end < math.inf:
            raise ValueError("t_end must be at least h and finite")
        if not 0.0 < self.solver_tol < math.inf:
            raise ValueError("solver_tol must be positive and finite")
        if not self.solver_max_iter > 0:
            raise ValueError("solver_max_iter must be positive")

    @property
    def n_steps(self) -> int:
        return int(math.ceil(self.t_end / self.h - 1e-12))


@dataclass(frozen=True, eq=False)
class KernelTable:
    """Interior pair weights, boundary weights and analytic exterior tails.

    With weights[i, j] = vol^2 * |x_i - x_j|^(-(n+sp)) for i != j and 0 on
    the diagonal: interior is the interior block of weights, a view of the
    offset table shaped interior_shape * 2; tail[i] = vol * integral of the
    kernel over the region beyond the collar box (closed radial form);
    boundary[i] = tail[i] + sum_{j exterior} weights[i, j], to roundoff,
    acts on |u_i| of a zero-exterior u; degree[i] = boundary[i] + sum_j
    interior[i, j] is node i's total weight, so that at p = 2 the pair
    operator is the graph Laplacian diag(degree) - interior, applied through
    ``apply_interior``.  A table holds what its p computes with and None in
    the other fields: at p = 2 ``degree`` and the circulant ``spectrum`` of
    the interior block; for other p ``interior`` and ``boundary``; nothing
    of size n_interior^2 at any p.  The full collar table ``weights`` is the
    test oracle, built only when read and read by no computation.  Rebuilt
    whenever (s, p, grid) changes; its own domain, s and p record what it
    was built for, the energies read s and p from it, and it reads the node
    lattice from the domain.
    """

    domain: GridDomain
    s: float
    p: float
    tail: np.ndarray = field(repr=False)
    degree: np.ndarray | None = field(repr=False)
    spectrum: np.ndarray | None = field(repr=False)
    interior: np.ndarray | None = field(repr=False)
    boundary: np.ndarray | None = field(repr=False)

    @cached_property
    def weights(self) -> np.ndarray:
        dom, n = self.domain, self.domain.n_nodes
        table = _offset_weights(dom, dom.dim + self.s * self.p)
        view = _box_weights(dom, np.ones(n, dtype=bool), table)[0]
        w = np.ascontiguousarray(view).reshape(n, n)
        w.setflags(write=False)
        return w

    def apply_interior(self, x: np.ndarray) -> np.ndarray:
        """interior @ x at p = 2: the interior values, shaped as their box,
        are zero-padded to the circulant's size, and one rfftn / irfftn pair
        against ``spectrum`` gives the product on the box."""
        box = self.domain.interior_shape
        size = tuple(2 * k for k in box)
        axes = tuple(range(len(box)))
        y = np.fft.irfftn(
            self.spectrum * np.fft.rfftn(x.reshape(box), s=size, axes=axes),
            s=size, axes=axes)
        return y[tuple(slice(k) for k in box)].ravel()

    def require_match(self, domain: GridDomain,
                      params: FlowParams | None = None) -> None:
        """Refuse a grid other than the one the table was built for, and
        flow parameters, when given, of another s or p."""
        if (domain.signature() != self.domain.signature()
                or params is not None
                and (params.s, params.p) != (self.s, self.p)):
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


# The one memory budget of the row blocks.  A block has at most as many
# rows as this many bytes of weights (float64) to every node would take.
# It holds its weights to the box and, in the space-time sums, the pair
# terms of a stack of slab pairs, which stay within this budget.  On a
# 1024-node 2D grid with a 256-node box a block is 32 rows: 64 KiB of
# weights to the box and 256 KiB of pair terms.  The offset table is
# (2m-1)^dim doubles and its window sums m^dim.
_BLOCK_BYTES = 256 << 10


def _offset_weights(domain: GridDomain, expo: float,
                    lag: float = 0.0) -> np.ndarray:
    """vol^2 (|o dx|^2 + lag^2)^(-expo/2) for every lattice offset o in
    {1-m, ..., m-1}^dim (m nodes per axis), flattened with x fastest as the
    nodes are, and 0 at o = 0 when lag is 0 (no self pair).  The squared
    per-axis distances are summed first (two terms at most, so their order
    does not matter), then lag^2 is added, so on a grid whose coordinates
    are exact these are the weights of the coordinate differences bit for
    bit."""
    m = domain.shape[0]
    sq = (np.arange(1 - m, m) * domain.dx) ** 2
    w = functools.reduce(np.add.outer, [sq] * domain.dim).ravel()
    w += lag ** 2
    np.sqrt(w, out=w)
    if lag == 0.0:
        w[w.size // 2] = np.inf  # inf ** -expo == 0: no self pair
    w **= -expo
    w *= domain.vol ** 2
    return w


def _box_weights(domain: GridDomain, nodes: np.ndarray, table: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pair weights among the nodes of the smallest lattice box holding the
    nonempty boolean set ``nodes``, the box's mask over every node, and
    each box node's total weight (``_window_sums``).  A pair's weight
    depends only on its offset, and ``table`` is exactly symmetric along
    each axis, so on a box of k nodes per axis row i is the window at
    k-1-i of the offsets 1-k .. k-1 of ``table``, read forward: the weights
    are a read-only view of shape box + box, nothing copied."""
    m = domain.shape[0]
    span = tuple(slice(i.min(), i.max() + 1)
                 for i in np.nonzero(nodes.reshape(domain.shape)))
    box = tuple(s.stop - s.start for s in span)
    crop = table.reshape((2 * m - 1,) * domain.dim)[
        tuple(slice(m - k, m + k - 1) for k in box)]
    view = np.lib.stride_tricks.sliding_window_view(crop, box)[
        (slice(None, None, -1),) * domain.dim]
    mask = np.zeros(domain.n_nodes, dtype=bool)
    mask.reshape(domain.shape)[span] = True
    return view, mask, _window_sums(domain, table)[mask]


def _outside_weights(total: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Each row's weight to every node outside the box: its total less its
    row sum in the contiguous ``block``, clamped at 0, that sum to roundoff
    relative to the total.  A row sums its own contiguous values, so the
    result is the same bit for bit whatever rows ``block`` holds."""
    outside = total - block.sum(axis=1)
    return np.maximum(outside, 0.0, out=outside)


def _row_blocks(view: np.ndarray, total: np.ndarray, n_nodes: int):
    """The box weights ``view`` and totals ``total`` of ``_box_weights``
    one row block at a time: yields (lo, block, outside) for the box's rows
    lo, lo + 1, ..., with block their weights to the box and outside their
    ``_outside_weights``.  A line is a run of box nodes along the last
    axis: the whole box in 1D, one row of it in 2D.  A block has at most
    as many rows as ``_BLOCK_BYTES`` of weights to all ``n_nodes`` nodes
    would; it is whole lines when one line fits in that, otherwise
    consecutive nodes of one line.  Each block is copied into one reused
    buffer, so it is valid only until the next one is yielded.  Assembly
    reads the interior's blocks for their outside weights alone."""
    box = view.shape[:view.ndim // 2]
    line = box[-1]
    per_block = max(1, _BLOCK_BYTES // (8 * n_nodes))
    per, width = max(1, per_block // line), min(per_block, line)
    lines = view.reshape((-1, line) + box)  # a view: (lines, line) + box
    buf = np.empty((min(per * width, total.size), total.size))
    for first in range(0, len(lines), per):
        for c in range(0, line, width):
            part = lines[first:first + per, c:c + width]
            block = buf[:part.shape[0] * part.shape[1]]
            block.reshape(part.shape)[...] = part
            lo = first * line + c
            yield lo, block, _outside_weights(total[lo:lo + len(block)], block)


def _window_sums(domain: GridDomain, table: np.ndarray) -> np.ndarray:
    """sum_j table[offset from j to i] over every node j, for every node i,
    in node order: along each axis a window of m consecutive offsets, taken
    as the difference of two cumulative sums."""
    m = domain.shape[0]
    w = table.reshape((2 * m - 1,) * domain.dim)
    for axis in range(domain.dim):
        c = np.cumsum(np.moveaxis(w, axis, 0), axis=0)
        win = c[m - 1:].copy()  # node i sums offsets i-(m-1) .. i
        win[1:] -= c[:m - 1]
        w = np.moveaxis(win, 0, axis)
    return w.ravel()


def _circulant_spectrum(domain: GridDomain, table: np.ndarray) -> np.ndarray:
    """Real FFT of the circulant, (2k)^dim for k interior nodes per axis,
    whose leading k^dim block holds the interior block: the offsets
    1-k .. k-1 of each axis, wrapped so that offset 0 is at index 0.  The
    interior nodes in node order are the row-major order of their box."""
    m = domain.shape[0]
    box = domain.interior_shape
    w = table.reshape((2 * m - 1,) * domain.dim)
    crop = w[tuple(slice(m - k, m + k - 1) for k in box)]
    axes = tuple(range(domain.dim))
    c = np.roll(np.pad(crop, [(0, 1)] * domain.dim),
                [1 - k for k in box], axis=axes)
    return np.fft.rfftn(c, axes=axes)


def assemble_kernel(domain: GridDomain, params: FlowParams) -> KernelTable:
    """Build the tails and, from one pow per lattice offset, what the
    table's p computes with, in O(m^dim) memory: at p = 2 the node degrees
    and the interior block's circulant spectrum; for other p the interior's
    box view and the boundary weights.  For p != 2, grids too large for the
    solver's (n_interior, n_interior) workspace are refused first."""
    linear = params.p == 2.0
    if not linear and domain.n_interior > 6000:
        raise ValueError(f"{domain.n_interior} interior nodes: the solver's "
                         "pair-matrix workspace, plus LAPACK's copy at p < 2, "
                         "is n_interior^2 doubles; coarsen the grid")
    mask = domain.interior_mask
    table = _offset_weights(domain, domain.dim + params.s * params.p)
    tail = _tail_weights(domain, params)
    degree = spectrum = interior = boundary = None
    if linear:
        degree = _window_sums(domain, table)[mask] + tail[mask]
        spectrum = _circulant_spectrum(domain, table)
    else:
        interior, _, total = _box_weights(domain, mask, table)
        boundary = np.concatenate([outside for _, _, outside in _row_blocks(
            interior, total, domain.n_nodes)]) + tail[mask]
    for arr in (tail, degree, spectrum, interior, boundary):
        if arr is not None:
            arr.setflags(write=False)
    return KernelTable(domain=domain, s=params.s, p=params.p, tail=tail,
                       degree=degree, spectrum=spectrum, interior=interior,
                       boundary=boundary)
