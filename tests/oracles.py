"""Test oracles shared by the test modules.

None of this is reached by a ``fracflow`` command: it builds test data,
evaluates a quantity the solver never needs (the step objective, whose
gradient the solver drives to zero), is the slow reference version of a
solver or kernel routine, reads fracflow's own source, or measures the
memory a call holds.
"""

import ast
import functools
import importlib
import inspect
import math
import pkgutil
import tracemalloc

import numpy as np

import fracflow
from fracflow import GridFunction, scan_alg_constants
from fracflow.energy import _self_pair_sum, sgn_power
from fracflow.kernel import _box_weights, _offset_weights, _outside_weights


def readers_of(name):
    """The functions and methods of fracflow, as ``module.qualname``, whose
    source loads ``name``, as a plain name or as an attribute."""
    readers = set()
    for info in pkgutil.iter_modules(fracflow.__path__):
        mod = importlib.import_module(f"fracflow.{info.name}")
        stack = [(ast.parse(inspect.getsource(mod)), (info.name,))]
        while stack:
            node, where = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                where += (node.name,)
            if (getattr(node, "id", getattr(node, "attr", None)) == name
                    and isinstance(node.ctx, ast.Load)):
                readers.add(".".join(where))
            stack += [(child, where) for child in ast.iter_child_nodes(node)]
    return readers


def traced_peak(fn):
    """fn() and the peak of the memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def zero_function(domain):
    """The zero grid function."""
    return GridFunction(domain, np.zeros(domain.n_interior))


def on_collar(domain, values):
    """Interior values (one row per function in a stack, node order last)
    widened onto every collar node, zero on the exterior ones: the layout of
    the collar table ``KernelTable.weights`` and of the space-time sums."""
    values = np.asarray(values, dtype=float)
    full = np.zeros(values.shape[:-1] + (domain.n_nodes,))
    full[..., domain.interior_mask] = values
    return full


def interior_step_objective(x, vprev, kernel, params, vol_h):
    """Objective of one implicit step at interior values x, given
    vprev = sgn_power(u_prev, q) on the interior and vol_h = vol / h; its
    gradient is ``energy._step_gradient``."""
    p, q = params.p, params.q
    time_part = vol_h * float(
        np.sum(np.abs(x) ** (q + 1.0) / (q + 1.0) - vprev * x))
    pair = _self_pair_sum(x, kernel)
    return time_part + pair / (2.0 * p)


def step_objective(w, u_prev, kernel, params):
    """Objective of one implicit step from u_prev, at w."""
    return interior_step_objective(
        w.values, sgn_power(u_prev.values, params.q), kernel, params,
        w.domain.vol / params.h)


def pair_weights(coords, vol, expo, lag=0.0, rows=None):
    """vol^2 (|x_i-x_j|^2 + lag^2)^(-expo/2) for i in ``rows`` (default all)
    and all j, no self pair at lag 0, from the coordinate differences: the
    brute-force version of ``box_table``."""
    n = coords.shape[0]
    rows = np.arange(n) if rows is None else rows
    w = np.zeros((rows.size, n))
    for x in coords.T:
        w += np.subtract.outer(x[rows], x) ** 2
    w += lag ** 2
    np.sqrt(w, out=w)
    if lag == 0.0:
        w[np.arange(rows.size), rows] = np.inf  # inf ** -expo == 0
    w **= -expo
    w *= vol ** 2
    return w


def box_table(domain, nodes, table):
    """The weights ``kernel._box_weights`` views among the nodes of the
    smallest box holding ``nodes``, copied into one (n, n) table, and each
    box node's ``kernel._outside_weights``."""
    view, _, total = _box_weights(domain, nodes, table)
    block = np.ascontiguousarray(view).reshape(total.size, total.size)
    return block, _outside_weights(total, block)


def dense_interior(kernel):
    """The interior block of a kernel table as one (n, n) table, and its
    boundary weights, formed as assembly forms them for p != 2 (the
    boundary the window sums less the row sums, plus the tails): a p = 2
    table holds neither."""
    dom = kernel.domain
    mask = dom.interior_mask
    interior, outside = box_table(
        dom, mask, _offset_weights(dom, dom.dim + kernel.s * kernel.p))
    return interior, outside + kernel.tail[mask]


def snap_clusters_loop(x):
    """``rothe._snap_clusters`` as a loop over the gaps of the sorted values:
    each maximal run joined by close gaps is set to its mean."""
    eps = np.finfo(float).eps
    out = x.copy()
    scale = max(1.0, float(np.max(np.abs(x))))
    out[np.abs(out) <= 8.0 * eps * scale] = 0.0
    order = np.argsort(out)
    xs = out[order]
    gaps = np.diff(xs)
    close = gaps <= 32.0 * eps * np.maximum(np.abs(xs[:-1]), np.abs(xs[1:]))
    start = 0
    for i in range(len(gaps) + 1):
        if i == len(gaps) or not close[i]:
            if i > start:
                out[order[start:i + 1]] = xs[start:i + 1].mean()
            start = i + 1
    return None if np.array_equal(out, x) else out


def st_seminorm_bruteforce(vals, dom, dt, s_prime):
    """Space-time W^{s',1} seminorm of sampled values vals[k, i] (time slab
    midpoint k, node i), as the literal four-fold loop."""
    n_t, n = vals.shape
    coords = dom.node_coords
    total = 0.0
    for k in range(n_t):
        for kp in range(n_t):
            for i in range(n):
                for j in range(n):
                    if k == kp and i == j:
                        continue
                    d2 = float(((coords[i] - coords[j]) ** 2).sum())
                    dist = math.sqrt(d2 + ((k - kp) * dt) ** 2)
                    total += (abs(vals[k, i] - vals[kp, j])
                              / dist ** (dom.dim + 1 + s_prime))
    return dom.vol ** 2 * dt ** 2 * total


# each brute-force scan sweeps ~6M points; one cache for the whole session
scan_oracle = functools.lru_cache(maxsize=None)(scan_alg_constants)
