"""Test oracles shared by the test modules.

None of this is reached by a ``fracflow`` command: it builds test data or
evaluates a quantity the solver computes on interior vectors, from whole
grid functions.
"""

import functools
import math

import numpy as np

from fracflow import GridFunction, scan_alg_constants
from fracflow.energy import _step_objective, sgn_power


def zero_function(domain):
    """The zero grid function."""
    return GridFunction(domain, np.zeros(domain.n_nodes))


def step_objective(w, u_prev, kernel, params):
    """Objective of one implicit step from u_prev, at w: the solver's own
    ``_step_objective`` on the interior values."""
    return _step_objective(w.interior_values(),
                           sgn_power(u_prev.interior_values(), params.q),
                           kernel, params, w.domain.vol / params.h)


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
