"""Doubly nonlinear nonlocal diffusion on grid domains, with verification.

Solves d/dt(|u|^{q-1} u) + (-Delta)_p^s u = 0 on a bounded box with the
nonlocal zero condition outside the domain, by implicit time stepping where
each step is a strictly convex minimization.  The ``verify`` module asserts,
on every computed trajectory, the family of discrete estimates the scheme
satisfies by construction, with explicit constants.
"""

from .grid import GridDomain, GridFunction, build_grid, eval_preset
from .kernel import FlowParams, KernelTable, assemble_kernel
from .energy import (AlgConstants, lq_power_integral, gagliardo_seminorm_p,
                     energy_functional, apply_frac_p_laplacian,
                     rothe_gradient, scan_alg_constants, sgn_power)
from .rothe import (NonConvergence, RotheTrajectory, minimize_step, run_flow,
                    reconstruct, truncate)
from . import verify

__version__ = "0.1.0"
