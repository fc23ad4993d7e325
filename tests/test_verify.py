from dataclasses import replace

import numpy as np
import pytest

from fracflow import (FlowParams, GridFunction, assemble_kernel, build_grid,
                      eval_preset, gagliardo_seminorm_p, lq_power_integral,
                      reconstruct, run_flow)
from fracflow import kernel as kernel_mod
from fracflow import verify
from fracflow.verify import (CheckEntry, VerificationReport,
                             p_star, _degenerate_weight)
from oracles import (on_collar, readers_of, sobolev_probe_ratios,
                     st_seminorm_bruteforce, traced_peak, zero_function)


def make_problem(n_cells=16, dim=1, s=0.5, p=2.0, q=1.0, h=0.01, t_end=0.1, **kw):
    dom = build_grid(dim, 0.0, 1.0, n_cells, 2.0)
    params = FlowParams(q=q, h=h, t_end=t_end, **kw)
    return dom, params, assemble_kernel(dom, s, p)


def bump_run(**kw):
    dom, params, kernel = make_problem(**kw)
    traj = run_flow(eval_preset(dom, "bump", 1.0), kernel, params)
    return dom, params, kernel, traj


# --- report plumbing ---------------------------------------------------------

def test_entry_pass_recomputable():
    e = CheckEntry(name="X", ref="r", lhs=1.0, rhs=0.9, tol=0.2)
    assert e.passed and e.margin == pytest.approx(-0.1)
    assert e.to_dict()["pass"] == (e.lhs <= e.rhs + e.tol)
    e2 = CheckEntry(name="Y", ref="r", lhs=1.0, rhs=0.9, tol=0.01)
    assert not e2.passed
    e3 = CheckEntry(name="Z", ref="r", lhs=5.0, rhs=0.0, skipped="why")
    assert e3.passed and e3.to_dict()["skipped"] == "why"


def test_report_aggregation():
    rep = VerificationReport(meta={"k": 1}, entries=[
        CheckEntry(name="a", ref="r", lhs=0.0, rhs=1.0),
        CheckEntry(name="b", ref="r", lhs=2.0, rhs=1.0)])
    assert not rep.all_passed()
    d = rep.to_dict()
    assert [e["name"] for e in d["entries"]] == ["a", "b"]


def test_sobolev_exponents_gates():
    assert p_star(2, 0.4, 2.0) == pytest.approx(2 * 2 / (2 - 0.8))  # sp < n
    assert p_star(2, 0.4, 2.0) > 2.0
    assert p_star(1, 0.5, 2.0) is None  # sp = 1 = n
    assert p_star(1, 0.9, 3.0) is None  # sp = 2.7 > n


def test_degenerate_weight_resolves_zero():
    a = np.array([0.0, 0.0, 1.0])
    b = np.array([0.0, 2.0, 1.0])
    w = _degenerate_weight(a, b, -0.5)
    assert w[0] == 0.0
    assert w[1] == pytest.approx(2.0 ** -0.5)
    # exponent 0 must not turn 0 into 1
    assert _degenerate_weight(a, a, 0.0)[0] == 0.0


def test_rejects_unconverged_trajectory():
    # a trajectory is converged by construction, so no check meets another:
    # the constructor and dataclasses.replace both refuse a step above the
    # tolerance, and a NaN grad_norm as well
    dom, params, kernel, traj = bump_run()
    from dataclasses import replace
    from fracflow.rothe import RotheTrajectory
    for bad in (1.0, float("nan")):
        diags = traj.diagnostics[:-1] + (
            replace(traj.diagnostics[-1], grad_norm=bad),)
        with pytest.raises(ValueError, match="unconverged"):
            replace(traj, diagnostics=diags)
        with pytest.raises(ValueError, match="unconverged"):
            RotheTrajectory(params=params, kernel=kernel, u=traj.u,
                            diagnostics=diags,
                            _u0_energies=traj._u0_energies)


# --- discrete-exact estimates ------------------------------------------------

def test_step_sum_matches_the_per_step_loop():
    # _step_sum reduces the rows of all steps in one call; each row's sum
    # must be that step's own np.sum bit for bit, for rows shorter and
    # longer than numpy's pairwise summation block
    dom, params, kernel, traj = bump_run(n_cells=4, h=0.02, t_end=0.1)
    h, vol = params.h, dom.vol
    rng = np.random.default_rng(3)

    def f(a, b):
        return _degenerate_weight(a, b, -0.5) * ((a - b) / h) ** 2

    for width in (3, 64, 129, 256, 1000, 4099):
        vals = rng.uniform(-1.0, 1.0, (traj.n_steps + 1, width))
        loop = sum(h * vol * float(np.sum(f(vals[m], vals[m - 1])))
                   for m in range(1, traj.n_steps + 1))
        assert verify._step_sum(traj, vals, f) == loop


def test_all_checks_vacuous_on_zero_data():
    dom, params, kernel = make_problem()
    traj = run_flow(zero_function(dom), kernel, params)
    entries = verify.check_energy_estimates(traj)
    entries += verify.check_time_derivative_bounds(traj)
    entries.append(verify.check_max_principle(traj))
    entries += verify.check_truncation_energy(traj, 2)
    for e in entries:
        assert e.lhs == 0.0 and e.rhs == 0.0 and e.passed


def test_energy_estimates_bump():
    dom, params, kernel, traj = bump_run(n_cells=32, h=0.01, t_end=0.5)
    entries = verify.check_energy_estimates(traj)
    names = [e.name for e in entries]
    assert names == ["E1", "E2", "E3", "E4"]
    for e in entries:
        assert e.passed
    assert entries[0].margin > 0.0
    assert entries[1].margin > 0.0
    assert entries[2].margin > 0.0
    # the decay margin is reported against zero
    assert entries[3].rhs == 0.0 and entries[3].lhs < 0.0


def test_time_derivative_bounds_q1_constants_are_one():
    dom, params, kernel, traj = bump_run(q=1.0)
    t1 = verify.check_time_derivative_bounds(traj)[0]
    s0 = gagliardo_seminorm_p(GridFunction(dom, traj.u[0]), kernel)
    assert t1.constant_used == pytest.approx(1.0)
    assert t1.rhs == pytest.approx(s0 / (2.0 * kernel.p))
    assert t1.passed


def test_time_derivative_bounds_q2_records_constants():
    dom, params, kernel, traj = bump_run(q=2.0)
    entries = verify.check_time_derivative_bounds(traj)
    assert [e.name for e in entries] == ["T1", "T2"]
    for e in entries:
        assert e.passed and e.constant_used is not None
        assert "c1(" in e.note and "c2(" in e.note


def test_no_l1_entry_below_q1():
    dom, params, kernel, traj = bump_run(q=0.5)
    entries = verify.check_time_derivative_bounds(traj)
    assert [e.name for e in entries] == ["T1"]
    assert entries[0].passed


def test_max_principle_bound_and_scaling():
    dom, params, kernel = make_problem(q=1.5, p=2.5)
    for lam in (1.0, 3.0):
        u0 = eval_preset(dom, "step", lam)
        traj = run_flow(u0, kernel, params)
        e = verify.check_max_principle(traj)
        assert e.passed
        assert e.rhs == lam
        assert e.lhs <= lam + e.tol


def test_truncation_energy_ell_independent_at_q1():
    dom, params, kernel, traj = bump_run(q=1.0)
    rhs_seen = []
    for ell in (2, 8, 32):
        entries = verify.check_truncation_energy(traj, ell)
        assert all(e.passed for e in entries)
        rhs_seen.append(entries[0].rhs)
    assert abs(rhs_seen[0] - rhs_seen[1]) <= 1e-12 * rhs_seen[0]
    assert abs(rhs_seen[0] - rhs_seen[2]) <= 1e-12 * rhs_seen[0]


def test_truncation_energy_slow_and_fast_branches():
    _, params, kernel, traj = bump_run(q=2.0)
    entries = verify.check_truncation_energy(traj, 4)
    assert [e.name for e in entries] == ["TRUNC-plus-ell4", "TRUNC-minus-ell4"]
    assert all(e.passed for e in entries)

    _, params, kernel, traj = bump_run(q=0.5)
    entries = verify.check_truncation_energy(traj, 4)
    assert all(e.passed for e in entries)
    assert all("min" in e.note for e in entries)


def test_truncation_fast_branch_needs_unit_step():
    dom, params, kernel = make_problem(q=0.5, h=2.0, t_end=4.0)
    traj = run_flow(eval_preset(dom, "bump", 1.0), kernel, params)
    entries = verify.check_truncation_energy(traj, 2)
    assert all(e.skipped is not None for e in entries)


def test_weak_residual_tracks_solver_tolerance():
    dom, params, kernel, traj = bump_run(p=2.5, q=1.5)
    e = verify.check_weak_residual(traj)
    assert e.passed
    assert e.lhs <= traj.tol_abs
    # loosened tolerance: the residual lands between the tight and loose levels
    loose = replace(params, solver_tol=1e-3)
    traj2 = run_flow(eval_preset(dom, "bump", 1.0), kernel, loose)
    e2 = verify.check_weak_residual(traj2)
    assert 1e-9 < e2.lhs <= traj2.tol_abs


def test_weak_residual_reads_the_steps_not_the_solver():
    # RESID recomputes each residual from traj.u: a trajectory rebuilt with
    # one step off by 0.1%, or with a nan in it, keeps the solver's
    # diagnostics, which is all that construction reads, and still fails
    for p, q in ((2.0, 1.0), (1.5, 0.5)):
        dom, params, kernel = make_problem(p=p, q=q, t_end=0.3)
        traj = run_flow(eval_preset(dom, "random", 1.0, seed=3), kernel,
                        params)
        assert traj.n_steps == 30 and np.any(traj.u[25])
        assert verify.check_weak_residual(traj).passed
        for tamper in (lambda row: row * 1.001, lambda row: row * np.nan):
            u = traj.u.copy()
            u[25] = tamper(u[25])
            tampered = replace(traj, u=u)
            assert tampered.diagnostics == traj.diagnostics
            assert not verify.check_weak_residual(tampered).passed


def test_zero_run_residual_zero():
    dom, params, kernel = make_problem()
    traj = run_flow(zero_function(dom), kernel, params)
    assert verify.check_weak_residual(traj).lhs == 0.0


# --- continuum inequalities --------------------------------------------------

def test_poincare_single_node_hand_case():
    # s=0.5, p=2, diam=1: constant = (sp/(n alpha_n)) (2d)^sp = (1/2)*2 = 1,
    # so the bound reads vol <= seminorm^p for a unit indicator
    dom, params, kernel = make_problem(n_cells=8, s=0.5, p=2.0)
    vals = np.zeros(dom.n_interior)
    vals[3] = 1.0
    u = GridFunction(dom, vals)
    e = verify.check_poincare(u, kernel, params)
    assert e.constant_used == pytest.approx(1.0)
    assert e.rhs == pytest.approx(gagliardo_seminorm_p(u, kernel))
    assert e.lhs == pytest.approx(dom.vol)
    assert e.passed


def test_poincare_scale_invariant_verdict():
    dom, params, kernel = make_problem(n_cells=16, s=0.3, p=2.5)
    rng = np.random.default_rng(0)
    vals = rng.uniform(-1, 1, dom.n_nodes)[dom.interior_mask]
    u = GridFunction(dom, vals)
    e1 = verify.check_poincare(u, kernel, params)
    e2 = verify.check_poincare(GridFunction(dom, 17.0 * vals), kernel, params)
    assert e1.passed == e2.passed
    assert e2.lhs == pytest.approx(17.0 ** 2.5 * e1.lhs, rel=1e-12)


def test_poincare_zero_function_skipped():
    dom, params, kernel = make_problem()
    e = verify.check_poincare(zero_function(dom), kernel, params)
    assert e.skipped is not None and e.passed


def test_poincare_random_sweep():
    dom, params, kernel = make_problem(n_cells=32, s=0.5, p=2.0)
    rng = np.random.default_rng(101)
    for _ in range(100):
        vals = rng.uniform(-1, 1, dom.n_nodes)[dom.interior_mask]
        e = verify.check_poincare(GridFunction(dom, vals), kernel, params)
        assert e.passed


# --- space-time seminorm and interpolation bound -----------------------------

def test_st_seminorm_zero_and_scaling():
    dom, params, kernel = make_problem(n_cells=4)
    vals = np.zeros((4, dom.n_nodes))
    assert verify.spacetime_seminorm_values(vals, dom, 0.1, 0.25) == 0.0
    # indicator of Omega, constant in time: positive, and 1-homogeneous
    ind = np.tile(dom.interior_mask.astype(float), (4, 1))
    v1 = verify.spacetime_seminorm_values(ind, dom, 0.1, 0.25)
    v2 = verify.spacetime_seminorm_values(2.0 * ind, dom, 0.1, 0.25)
    assert v1 > 0.0 and np.isfinite(v1)
    assert v2 == pytest.approx(2.0 * v1, rel=1e-14)


def test_st_seminorm_matches_bruteforce_oracle():
    dom, params, kernel, traj = bump_run(n_cells=4, h=0.02, t_end=0.08)
    val = verify.spacetime_seminorm_w1(traj, 0.25, 8)
    taus = (np.arange(8) + 0.5) * (params.t_end / 8)
    vals = on_collar(dom, reconstruct(traj, taus)[0])
    oracle = st_seminorm_bruteforce(vals, dom, params.t_end / 8, 0.25)
    assert abs(val - oracle) <= 1e-12 * oracle


def st_support_cases():
    """(grid, sampled values) pairs whose sums run over the smallest box
    that holds the data's support: noise on every node, and in 1D and 2D
    zero-exterior data, the step preset (support strictly inside Omega),
    data with zero columns, and zero-exterior data plus one nonzero
    exterior node."""
    dom = build_grid(2, 0.0, 1.0, 2, 2.0)  # 16 nodes
    rng = np.random.default_rng(6)
    cases = [(dom, rng.uniform(-1.0, 1.0, (3, dom.n_nodes)))]
    for dom in (build_grid(1, 0.0, 1.0, 8, 2.0),      # 16 nodes
                build_grid(2, 0.0, 1.0, 4, 1.5)):     # 36 nodes
        inside = dom.interior_mask
        step = on_collar(dom, eval_preset(dom, "step", 1.0).values)
        assert 0 < np.count_nonzero(step) < dom.n_interior
        noise = rng.uniform(-1.0, 1.0, (3, dom.n_nodes))
        cols = noise * (rng.uniform(size=dom.n_nodes) < 0.5)
        assert 0 < np.count_nonzero(cols.any(axis=0)) < dom.n_nodes
        assert cols[:, ~inside].any()
        one_out = noise * inside
        one_out[1, np.flatnonzero(~inside)[3]] = 0.7
        cases += [(dom, noise * inside),
                  (dom, np.outer([1.0, -0.5, 2.0], step)),
                  (dom, cols), (dom, one_out)]
    return cases


def test_st_seminorm_2d_matches_bruteforce():
    for dom, vals in st_support_cases():
        got = verify.spacetime_seminorm_values(vals, dom, 0.05, 0.3)
        oracle = st_seminorm_bruteforce(vals, dom, 0.05, 0.3)
        assert abs(got - oracle) <= 1e-12 * oracle


def test_streamed_st_sums_match_bruteforce_across_row_blocks(monkeypatch):
    # with row blocks of a third of the support or less every support spans
    # three or more blocks, each adding its rows' share of every slab pair's sum; the space-time
    # sum (every lag) and the spatial sum still match the literal loops.
    # A single slab's space-time sum at dt = 1 is its spatial sum with the
    # exponent one higher, so the spatial oracle is the space-time one,
    # slab by slab, at s' = s_bar - 1
    row_blocks, counts = verify._row_blocks, []

    def spy(*args, **kwargs):
        n = 0
        for item in row_blocks(*args, **kwargs):
            n += 1
            yield item
        counts.append(n)

    monkeypatch.setattr(verify, "_row_blocks", spy)
    s_bar = 0.4
    for dom, vals in st_support_cases():
        support = vals.any(axis=0)
        monkeypatch.setattr(kernel_mod, "_BLOCK_BYTES",
                            8 * dom.n_nodes * max(1, support.sum() // 3))
        counts.clear()
        got = verify.spacetime_seminorm_values(vals, dom, 0.05, 0.3)
        oracle = st_seminorm_bruteforce(vals, dom, 0.05, 0.3)
        assert abs(got - oracle) <= 1e-12 * oracle
        spatial = verify._slab_pair_sums(vals, dom, dom.dim + s_bar, 0, 0.0)
        oracle = sum(st_seminorm_bruteforce(v[None], dom, 1.0, s_bar - 1.0)
                     for v in vals)
        assert abs(spatial - oracle) <= 1e-12 * oracle
        # one table per lag, then the spatial one
        assert len(counts) == vals.shape[0] + 1 and min(counts) >= 3


def test_st_seminorm_guard():
    # refused from the shapes, before one (t_grid, n_nodes) array is sampled
    dom, params, kernel, traj = bump_run(n_cells=4)
    def refused():
        with pytest.raises(ValueError, match="space-time sum too large"):
            verify.spacetime_seminorm_w1(traj, 0.25, 10 ** 5)

    assert traced_peak(refused)[1] < 8 * 10 ** 5 * dom.n_nodes


def test_st_sobolev_zero_and_time_constant():
    dom, params, kernel = make_problem(n_cells=8)
    zero = np.zeros((6, dom.n_nodes))
    e = verify.check_spacetime_sobolev_values(zero, zero, dom, 0.5, 0.25, 0.4)
    assert e.lhs == 0.0 and e.rhs == 0.0 and e.passed
    # time-constant profile: the derivative term drops out
    prof = np.tile(dom.interior_mask.astype(float), (6, 1))
    e = verify.check_spacetime_sobolev_values(prof, 0.0 * prof, dom, 0.5,
                                              0.25, 0.4)
    assert e.passed and e.lhs > 0.0


def test_st_sobolev_on_trajectory():
    dom, params, kernel, traj = bump_run(n_cells=8, h=0.02, t_end=0.2)
    e = verify.check_spacetime_sobolev(traj, 0.25, 0.4, 8)
    assert e.passed and e.lhs > 0.0
    assert "c_time" in e.note
    with pytest.raises(ValueError):
        verify.check_spacetime_sobolev(traj, 0.4, 0.25, 8)


def test_st_sobolev_records_its_own_skip():
    # node_count^2 * t_grid^2 above 1e8: the check returns its skipped entry
    # before sampling anything, so not even one (t_grid, n_nodes) array is
    # allocated
    dom, params, kernel, traj = bump_run()
    t_grid = 20000
    assert not verify.spacetime_sum_fits(dom.n_nodes, t_grid)
    e, peak = traced_peak(
        lambda: verify.check_spacetime_sobolev(traj, 0.25, 0.4, t_grid))
    assert (e.name, e.ref, e.lhs, e.rhs) == (
        "ST-SOBOLEV", "spacetime-interpolation-bound", 0.0, 0.0)
    assert e.skipped == "space-time sum guard exceeded" and e.passed
    assert peak < 8 * t_grid * dom.n_nodes


def test_only_the_space_time_sums_read_their_guard():
    # the guard has one reader per reaction: the skip (asked by run's and
    # ineq's space-time checks before they sample) and the refusal
    assert readers_of("spacetime_sum_fits") == {
        "verify._spacetime_skip", "verify._require_spacetime_fits"}


def test_st_sobolev_sums_over_the_support(monkeypatch):
    # every W^{s,1} sum of the check goes through the one pair sum, at r = 1,
    # one row block of the box of the data's support (here the interior)
    # at a time: each lag and the spatial term build one offset table and
    # read the support's box of it, whose row blocks cover its rows once,
    # in order, each against the whole box, so no weight to a node outside
    # it is formed.  The interior's lines (its rows) fit in the block
    # budget, so each block is as many whole lines as the budget holds;
    # and the pair terms of one pair sum, a stack of slab pairs, are no
    # more than a block's weights to every node
    dom, params, kernel, traj = bump_run(dim=2, n_cells=4, h=0.02, t_end=0.1)
    per_block = 5
    monkeypatch.setattr(kernel_mod, "_BLOCK_BYTES", 8 * dom.n_nodes * per_block)
    offset_weights, box_weights = verify._offset_weights, verify._box_weights
    row_blocks, pair_sum = verify._row_blocks, verify._pair_sum
    offsets, boxes, blocks, sums = [], [], [], []

    def spy_offsets(*args, **kwargs):
        offsets.append(args[1:])
        return offset_weights(*args, **kwargs)

    def spy_box(*args):
        view, box, total = box_weights(*args)
        boxes.append(box)
        return view, box, total

    def spy_blocks(*args):
        blocks.append([])
        for lo, block, outside in row_blocks(*args):
            blocks[-1].append((lo, block.shape, outside.size))
            yield lo, block, outside

    def spy_sum(a, b, block, boundary, r, buf=None, rows=slice(None)):
        sums.append((r, len(a), block.shape, buf.shape))
        return pair_sum(a, b, block, boundary, r, buf, rows)

    monkeypatch.setattr(verify, "_offset_weights", spy_offsets)
    monkeypatch.setattr(verify, "_box_weights", spy_box)
    monkeypatch.setattr(verify, "_row_blocks", spy_blocks)
    monkeypatch.setattr(verify, "_pair_sum", spy_sum)
    t_grid = 6
    e = verify.check_spacetime_sobolev(traj, 0.25, 0.4, t_grid)
    assert e.passed and e.lhs > 0.0
    support = dom.interior_mask
    n_support = dom.n_interior
    line = dom.interior_shape[-1]
    rows = per_block // line * line
    assert dom.n_nodes > n_support > 2 * rows and line < per_block < 2 * line
    assert len(offsets) == len(boxes) == len(blocks) == t_grid + 1
    assert all(np.array_equal(box, support) for box in boxes)
    n_blocks = -(-n_support // rows)
    for table in blocks:
        assert [lo for lo, _, _ in table] == list(range(0, n_support, rows))
        for lo, shape, size in table:
            assert shape == (size, n_support)
            assert size == min(rows, n_support - lo)
    # t_grid spatial slab pairs and one per slab pair (k <= k') in time, per
    # block, in fewer pair sums than slab pairs
    n_pairs = n_blocks * (t_grid + t_grid * (t_grid + 1) // 2)
    assert sum(stack for _, stack, _, _ in sums) == n_pairs > len(sums)
    for r, stack, block, buf in sums:
        assert r == 1.0 and buf == (stack, *block)
        assert block[0] <= per_block and block[1] == n_support
        assert stack * block[0] * block[1] <= per_block * dom.n_nodes


def test_zero_data_form_no_block(monkeypatch):
    # data with no support have no box: each sum is 0 and forms no block
    dom = build_grid(2, 0.0, 1.0, 4, 2.0)
    blocks, row_blocks = [], verify._row_blocks

    def spy(*args):
        for item in row_blocks(*args):
            blocks.append(item)
            yield item

    monkeypatch.setattr(verify, "_row_blocks", spy)
    zero = np.zeros((4, dom.n_nodes))
    assert verify._slab_pair_sums(zero, dom, dom.dim + 0.4, 0, 0.0) == 0.0
    assert verify._slab_pair_sums(zero, dom, dom.dim + 1.25, 2, 0.1) == 0.0
    assert verify.spacetime_seminorm_values(zero, dom, 0.05, 0.25) == 0.0
    assert blocks == []


def test_st_sobolev_working_set_is_bounded():
    # run-2d's grid with data nonzero on all 1024 nodes, as in ineq's
    # synthetic case: the whole weight table or one whole pair matrix would
    # be 8 MiB each.  Row blocks of 32 nodes keep the traced peak of the
    # check under 1 MiB
    dom = build_grid(2, (0.0, 0.0), (1.0, 1.0), 16, 2.0)
    assert dom.n_nodes == 1024
    rng = np.random.default_rng(9)
    vals = rng.uniform(0.2, 1.0, (8, dom.n_nodes))
    dvals = rng.uniform(-1.0, 1.0, (8, dom.n_nodes))
    e, peak = traced_peak(lambda: verify.check_spacetime_sobolev_values(
        vals, dvals, dom, 0.1, 0.25, 0.4))
    assert e.passed and e.lhs > 0.0
    assert peak < 4 * 2 ** 20 < 8 * dom.n_nodes ** 2


def test_st_sobolev_on_run_2d_holds_one_block_at_a_time():
    # run-2d's trajectory: 2D, 16 cells, collar 2, bump data, t_grid = 8.
    # Besides the sampled values and slopes on the 1024 collar nodes, the
    # check holds one 32-row block of the 256-node support's box at a time:
    # its weights to the box, copied out of the offset table's view, and
    # the pair terms within the block budget, with numpy's two iteration
    # buffers while they are formed; the offset table, its window sums and
    # the box's samples take under 128 KiB more.  No weight to a node
    # outside the box is formed
    dom, params, kernel, traj = bump_run(dim=2, n_cells=16)
    assert (dom.n_nodes, dom.n_interior) == (1024, 256)
    t_grid = 8
    samples = 2 * 8 * t_grid * dom.n_nodes
    block = kernel_mod._BLOCK_BYTES * dom.n_interior // dom.n_nodes
    e, peak = traced_peak(
        lambda: verify.check_spacetime_sobolev(traj, 0.25, 0.4, t_grid))
    assert e.passed and e.lhs > 0.0
    assert peak < (samples + block + 2 * 8 * np.getbufsize()
                   + kernel_mod._BLOCK_BYTES + (128 << 10))


def test_initial_trend_is_informational():
    dom, params, kernel, traj = bump_run(n_cells=8, h=0.01, t_end=0.2)
    e = verify.check_initial_trend(traj)
    assert e.skipped is not None and e.passed
    # the gap shrinks toward t = 0
    assert e.lhs < e.rhs


# --- refinement study and level sets -----------------------------------------

def test_cauchy_study_holds_one_level_at_a_time():
    # converge-2d's config: 2D, 32 cells, collar 1.5, bump data, h = 0.01,
    # t_end = 0.02, three levels.  The study holds one level's run and
    # sampling, the previous level's samples and two more arrays of their
    # shape: no trajectory outlives its sampling, and no level's positive
    # or negative part is kept
    dom = build_grid(2, 0.0, 1.0, 32, 1.5)
    params = FlowParams(q=1.0, h=0.01, t_end=0.02)
    kernel = assemble_kernel(dom, 0.5, 2.0)
    u0 = eval_preset(dom, "bump", 1.0)
    finest = replace(params, h=params.h / 4)
    taus = (np.arange(8) + 0.5) * finest.h
    run_flow(u0, kernel, finest)        # loads numpy.fft
    (values, _), one_level = traced_peak(
        lambda: reconstruct(run_flow(u0, kernel, finest), taus))
    (entries, _), peak = traced_peak(lambda: verify.cauchy_refinement_study(
        u0, kernel, params, levels=3, gamma=1.0, s_prime=0.25))
    assert [e.passed for e in entries] == [True, True]
    assert peak < one_level + 3 * values.nbytes


def test_cauchy_zero_data_vacuous():
    dom, params, kernel = make_problem(h=0.04, t_end=0.2)
    entries, rows = verify.cauchy_refinement_study(
        zero_function(dom), kernel, params, levels=3, gamma=1.0,
        s_prime=0.25)
    assert all(e.passed for e in entries)
    assert [row[3:] for row in rows] == [[0.0, 0.0]] * 2


def test_cauchy_bump_contracts():
    dom, params, kernel = make_problem(n_cells=16, h=0.04, t_end=0.2)
    u0 = eval_preset(dom, "bump", 1.0)
    entries, rows = verify.cauchy_refinement_study(
        u0, kernel, params, levels=3, gamma=1.0, s_prime=0.25)
    plus = next(e for e in entries if e.name == "CAUCHY-plus")
    d = [row[3] for row in rows]        # the d_plus column
    assert d[0] > d[1] > 0.0
    assert plus.passed and plus.lhs == d[1] / d[0]


def test_cauchy_validates_arguments():
    dom, params, kernel = make_problem(h=0.04, t_end=0.2)
    u0 = eval_preset(dom, "bump", 1.0)
    with pytest.raises(ValueError):
        verify.cauchy_refinement_study(u0, kernel, params, levels=2,
                                       s_prime=0.25)
    with pytest.raises(ValueError):
        verify.cauchy_refinement_study(u0, kernel, params, gamma=0.5,
                                       s_prime=0.25)
    with pytest.raises(ValueError):
        # gamma above the admissible range for these exponents
        verify.cauchy_refinement_study(u0, kernel, params, gamma=50.0,
                                       s_prime=0.25)


def test_chebyshev_level_sets():
    # the level set of a one-step flow's last step, from bump data
    def level_set(s, amplitude):
        dom, params, kernel = make_problem(s=s, p=2.0, h=0.01, t_end=0.01)
        traj = run_flow(eval_preset(dom, "bump", amplitude), kernel, params)
        return verify.chebyshev_level_sets(traj, 2)

    # sp >= n: gated off
    assert level_set(0.5, 1.0).skipped is not None

    # sp < n, bounded data below the level: empty level set
    e = level_set(0.25, 1.0)
    assert e.lhs == 0.0 and e.passed and e.constant_used > 0.0

    # non-vacuous level set still inside the bound
    e = level_set(0.25, 5.0)
    assert e.lhs > 0.0 and e.passed


@pytest.mark.parametrize("dim,n_cells,s,p", [(1, 64, 0.5, 1.5),
                                             (2, 16, 0.5, 2.0)])
def test_levelset_constant_comes_from_a_bump_probe(dim, n_cells, s, p):
    # on the kernels of the two run workloads (collar 2), the measured
    # embedding constant is the best smooth-bump ratio bit for bit, and no
    # nodal-noise probe comes within a factor 2 of it (3.7x and 2.9x below
    # today): the noise half of the probe set never sets the constant
    kernel = assemble_kernel(build_grid(dim, 0.0, 1.0, n_cells, 2.0), s, p)
    bump, noise = sobolev_probe_ratios(kernel)
    assert len(bump) == len(noise) == verify._SOBOLEV_PROBES // 2
    c_sob = verify.measure_sobolev_constant(kernel)
    assert c_sob == max(bump)
    assert max(noise) <= 0.5 * c_sob


def test_chebyshev_2d_run():
    dom, params, kernel = make_problem(n_cells=6, dim=2, s=0.4, p=2.0,
                                       h=0.02, t_end=0.04)
    u0 = eval_preset(dom, "bump", 1.0)
    traj = run_flow(u0, kernel, params)
    e = verify.chebyshev_level_sets(traj, 2)
    assert e.passed and e.constant_used > 0.0
