"""The benchmark's workloads: fixed fracflow commands and their inputs.

Each workload is one `fracflow` subcommand on one config family.  A workload
run draws its list of inputs ("cases") from the benchmark seed; every case
is a complete config file text plus the CLI arguments that go with it.

``run-1d-slow`` uses ``random`` initial data, and its solve cost depends
heavily on the data seed (470 to 14,800 iterations, nearly all in one step
of the 50).  So it draws
from a fixed pool of data seeds whose reference reports are recorded in
``reference.json``.  The pool is split into strata by the reference
iteration count, and a run takes one data seed from each stratum.  Every
benchmark seed therefore gets the same spread of cheap and expensive solves,
and a held-out benchmark seed gives comparable work.  The two 2D workloads
use ``bump`` data, which no seed changes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

POOL_SIZE = 48          # data seeds 0..47 of run-1d-slow, each with a reference
STRATA = 12             # data seeds drawn per run-1d-slow run, one per stratum


@dataclass(frozen=True)
class Workload:
    name: str
    command: str        # fracflow subcommand
    extra_args: tuple   # arguments after --config
    config: dict        # config keys; ``seed`` is filled in per case
    seeded: bool        # True: cases come from the data-seed pool


WORKLOADS = {w.name: w for w in (
    Workload(
        name="run-1d-slow",
        command="run",
        extra_args=(),
        config={"dim": 1, "n_cells": 64, "collar_factor": 2, "s": 0.5,
                "p": 1.5, "q": 2, "h": 0.01, "t_end": 0.5,
                "preset": "random"},
        seeded=True),
    Workload(
        name="run-2d",
        command="run",
        extra_args=(),
        config={"dim": 2, "omega_min": "0,0", "omega_max": "1,1",
                "n_cells": 16, "collar_factor": 2, "s": 0.5, "p": 2, "q": 1,
                "h": 0.01, "t_end": 0.1, "preset": "bump"},
        seeded=False),
    Workload(
        name="converge-2d",
        command="converge",
        extra_args=("--levels", "3", "--gamma", "1"),
        config={"dim": 2, "omega_min": "0,0", "omega_max": "1,1",
                "n_cells": 32, "collar_factor": 1.5, "s": 0.5, "p": 2,
                "q": 1, "h": 0.01, "t_end": 0.02, "preset": "bump"},
        seeded=False),
)}


@dataclass(frozen=True)
class Case:
    key: str            # reference key: "<workload>" or "<workload>/seed<n>"
    config_text: str
    argv: tuple         # fracflow arguments, config file name included


def make_case(workload: Workload, data_seed: int | None) -> Case:
    cfg = dict(workload.config, output_dir="out")
    key = workload.name
    if data_seed is not None:
        cfg["seed"] = data_seed
        key += f"/seed{data_seed}"
    return Case(key=key,
                config_text="".join(f"{k} = {v}\n" for k, v in cfg.items()),
                argv=(workload.command, "--config", "run.cfg",
                      *workload.extra_args))


def strata(pool_iters: dict) -> list:
    """Pool data seeds sorted by reference iterations, split into STRATA
    equal groups (cheapest first)."""
    ranked = sorted(pool_iters, key=lambda s: (pool_iters[s], s))
    size = len(ranked) // STRATA
    return [ranked[i * size:(i + 1) * size] for i in range(STRATA)]


def draw_cases(workload: Workload, bench_seed: int, pool_iters: dict) -> list:
    """The cases one run executes, in order; a pure function of bench_seed."""
    if not workload.seeded:
        return [make_case(workload, None)]
    rng = random.Random(f"{workload.name}:{bench_seed}")
    seeds = [rng.choice(group) for group in strata(pool_iters)]
    rng.shuffle(seeds)
    return [make_case(workload, s) for s in seeds]
