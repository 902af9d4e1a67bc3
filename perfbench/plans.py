"""Workload inputs, generated from the benchmark seed.

The program receives only what these functions build: registered studies
(``repro_quick``), one colony-size study (``colony_scale``) and the
per-client job plans of the study service (``service_mix``).  The same
seed always yields the same inputs.
"""

from __future__ import annotations

import os
import random

#: Cheap registered studies standing in for all of them in smoke mode.
SMOKE_STUDIES = ("E1", "E6", "E8", "E13")

#: Pool size of ``colony_scale``: one worker per CPU of the 2-CPU host the
#: benchmark was sized on.
POOL_WORKERS = 2

#: ``service_mix`` clients, and the cells and trials of each client study.
SERVICE_CLIENTS = 2
SERVICE_SIZES = (256, 512, 1024)
SERVICE_TRIALS = 16
#: Each block of ``PLAN_BLOCK`` consecutive jobs of a client holds exactly
#: ``COLD_PER_BLOCK`` new studies; the rest repeat the client's own
#: earlier studies.  Fixed counts per block keep the warm/cold shares
#: identical across seeds.
PLAN_BLOCK = 10
COLD_PER_BLOCK = 3


def quick_studies(seed: int, smoke: bool = False) -> list:
    """Every registered study at its ``quick`` size (a subset in smoke mode)."""
    import repro.experiments  # noqa: F401  (registers the studies)
    from repro.api import STUDIES

    names = SMOKE_STUDIES if smoke else STUDIES.names()
    return [STUDIES.build(name, quick=True, base_seed=seed) for name in names]


def colony_study(seed: int, smoke: bool = False):
    """``simple`` and ``optimal`` at k = 8 over two colony sizes, plus one
    perturbed ``simple`` cell (crash faults, delays, count noise).

    Each cell runs two default chunks of trials, so both pool workers get
    one chunk per cell.
    """
    from repro.api import Study, Sweep, cases, default_batch_chunk, nests_spec

    sizes = (256, 1024) if smoke else (4096, 65536)

    def trials(n: int) -> int:
        return 4 if smoke else POOL_WORKERS * default_batch_chunk(n)

    rows = [
        {"algorithm": algorithm, "n": n, "trials": trials(n)}
        for algorithm in ("simple", "optimal")
        for n in sizes
    ]
    rows.append(
        {
            "algorithm": "simple",
            "n": sizes[0],
            "trials": trials(sizes[0]),
            "fault_plan": {"crash_fraction": 0.1},
            "delay_model": {"delay_probability": 0.1},
            "noise": {"kind": "count", "relative_sigma": 0.25},
            "criterion": "good_healthy",
        }
    )
    for index, row in enumerate(rows):
        row["seed"] = seed * 1000 + index
    return Study(
        name="colony_scale",
        description="colony-size scaling of Algorithms 2 and 3 at k = 8",
        sweep=Sweep(
            base={
                "nests": nests_spec("binary", k=8, good=list(range(1, 8))),
                "max_rounds": 50_000,
            },
            axes=(cases(*rows),),
        ),
        trials=1,
    )


def start_pool(workers: int):
    """A started :class:`~repro.api.WorkerPool`.

    The pool forks lazily on its first task, and then forks every worker
    at once; waiting for one task per worker makes set-up end with every
    worker running, before the caller's first timed operation.
    """
    from repro.api import WorkerPool

    pool = WorkerPool(workers)
    futures = [pool.executor().submit(os.getpid) for _ in range(workers)]
    for future in futures:
        future.result()
    return pool


def service_study(seed: int, client: int, index: int) -> dict:
    """Study ``index`` of a client: three ``simple`` cells, n 256 to 1024.

    Cell seeds are unique per (seed, client, index), so a new study never
    shares a cell with another client's or with an earlier one.
    """
    base = ((seed * SERVICE_CLIENTS + client) * 1_000_000 + index) * len(SERVICE_SIZES)
    rows = [{"n": n, "seed": base + j} for j, n in enumerate(SERVICE_SIZES)]
    return {
        "name": f"svc-{seed}-{client}-{index}",
        "description": "service_mix client study",
        "sweep": {
            "base": {
                "algorithm": "simple",
                "nests": {"$nests": {"factory": "binary", "k": 4, "good": [1, 3]}},
            },
            "axes": [{"kind": "cases", "cases": rows}],
            "exclude": [],
        },
        "trials": SERVICE_TRIALS,
        "metrics": ["n_trials", "n_converged", "success_rate", "median_rounds"],
        "backend": "auto",
    }


def client_plan(seed: int, client: int, jobs: int) -> list[tuple[str, int]]:
    """A client's job sequence: ``("cold", i)`` submits its new study ``i``,
    ``("warm", i)`` repeats its earlier study ``i``.

    The first job is cold, so every warm job has a study to repeat.
    """
    rng = random.Random(f"perfbench-service:{seed}:{client}")
    plan: list[tuple[str, int]] = []
    created = 0
    while len(plan) < jobs:
        if not plan:
            cold = {0, *rng.sample(range(1, PLAN_BLOCK), COLD_PER_BLOCK - 1)}
        else:
            cold = set(rng.sample(range(PLAN_BLOCK), COLD_PER_BLOCK))
        for slot in range(PLAN_BLOCK):
            if slot in cold:
                plan.append(("cold", created))
                created += 1
            else:
                plan.append(("warm", rng.randrange(created)))
    return plan[:jobs]


def runner_plan(count: int) -> list[tuple[int, int]]:
    """The warm studies the runner phase repeats: (client, index) pairs.

    The earliest new studies of each client, which the closed loop always
    completes before the runner phase starts.
    """
    return [(i % SERVICE_CLIENTS, i // SERVICE_CLIENTS) for i in range(count)]
