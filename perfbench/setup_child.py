"""One timed set-up of a workload in a fresh process, then maybe a pass.

Imports the program, builds the workload's inputs and, for the pool
workload, starts a fresh worker pool; then prints ``ready`` with its own
breakdown.  The parent times the process from start to the ``ready``
line (a ``setup_s`` sample).

Without ``--pass`` the child then holds everything until its stdin
closes.  With ``--pass`` it runs one cold pass of a batch workload and
prints, as its last stdout line, the pass's unit times and speed probes,
its output checks and its peak memory (own plus pool workers').  A pass in its own process
finds nothing a previous pass left in memory: no grown arena buffers, no
loaded libraries, no in-process caches.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
import time

import harness

harness.pin_environment()

import batch_workloads  # noqa: E402
import plans  # noqa: E402

parser = argparse.ArgumentParser()
parser.add_argument("--workload", required=True)
parser.add_argument("--seed", type=int, required=True)
parser.add_argument("--smoke", action="store_true")
parser.add_argument("--pass", dest="run_pass", action="store_true")
args = parser.parse_args()

start = time.perf_counter()
if args.workload == "colony_scale":
    import repro.api  # noqa: F401
else:
    import repro.experiments  # noqa: F401
if args.workload == "service_mix":
    import repro.service.__main__  # noqa: F401
breakdown = {"import_s": time.perf_counter() - start}

pool = None
options: dict = {}
if args.workload == "repro_quick":
    studies = plans.quick_studies(args.seed, args.smoke)
    options["workers"] = 1
elif args.workload == "colony_scale":
    studies = [plans.colony_study(args.seed, args.smoke)]
    pool_start = time.perf_counter()
    pool = plans.start_pool(plans.POOL_WORKERS)
    breakdown["pool_start_s"] = time.perf_counter() - pool_start
    options["pool"] = pool
    options["probe"] = lambda: batch_workloads.pool_probe(pool)

print("ready " + json.dumps(breakdown), flush=True)
try:
    if not args.run_pass:
        sys.stdin.read()
    else:
        units, probes, results = batch_workloads.run_pass(studies, **options)
        # The pool's workers, if any, are this process's only children.
        peak_rss_mb = harness.self_peak_rss_mb() + sum(
            harness.pid_peak_rss_mb(child.pid) for child in multiprocessing.active_children()
        )
        print(json.dumps({"units": units, "probes": probes, "peak_rss_mb": peak_rss_mb,
                          **batch_workloads.check_pass(results)}))
finally:
    if pool is not None:
        pool.close()
