"""The repository's benchmark: one workload, one seed, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload repro_quick --seed 0 --seconds 12 --trace 0

``--workload all`` runs every workload in turn and prints a table.

Workloads: ``repro_quick`` (every registered study, cold, one process),
``colony_scale`` (large colonies on a two-process worker pool) and
``service_mix`` (closed-loop clients against the study-service daemon).
``--trace 0`` reports the end-to-end metrics of untraced passes;
``--trace 1`` adds a traced pass and reports the per-layer metrics.
``--smoke`` shrinks every input so a run takes seconds (no digest check,
relaxed percentile sample counts; for the self-tests, not for numbers).

Human-readable provenance (kernel backend, host probe, failed checks)
precedes the result on stdout, and the full run record (spans,
samples, host probe) goes to ``.perfbench_cache/records/``; the last line
of stdout is ``{"correct", "attempted", "failed", "metrics"}``.  A run whose
output checks fail still prints its line, with ``"correct": false``; a
run that cannot run at all exits non-zero without one.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import harness

#: Workloads, metrics and units, as declared next to the benchmark command.
MANIFEST = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]}
WORKLOADS = tuple(w["name"] for w in MANIFEST["workloads"])
END_TO_END = tuple(m["name"] for m in MANIFEST["end_to_end"])
PER_LAYER = tuple(m["name"] for m in MANIFEST["per_layer"])

#: Per-layer metrics (a name, or a prefix ending in ``.``) of layers a
#: workload does not run; they read 0 there.  Any other metric a run
#: could not measure is a failed check.
NOT_RUN = {
    "repro_quick": ("setup.pool_start_s", "setup.daemon_boot_s", "runner.pool_efficiency",
                    "runner.transport_bytes", "cache.", "service."),
    "colony_scale": ("setup.daemon_boot_s", "cache.", "service."),
    "service_mix": ("setup.pool_start_s", "runner.pool_efficiency", "runner.transport_bytes"),
}


def complete(workload: str, trace: bool, metrics: dict, problems: list[str]) -> dict:
    """Exactly the manifest's metrics of this kind, in its order.

    A layer the workload does not run reads 0; any other missing metric
    also reads 0 and is reported as a problem.
    """
    out = {}
    for name in PER_LAYER if trace else END_TO_END:
        if name in metrics:
            out[name] = metrics[name]
            continue
        out[name] = 0.0
        not_run = any(
            name == entry or (entry.endswith(".") and name.startswith(entry))
            for entry in NOT_RUN[workload]
        )
        if not (trace and not_run):
            problems.append(f"metric {name} was not measured")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (harness.SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {harness.SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    cleared = harness.pin_environment()
    host_start = harness.host_probe()
    build_s, backend = harness.prepare_program()
    print(f"kernel backend: {backend}; cext build {build_s:.3f} s")

    import batch_workloads
    import service_workload

    run = {
        "repro_quick": batch_workloads.repro_quick,
        "colony_scale": batch_workloads.colony_scale,
        "service_mix": service_workload.service_mix,
    }[args.workload]
    started = time.time()
    outcome = run(args.seed, args.seconds, bool(args.trace), args.smoke)
    host_end = harness.host_probe()
    metrics = outcome["metrics"]
    if args.trace:
        metrics["setup.cext_build_s"] = build_s
        metrics["host.ref_s"] = (host_start + host_end) / 2
    problems = outcome["problems"]
    metrics = complete(args.workload, bool(args.trace), metrics, problems)
    for problem in problems:
        print(f"check failed: {problem}")
    print(f"host probe {host_start:.4f} s at start, {host_end:.4f} s at end")
    for key, value in outcome["record"].get("raw", {}).items():
        print(f"{key} (wall clock, not calibrated): {value:.4f}")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    path = harness.write_record(
        name,
        {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
            "started": started,
            "kernel_backend": backend,
            "cleared_environment": sorted(cleared),
            "host_probe_s": [host_start, host_end],
            "metrics": metrics,
            "problems": problems,
            **outcome["record"],
        },
    )
    print(f"record: {path}")
    result = {
        "correct": not problems,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            key: {"value": value, "unit": UNITS[key]} for key, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in turn, each in its own process: a metric table.

    Exits non-zero when any workload fails to run or fails its checks.
    """
    import subprocess

    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd + (["--smoke"] if args.smoke else []),
                             capture_output=True, text=True, cwd=str(harness.ROOT))
        if out.returncode != 0:
            print(f"{workload}: exit {out.returncode}\n{out.stderr[-2000:]}")
            status = 1
            continue
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:30s} {metric['value']:14.4f} {metric['unit']}")
        status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
