"""``repro_quick`` and ``colony_scale``: passes of cold studies.

Both time passes of cold studies (``cache=None``): ``repro_quick`` runs
every registered study one after another on one process,
``colony_scale`` runs the colony-size study on a two-process
:class:`~repro.api.WorkerPool`.  Every untraced pass runs in a fresh
process (``setup_child.py --pass``), with a fresh pool for
``colony_scale``, so no pass inherits memory, libraries or caches from
another.  The timed set-up of each such process is also a ``setup_s``
sample.

A pass is driven through :class:`~repro.api.CellScheduler` exactly as
:func:`repro.api.run_study` drives it, so each cell's time is seen as it
is yielded.  Between units (a cell, or one study's fold into its table)
nothing of the program runs, and there the pass takes a short host-speed
probe (:func:`harness.speed_probe`).  ``sweep_s`` adds up, unit by unit,
the median over the run's cold passes of the unit's host-calibrated time
(:func:`harness.calibrated`, with the probes on either side of it).  On
the host this benchmark was sized on, the same work takes up to twice as
long from one minute to the next, and a slow spell can cover a whole
run; the raw sum is recorded next to the calibrated one.
"""

from __future__ import annotations

import json
import time

import harness
import instrument
import plans

#: Cold passes per untraced run, at least (more while ``--seconds`` is not
#: reached).  Two calibrated ``repro_quick`` passes in one run agreed with
#: each other about as well as with a single pass (a cv of 0.042 against
#: 0.046 over runs), while two ``colony_scale`` passes halved its cv.  A
#: traced run needs only one untraced pass, as the overhead baseline.
QUICK_PASSES = 1
COLONY_PASSES = 2


def run_pass(studies, probe=harness.speed_probe, **kwargs):
    """One cold pass over ``studies``: (seconds per unit, probes, results).

    The units cover the whole pass: each cell as the scheduler yields it
    (the first also pays for expansion), then the study's fold.  The
    ``len(units) + 1`` speed probes (``probe()``) sit before, between and
    after the units, outside their times.
    """
    from repro.api import CellScheduler
    from repro.api.scheduler import fold_study_result

    units, results = [], []
    probe()  # the first reading of a fresh process runs cold: not kept
    probes = [probe()]
    for study in studies:
        start = time.perf_counter()
        with CellScheduler(study, cache=None, **kwargs) as scheduler:
            cells = []
            for cell in scheduler.outcomes():
                units.append(time.perf_counter() - start)
                probes.append(probe())
                cells.append(cell)
                start = time.perf_counter()
            results.append(fold_study_result(study, cells, cached=False))
        units.append(time.perf_counter() - start)
        probes.append(probe())
    return units, probes, results


def pool_probe(pool) -> float:
    """A speed probe in every worker of ``pool`` at once: their mean.

    The pool's kernels keep every worker busy, so the host's speed is
    read the same way, on the workers' processes with all of them running.
    """
    futures = [pool.executor().submit(harness.speed_probe) for _ in range(pool.workers)]
    return sum(f.result() for f in futures) / len(futures)


def calibrated_units(units, probes) -> list[float]:
    """Each unit's seconds at the reference speed, from its two probes."""
    return [harness.calibrated(t, probes[i], probes[i + 1]) for i, t in enumerate(units)]


def cold_pass(workload: str, seed: int, smoke: bool) -> dict:
    """One untraced cold pass in a fresh process (``setup_child.py --pass``).

    Returns the pass's unit times, peak memory, cell counts and table
    digest (:func:`check_pass`), and under ``"setup"`` the timed set-up
    of its process, which counts as a ``setup_s`` sample.
    """
    cmd = harness.setup_command(workload, seed, smoke) + ["--pass"]
    sample, proc = harness.timed_setup(cmd)
    out, _ = proc.communicate(timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} pass exited with {proc.returncode}")
    return {**json.loads(out.strip().splitlines()[-1]), "setup": sample}


def measure(workload: str, seed: int, seconds: float, min_passes: int, smoke: bool):
    """``min_passes`` cold passes, and more until ``seconds`` are measured."""
    passes: list[dict] = []
    while len(passes) < min_passes or sum(sum(p["units"]) for p in passes) < seconds:
        passes.append(cold_pass(workload, seed, smoke))
    return passes


def unit_medians(timings) -> float:
    """The sum over units of each unit's median across passes."""
    return sum(harness.median(runs) for runs in zip(*timings))


def check_pass(results) -> dict:
    """Cells attempted and failed in one pass, and its table digest.

    A cell fails when it is quarantined or degraded, or when it simulated
    other than its planned trials.
    """
    attempted = failed = 0
    for result in results:
        for cell in result.cells:
            attempted += 1
            if cell.failure is not None or cell.degraded or cell.simulated != cell.cell.trials:
                failed += 1
    digest = harness.table_digest(result.table for result in results)
    return {"attempted": attempted, "failed": failed, "digest": digest}


def summarize(checks, workload: str, seed: int, smoke: bool) -> dict:
    """Every pass's cell counts, and whether every output check held.

    Every pass must agree with the first on the result tables; on the
    default seed they must also match the recorded digest.
    """
    attempted = sum(c["attempted"] for c in checks)
    failed = sum(c["failed"] for c in checks)
    digests = [c["digest"] for c in checks]
    problems = []
    if failed:
        problems.append(f"{failed} of {attempted} cells failed")
    if len(set(digests)) != 1:
        problems.append("passes disagree on the result tables")
    if seed == harness.DEFAULT_SEED and not smoke:
        expected = harness.recorded_digest(workload)
        if digests[0] != expected:
            problems.append(f"digest {digests[0][:16]} != recorded {expected[:16]}")
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "record": {"digest": digests[0]}}


def overhead_share(traced_units, timings) -> float:
    """Traced pass wall time over the untraced passes' median, minus one."""
    untraced = harness.median(sum(units) for units in timings)
    return (sum(traced_units) - untraced) / untraced


def _untraced(samples: list[dict], passes: list[dict]) -> dict[str, float]:
    return {
        "setup_s": harness.median(s["setup_s"] for s in samples),
        "sweep_s": unit_medians(calibrated_units(p["units"], p["probes"]) for p in passes),
        "peak_rss_mb": harness.median(p["peak_rss_mb"] for p in passes),
    }


def _raw(samples: list[dict], passes: list[dict]) -> dict[str, float]:
    """The wall-clock counterparts of the calibrated times, for the record."""
    return {
        "setup_raw_s": harness.median(s["setup_raw_s"] for s in samples),
        "sweep_raw_s": unit_medians(p["units"] for p in passes),
    }


def _setup_layers(samples: list[dict]) -> dict[str, float]:
    layers = {"setup.import_s": harness.median(s["import_s"] for s in samples)}
    if "pool_start_s" in samples[0]:
        layers["setup.pool_start_s"] = harness.median(s["pool_start_s"] for s in samples)
    return layers


def repro_quick(seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    passes = measure("repro_quick", seed, seconds, 1 if trace else QUICK_PASSES, smoke)
    samples = harness.probe_setup("repro_quick", seed, smoke, [p.pop("setup") for p in passes])
    record = {"setup_samples": samples, "passes": passes}
    if not trace:
        outcome = summarize(passes, "repro_quick", seed, smoke)
        outcome["record"].update(record, raw=_raw(samples, passes))
        outcome["metrics"] = _untraced(samples, passes)
        return outcome

    # The traced pass runs in this process, which has run no study yet.
    from repro.fast.arena import arena_stats

    studies = plans.quick_studies(seed, smoke)
    tracer = harness.Tracer()
    with instrument.traced(tracer) as profile:
        traced_units, _, traced_results = run_pass(studies, workers=1)
    outcome = summarize([*passes, check_pass(traced_results)], "repro_quick", seed, smoke)
    outcome["record"].update(record, spans=tracer.dump())
    metrics = _setup_layers(samples)
    metrics.update(instrument.layer_metrics(tracer, profile))
    metrics["fast.arena_high_water_mb"] = arena_stats()["high_water_bytes"] / 2**20
    metrics["trace.overhead_share"] = overhead_share(traced_units, [p["units"] for p in passes])
    outcome["metrics"] = metrics
    return outcome


def colony_scale(seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    passes = measure("colony_scale", seed, seconds, 1 if trace else COLONY_PASSES, smoke)
    samples = harness.probe_setup("colony_scale", seed, smoke, [p.pop("setup") for p in passes])
    record = {"setup_samples": samples, "passes": passes}
    if not trace:
        outcome = summarize(passes, "colony_scale", seed, smoke)
        outcome["record"].update(record, raw=_raw(samples, passes))
        outcome["metrics"] = _untraced(samples, passes)
        return outcome

    from repro.api.transport import pack_reports, packed_nbytes
    from repro.fast.arena import arena_stats

    # The traced pool pass runs in this process on a fresh pool.
    study = plans.colony_study(seed, smoke)
    pool = plans.start_pool(plans.POOL_WORKERS)
    try:
        pool_tracer = harness.Tracer()
        with instrument.traced(pool_tracer, kernels=False):
            traced_units, _, traced_results = run_pass([study], pool=pool)
    finally:
        pool.close()
    # Kernel phases are process-local, so they come from a serial pass.
    tracer = harness.Tracer()
    chunks: list = []
    with instrument.traced(tracer, keep_reports=chunks) as profile:
        serial_units, _, serial_results = run_pass([study], workers=1)
    outcome = summarize(
        [*passes, check_pass(traced_results), check_pass(serial_results)],
        "colony_scale", seed, smoke,
    )
    outcome["record"].update(record, pool_spans=pool_tracer.dump(),
                             serial_spans=tracer.dump(), serial_wall=sum(serial_units))
    metrics = _setup_layers(samples)
    metrics.update(instrument.layer_metrics(tracer, profile))
    kernel_s = metrics["fast.kernel_s"] + tracer.total("runner.single")
    pool_wall = pool_tracer.total("runner.run_batch")
    metrics["fast.arena_high_water_mb"] = arena_stats()["high_water_bytes"] / 2**20
    metrics["runner.pool_efficiency"] = kernel_s / (plans.POOL_WORKERS * pool_wall)
    metrics["runner.transport_bytes"] = sum(
        packed_nbytes(pack_reports(reports)) for reports in chunks
    )
    metrics["trace.overhead_share"] = overhead_share(traced_units, [p["units"] for p in passes])
    outcome["metrics"] = metrics
    return outcome
