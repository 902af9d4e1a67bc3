"""``service_mix``: closed-loop clients against the study-service daemon.

The daemon runs as its own process with a fresh SQLite cache.  Two client
threads each follow a seeded job plan (30% new studies, the rest repeats
of the client's own earlier ones) and send the next job only when the
previous one has finished, so the daemon's speed sets the rate.  The
loop runs in rounds: in each, both clients serve one ten-job block of
their plans side by side, and between rounds a host-speed probe is taken
while nothing runs.  ``sweep_s`` is the median round, host-calibrated by
the probes on either side of it.  A job is timed from ``POST /jobs`` to
the end of its NDJSON cell stream plus the final ``GET
/jobs/<id>/result``.  In a traced run, a short runner phase afterwards
repeats warm studies one at a time through ``ServiceClient.run_study``,
the path the experiment scripts take when ``REPRO_SERVICE_URL`` is set;
its 0.2 s status poll is part of what it measures.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import harness
import plans

#: Jobs generated per client plan; the loop stops long before the end.
PLAN_JOBS = 20_000
#: Jobs of the runner phase.
RUNNER_JOBS = 24
#: Rounds of the closed loop, at least: a round's calibrated time varies
#: by about 13% within a run, and the median of 19 rounds still moved by
#: about 5% between runs.
MIN_ROUNDS = 25
#: Hard stop for the closed loop, whatever the sample counts.
LOOP_LIMIT_S = 50.0


class Daemon:
    """One daemon process, booted and timed until its ``listening on`` line."""

    def __init__(self, cmd: list[str], cache_dir: str) -> None:
        self.cache_dir = cache_dir
        self.boot_s, self.boot_raw_s, self.proc, line = harness.timed_ready(
            cmd, "listening on"
        )
        self.url = line.split("listening on", 1)[1].strip()
        # The daemon prints nothing more; drain anyway so a full pipe can
        # never block it.
        self._drain = threading.Thread(target=self.proc.stdout.read, daemon=True)
        self._drain.start()

    def stop(self) -> None:
        from repro.service.client import ServiceClient, ServiceError

        try:
            ServiceClient(self.url).shutdown()
            self.proc.wait(timeout=60)
        except (ServiceError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdin.close()
        self._drain.join(timeout=10)
        shutil.rmtree(self.cache_dir, ignore_errors=True)


def _cache_dir(tag: str) -> str:
    path = harness.STATE / "service" / f"{tag}-{time.time_ns()}"
    path.mkdir(parents=True)
    return str(path)


def boot_plain() -> Daemon:
    cache_dir = _cache_dir("plain")
    return Daemon(
        [sys.executable, "-m", "repro.service", "serve", "--port", "0",
         "--cache-dir", cache_dir],
        cache_dir,
    )


def boot_traced(trace_out: Path, min_beyond: int) -> Daemon:
    cache_dir = _cache_dir("traced")
    return Daemon(
        [sys.executable, str(harness.HERE / "traced_daemon.py"),
         "--cache-dir", cache_dir, "--trace-out", str(trace_out),
         "--min-beyond", str(min_beyond)],
        cache_dir,
    )


def closed_loop(url: str, seed: int, seconds: float, min_cold: int, min_warm: int,
                min_rounds: int) -> dict:
    """Rounds of jobs until ``seconds`` have passed, ``min_rounds`` have
    run and both job classes have their minimum samples; returns job
    records, round times and problems.

    In round ``r`` each client serves block ``r`` of its plan
    (``PLAN_BLOCK`` jobs, ``COLD_PER_BLOCK`` of them new studies), the two
    clients side by side, each sending its next job only when its previous
    one is done.  Between rounds nothing runs, and a speed probe is taken
    there.  A failed job is recorded and its client goes on with its
    block; once ``seconds`` have passed, a failure ends the loop, since
    the run is already incorrect.
    """
    from repro.service.client import ServiceClient

    lock = threading.Lock()
    done = {"cold": 0, "warm": 0, "attempted": 0, "failed": 0}
    records: list[dict] = []
    problems: list[str] = []
    cold_tables: dict = {}
    clients = [ServiceClient(url, timeout=60.0) for _ in range(plans.SERVICE_CLIENTS)]
    client_plans = [plans.client_plan(seed, c, PLAN_JOBS) for c in range(plans.SERVICE_CLIENTS)]

    def client_block(client_id: int, block: int) -> None:
        jobs = client_plans[client_id][block * plans.PLAN_BLOCK:(block + 1) * plans.PLAN_BLOCK]
        for label, index in jobs:
            try:
                record, problem = _run_job(
                    clients[client_id], seed, client_id, label, index, cold_tables
                )
            except Exception as error:  # the job failed; the block goes on
                record, problem = None, f"{type(error).__name__}: {error}"
            with lock:
                done["attempted"] += 1
                if problem is None:
                    records.append(record)
                    done[label] += 1
                else:
                    done["failed"] += 1
                    problems.append(f"client {client_id} job {label} {index}: {problem}")

    def enough(elapsed: float) -> bool:
        if elapsed > LOOP_LIMIT_S:
            return True
        return elapsed >= seconds and (
            done["failed"] > 0
            or (done["cold"] >= min_cold and done["warm"] >= min_warm
                and len(rounds) >= min_rounds)
        )

    rounds: list[float] = []
    harness.speed_probe()  # a cold first reading: not kept
    probes = [harness.speed_probe()]
    start = time.perf_counter()
    while not enough(time.perf_counter() - start):
        threads = [
            threading.Thread(target=client_block, args=(c, len(rounds)), name=f"client-{c}")
            for c in range(plans.SERVICE_CLIENTS)
        ]
        round_start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        rounds.append(time.perf_counter() - round_start)
        probes.append(harness.speed_probe())
    return {"records": records, "problems": problems, "rounds": rounds,
            "probes": probes, "cold_tables": cold_tables,
            "attempted": done["attempted"], "failed": done["failed"]}


def _run_job(client, seed: int, client_id: int, label: str, index: int, cold_tables: dict):
    """Submit one study, stream its cells, fetch its result: (record, problem).

    A warm job whose cold run failed is not submitted: there is nothing to
    compare it with.
    """
    from repro.api.results import ResultTable

    if label == "warm" and (client_id, index) not in cold_tables:
        return None, "its cold run failed"
    study = plans.service_study(seed, client_id, index)
    t0 = time.perf_counter()
    job = client.submit(study)["job"]
    first = None
    events = []
    for event in client.iter_cells(job):
        if first is None:
            first = time.perf_counter()
        events.append(event)
    data = client.result(job)
    t1 = time.perf_counter()
    record = {
        "client": client_id, "index": index, "label": label, "job": job,
        "latency_s": t1 - t0,
        "first_cell_s": None if first is None else first - t0,
    }
    problem = _check_job(label, data, events)
    if problem is None:
        table = ResultTable(data["table"])
        if label == "cold":
            cold_tables[(client_id, index)] = table
        elif not table.equals(cold_tables[(client_id, index)]):
            problem = "warm table differs from its cold run"
    return record, problem


def _check_job(label: str, data: dict, events: list[dict]) -> str | None:
    """What is wrong with a finished job, or ``None``."""
    cells = len(plans.SERVICE_SIZES)
    if data.get("state") != "done":
        return f"state {data.get('state')}: {data.get('error')}"
    if len(events) != cells or any("status" in e or "degraded" in e for e in events):
        return "a cell is missing, quarantined or degraded"
    if label == "cold":
        expected = (0, cells, cells * plans.SERVICE_TRIALS)
    else:
        expected = (cells, 0, 0)
    got = (data["cache_hits"], data["cache_misses"], data["simulated_trials"])
    if got != expected:
        return f"{label} job hits/misses/trials {got}, expected {expected}"
    return None


def runner_phase(url: str, seed: int, cold_tables: dict, jobs: int) -> dict:
    """Warm studies one at a time through ``ServiceClient.run_study``.

    A study whose cold run failed in the closed loop is skipped and counted
    as failed.
    """
    from repro.api import Study
    from repro.service.client import ServiceClient

    client = ServiceClient(url, timeout=60.0)
    latencies, problems = [], []
    for client_id, index in plans.runner_plan(jobs):
        study = Study.from_dict(plans.service_study(seed, client_id, index))
        if (client_id, index) not in cold_tables:
            problems.append(f"runner study {study.name} has no cold run to compare with")
            continue
        t0 = time.perf_counter()
        try:
            result = client.run_study(study)
        except Exception as error:
            problems.append(f"runner study {study.name}: {type(error).__name__}: {error}")
            continue
        latencies.append(time.perf_counter() - t0)
        if result.quarantined or result.degraded or result.simulated_trials:
            problems.append(f"runner study {study.name} was not a clean warm run")
        elif not result.table.equals(cold_tables[(client_id, index)]):
            problems.append(f"runner study {study.name} differs from its cold run")
    return {"latencies": latencies, "problems": problems}


def _ms(values):
    return [v * 1000.0 for v in values]


def percentiles(wanted: dict, min_beyond: int, problems: list[str]) -> dict[str, float]:
    """``{metric: (samples, q)}`` to percentiles, leaving out any with too
    few samples beyond it.

    A left-out percentile is a problem of its own, unless the run has
    already failed a check (failed jobs leave too few samples).
    """
    failed_before = bool(problems)
    metrics = {}
    for name, (samples, q) in wanted.items():
        try:
            metrics[name] = harness.percentile(samples, q, min_beyond)
        except ValueError as error:
            if not failed_before:
                problems.append(f"{name}: {error}")
    return metrics


def _latency_metrics(loop: dict, min_beyond: int) -> dict[str, float]:
    """The service's own latencies and rate (per-layer metrics, raw)."""
    records = loop["records"]
    warm = _ms(r["latency_s"] for r in records if r["label"] == "warm")
    cold = _ms(r["latency_s"] for r in records if r["label"] == "cold")
    first = _ms(r["first_cell_s"] for r in records if r["label"] == "cold")
    metrics = {"service.jobs_per_s": len(records) / sum(loop["rounds"])}
    wanted = {
        "service.warm_job_p50_ms": (warm, 50),
        "service.warm_job_p90_ms": (warm, 90),
        "service.cold_job_p50_ms": (cold, 50),
        "service.cold_job_p90_ms": (cold, 90),
        "service.first_cell_p50_ms": (first, 50),
    }
    if loop["runner_latencies"] is not None:
        wanted["service.runner_job_p50_ms"] = (_ms(loop["runner_latencies"]), 50)
    metrics.update(percentiles(wanted, min_beyond, loop["problems"]))
    return metrics


def round_sweeps(loop: dict, calibrate: bool = True) -> float:
    """The median round: host-calibrated by the probes on either side of
    it, or raw wall-clock."""
    rounds, probes = loop["rounds"], loop["probes"]
    if calibrate:
        rounds = [harness.calibrated(t, probes[i], probes[i + 1]) for i, t in enumerate(rounds)]
    return harness.median(rounds)


def session(daemon: Daemon, seed: int, seconds: float, smoke: bool, runner: bool) -> dict:
    """The closed loop, then (with ``runner``) the runner phase, then the
    daemon's own counters, each job's server-side ``run_seconds`` and peak
    memory; the daemon is stopped afterwards."""
    from repro.service.client import ServiceClient

    min_beyond = 1 if smoke else harness.MIN_BEYOND
    # A p90 needs ten samples beyond it: 110 jobs of each class.
    minimum = 10 if smoke else 11 * min_beyond
    runner_jobs = (2 if smoke else RUNNER_JOBS) if runner else 0
    try:
        out = closed_loop(daemon.url, seed, seconds, minimum, minimum,
                          1 if smoke else MIN_ROUNDS)
        ran = runner_phase(daemon.url, seed, out["cold_tables"], runner_jobs)
        client = ServiceClient(daemon.url)
        out["stats"] = client.stats()
        # Fetched once, after the loop, so no job waits on it.
        jobs = client.jobs()
        out["jobs_retained"] = len(jobs)
        run_seconds = {job["job"]: job.get("run_seconds") for job in jobs}
        for record in out["records"]:
            record["run_s"] = run_seconds.get(record["job"])
        out["peak_rss_mb"] = harness.pid_peak_rss_mb(daemon.proc.pid)
    finally:
        daemon.stop()
    out["runner_latencies"] = ran["latencies"] if runner else None
    out["problems"] += ran["problems"]
    out["attempted"] += runner_jobs
    out["failed"] += len(ran["problems"])
    out["metrics"] = _latency_metrics(out, min_beyond)
    del out["cold_tables"]
    return out


def service_mix(seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    boots: list[float] = []
    boots_raw: list[float] = []
    daemon = None
    while harness.more_setups(boots, smoke):
        if daemon is not None:
            daemon.stop()
        daemon = boot_plain()
        boots.append(daemon.boot_s)
        boots_raw.append(daemon.boot_raw_s)
    plain = session(daemon, seed, seconds, smoke, runner=trace)
    outcome = {
        "attempted": plain["attempted"],
        "failed": plain["failed"],
        "problems": plain["problems"],
        "record": {"boot_s": boots, "boot_raw_s": boots_raw, "plain": plain,
                   "raw": {"setup_raw_s": harness.median(boots_raw),
                           "sweep_raw_s": round_sweeps(plain, calibrate=False)}},
    }
    if not trace:
        outcome["metrics"] = {
            "setup_s": harness.median(boots),
            "sweep_s": round_sweeps(plain),
            "peak_rss_mb": plain["peak_rss_mb"],
        }
        return outcome

    # The traced run: the same session against a daemon carrying the wrappers.
    min_beyond = 1 if smoke else harness.MIN_BEYOND
    trace_out = harness.STATE / "tmp" / f"daemon-trace-{time.time_ns()}.json"
    imports = harness.probe_setup("service_mix", seed, smoke)
    traced = session(boot_traced(trace_out, min_beyond), seed, seconds, smoke, runner=True)
    with open(trace_out, encoding="utf-8") as handle:
        daemon_trace = json.load(handle)
    trace_out.unlink()
    outcome["attempted"] += traced["attempted"]
    outcome["failed"] += traced["failed"]
    outcome["problems"] += traced["problems"]
    outcome["record"].update(traced=traced, daemon_spans=daemon_trace.pop("spans"))
    jobs = [j for j in traced["records"] if j["run_s"] is not None]
    cache = traced["stats"]["cache"]
    metrics = {
        "setup.import_s": harness.median(s["import_s"] for s in imports),
        "setup.daemon_boot_s": harness.median(boots_raw),
        **daemon_trace["metrics"],
        "cache.hits": cache["hits"],
        "cache.misses": cache["misses"],
        **plain["metrics"],
        **percentiles({
            "service.run_ms_p50": ([j["run_s"] * 1000.0 for j in jobs], 50),
            "service.overhead_ms_p50": (
                [(j["latency_s"] - j["run_s"]) * 1000.0 for j in jobs], 50
            ),
        }, min_beyond, outcome["problems"]),
        "fast.arena_high_water_mb": traced["stats"]["arena"]["high_water_bytes"] / 2**20,
        "service.dedupe_waits": cache["dedupe_waits"],
        "service.jobs_retained": traced["jobs_retained"],
    }
    if traced["records"]:
        # Time per job, traced over untraced.
        metrics["trace.overhead_share"] = (
            plain["metrics"]["service.jobs_per_s"] / traced["metrics"]["service.jobs_per_s"] - 1.0
        )
    poll = ("service.runner_job_p50_ms", "service.warm_job_p50_ms")
    if all(name in traced["metrics"] for name in poll):
        metrics["service.poll_overhead_ms"] = (
            traced["metrics"][poll[0]] - traced["metrics"][poll[1]]
        )
    outcome["metrics"] = metrics
    return outcome
