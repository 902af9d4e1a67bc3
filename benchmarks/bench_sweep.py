"""Sweep/Study layer overhead: cold vs warm execution, supervision tax.

Runs one representative study (an ``n`` x ``k`` grid of Algorithm 3 on the
batch fast path) under three regimes:

- **cold** — every cell simulates through ``run_batch``;
- **warm** — every cell is served from the cache; the run must execute
  **zero** simulations (asserted) and return a bit-identical table;
- **supervised vs plain** — the same study on a 2-worker pool with and
  without the supervised dispatcher (deadlines, retry bookkeeping); on the
  clean path the resilience machinery must be nearly free.

Records ``cold_cells_per_sec`` (machine-absolute; compared only on
matching hardware) plus two machine-portable ratios, lower is better for
both, in ``BENCH_sweep.json`` for ``tools/check_bench_regression.py``:

- ``warm_load_overhead`` — best-of-5 warm ``run_study`` over best-of-5
  bare ``ResultCache.load`` of the same cells' payloads, both timed in one
  session.  It prices what the study layer adds on top of the cache reads
  (expansion, scheduling, table assembly).  Neither side runs a kernel, so
  a faster cold path cannot move it, unlike a cold/warm ratio;
- ``sweep_recovery_overhead`` — supervised/plain wall time, gated at
  <=1.05 under ``REPRO_BENCH_STRICT=1``.

Run with::

    REPRO_BENCH_PROFILE=quick pytest benchmarks/bench_sweep.py --benchmark-only
"""

from __future__ import annotations

import os
import time

from bench_json import update_bench_json

from repro.api import (
    ExecutionPolicy,
    ResultCache,
    Study,
    Sweep,
    expr,
    grid,
    nests_spec,
    ref,
    run_study,
)
from repro.api.sweep import expand_study


def _study(quick_mode: bool) -> Study:
    # The quick grid is deliberately non-trivial (~a second cold), so the
    # recorded cold throughput dominates timer noise.
    sizes = (512, 1024, 2048) if quick_mode else (512, 1024, 2048, 4096)
    k_values = (2, 4) if quick_mode else (2, 4, 8)
    trials = 32 if quick_mode else 48
    return Study(
        name="bench-sweep",
        description="simple-algorithm (n, k) grid for the sweep bench",
        sweep=Sweep(
            base={
                "algorithm": "simple",
                "nests": nests_spec("all_good", k=ref("k")),
                "seed": expr(2015, n=1, k=1000, cast="int"),
                "max_rounds": 50_000,
            },
            axes=(grid("n", sizes), grid("k", k_values)),
        ),
        trials=trials,
        backend="fast",
        metrics=("n_trials", "success_rate", "median_rounds"),
    )


def _record(study: Study, quick_mode: bool, n_cells: int, **metrics: float) -> None:
    # Both tests in this module feed one record; the config dicts must be
    # identical or update_bench_json resets the file between them.
    update_bench_json(
        "sweep",
        "quick" if quick_mode else "full",
        {"cells": n_cells, "trials_per_cell": study.trials},
        metrics,
    )


def _timed(action, calls: int = 1) -> tuple[float, object]:
    """Wall time per call over ``calls`` back-to-back calls, and a result."""
    start = time.perf_counter()
    for _ in range(calls):
        result = action()
    return (time.perf_counter() - start) / calls, result


def _cold_then_warm(study: Study, cache: ResultCache):
    cold_elapsed, cold = _timed(lambda: run_study(study, cache=cache, workers=1))
    payloads = [cell.payload(study.metrics) for cell in expand_study(study)]
    # Both warm sides take about a millisecond, so each sample averages
    # five calls.  Interleaved best-of-5: the two sides sample the same
    # machine conditions, so their ratio is stable enough to gate on.
    warm_elapsed = load_elapsed = float("inf")
    for _ in range(5):
        elapsed, warm = _timed(lambda: run_study(study, cache=cache, workers=1), 5)
        warm_elapsed = min(warm_elapsed, elapsed)
        elapsed, entries = _timed(lambda: [cache.load(p) for p in payloads], 5)
        load_elapsed = min(load_elapsed, elapsed)
        assert all(entry is not None for entry in entries)
    return cold, cold_elapsed, warm, warm_elapsed, load_elapsed


def test_study_cold_vs_warm(benchmark, quick_mode, tmp_path):
    """Cold study wall time, and the warm re-run over its bare cache reads."""
    study = _study(quick_mode)
    cache = ResultCache(tmp_path / "cache")

    cold, cold_elapsed, warm, warm_elapsed, load_elapsed = benchmark.pedantic(
        _cold_then_warm, args=(study, cache), rounds=1, iterations=1
    )

    # The warm run is the contract under test: zero simulations, every cell
    # cache-served, bit-identical columnar results.
    assert cold.cache_misses == len(cold.cells)
    assert warm.simulated_trials == 0
    assert warm.cache_hits == len(warm.cells)
    assert cold.table.equals(warm.table)

    n_cells = len(cold.cells)
    overhead = warm_elapsed / load_elapsed
    benchmark.extra_info["cells"] = n_cells
    benchmark.extra_info["cold_seconds"] = round(cold_elapsed, 3)
    benchmark.extra_info["warm_seconds"] = round(warm_elapsed, 4)
    benchmark.extra_info["load_seconds"] = round(load_elapsed, 4)
    benchmark.extra_info["warm_load_overhead"] = round(overhead, 2)
    _record(
        study,
        quick_mode,
        n_cells,
        cold_cells_per_sec=n_cells / cold_elapsed,
        warm_load_overhead=overhead,
    )


def _supervised_vs_plain(study: Study):
    # Interleaved best-of-3: both sides sample the same thermal/cache
    # conditions, so the ratio isolates the supervision machinery (per
    # chunk: a deadline on the result wait, attempt bookkeeping,
    # parent-assigned segment names) rather than machine drift.
    plain_policy = ExecutionPolicy(supervise=False)
    supervised_policy = ExecutionPolicy(chunk_timeout=600.0)
    plain_best = supervised_best = float("inf")
    plain = supervised = None
    for _ in range(3):
        start = time.perf_counter()
        plain = run_study(study, cache=None, workers=2, policy=plain_policy)
        plain_best = min(plain_best, time.perf_counter() - start)
        start = time.perf_counter()
        supervised = run_study(
            study, cache=None, workers=2, policy=supervised_policy
        )
        supervised_best = min(supervised_best, time.perf_counter() - start)
    return plain, plain_best, supervised, supervised_best


def test_supervised_clean_path_overhead(benchmark, quick_mode):
    """Supervised dispatch tax on a fault-free study (target: <=5%)."""
    study = _study(quick_mode)

    plain, plain_best, supervised, supervised_best = benchmark.pedantic(
        _supervised_vs_plain, args=(study,), rounds=1, iterations=1
    )

    # Supervision must be bit-invisible, not just cheap.
    assert plain.table.equals(supervised.table)
    assert supervised.quarantined == ()

    overhead = supervised_best / plain_best if plain_best > 0 else 1.0
    benchmark.extra_info["plain_seconds"] = round(plain_best, 3)
    benchmark.extra_info["supervised_seconds"] = round(supervised_best, 3)
    benchmark.extra_info["sweep_recovery_overhead"] = round(overhead, 3)
    _record(study, quick_mode, len(plain.cells), sweep_recovery_overhead=overhead)
    if os.environ.get("REPRO_BENCH_STRICT") == "1":
        assert overhead <= 1.05, (
            f"supervised clean-path overhead {overhead:.3f} exceeds 1.05 "
            f"(plain {plain_best:.3f}s, supervised {supervised_best:.3f}s)"
        )
