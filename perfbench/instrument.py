"""The traced run's wrappers: spans around the calls into each layer.

Everything here wraps public names of the program from the outside and
puts the originals back on exit; the program itself carries no tracing.

- ``runner.run_batch`` — :func:`repro.api.run_batch` as the scheduler
  calls it (``repro.api.scheduler.run_batch``);
- ``scheduler.cell`` — each cell yielded by
  :meth:`repro.api.CellScheduler.outcomes` (cell expansion, backend
  resolution, cache lookup, dispatch, metric evaluation);
- ``fast.batch_kernel`` / ``fast.single_kernel`` — the registry's batch
  and per-trial fast kernels;
- ``runner.single`` — per-scenario :func:`repro.api.run` calls, which is
  where the agent engine runs;
- ``cache.load`` / ``cache.store`` — a delegating cache object.

Kernel phases come from :func:`repro.fast.profiling.phase_timing`, which
is process-local: only kernels running in this process are seen.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager

from harness import Tracer, percentile


def _kind(scenario) -> str:
    perturbed = (
        scenario.fault_plan is not None
        or scenario.delay_model is not None
        or scenario.noise is not None
    )
    return "perturbed" if perturbed else scenario.algorithm


@contextmanager
def patched(owner, name: str, value):
    original = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield original
    finally:
        setattr(owner, name, original)


@contextmanager
def _wrapped_registry(tracer: Tracer, keep_reports: list | None):
    """Re-register every algorithm with span-recording kernels."""
    from repro.api import REGISTRY

    originals = [REGISTRY.get(name) for name in REGISTRY.names()]

    def batch(kernel):
        def traced(chunk):
            span = tracer.begin("fast.batch_kernel", chunk[0].algorithm)
            reports = kernel(chunk)
            tracer.end(span, trials=len(chunk), kind=_kind(chunk[0]))
            if keep_reports is not None:
                keep_reports.append(reports)
            return reports

        return traced

    def single(kernel):
        def traced(scenario, source):
            span = tracer.begin("fast.single_kernel", scenario.algorithm)
            report = kernel(scenario, source)
            tracer.end(span)
            return report

        return traced

    def register(entry, wrap: bool) -> None:
        fields = {
            "agent_builder": entry.agent_builder,
            "fast_kernel": entry.fast_kernel,
            "fast_supports": entry.fast_supports,
            "batch_kernel": entry.batch_kernel,
        }
        if wrap:
            if entry.fast_kernel is not None:
                fields["fast_kernel"] = single(entry.fast_kernel)
            if entry.batch_kernel is not None:
                fields["batch_kernel"] = batch(entry.batch_kernel)
        REGISTRY.register(
            entry.name,
            entry.summary,
            fast_features=entry.fast_features,
            params=entry.param_names,
            replace=True,
            **fields,
        )

    for entry in originals:
        register(entry, wrap=True)
    try:
        yield
    finally:
        for entry in originals:
            register(entry, wrap=False)


@contextmanager
def traced(tracer: Tracer, kernels: bool = True, keep_reports: list | None = None):
    """Install every wrapper (``kernels`` also wraps kernels and phases).

    Yields the :class:`~repro.fast.profiling.KernelProfile` (``None``
    without ``kernels``).  ``keep_reports`` collects each batch kernel's
    reports, for computing transport bytes after the timed pass.
    """
    import repro.api.runner as runner_module
    import repro.api.scheduler as scheduler_module
    from repro.fast.profiling import phase_timing

    run_batch = scheduler_module.run_batch
    outcomes = scheduler_module.CellScheduler.outcomes
    run = runner_module.run

    def traced_run_batch(scenarios, *args, **kwargs):
        span = tracer.begin("runner.run_batch", kwargs.get("chaos_scope"))
        reports = run_batch(scenarios, *args, **kwargs)
        tracer.end(span, trials=len(reports))
        return reports

    def traced_outcomes(self):
        results = outcomes(self)
        while True:
            span = tracer.begin("scheduler.cell", self.study.name)
            try:
                result = next(results)
            except StopIteration:
                tracer.end(span, rename="scheduler.tail")
                return
            tracer.end(span, cell=result.cell.index, cached=result.cached)
            yield result

    def traced_single_run(scenario, *args, **kwargs):
        span = tracer.begin("runner.single", scenario.algorithm)
        report = run(scenario, *args, **kwargs)
        tracer.end(span, backend=report.backend)
        return report

    with ExitStack() as stack:
        stack.enter_context(patched(scheduler_module, "run_batch", traced_run_batch))
        stack.enter_context(
            patched(scheduler_module.CellScheduler, "outcomes", traced_outcomes)
        )
        profile = None
        if kernels:
            stack.enter_context(patched(runner_module, "run", traced_single_run))
            stack.enter_context(_wrapped_registry(tracer, keep_reports))
            profile = stack.enter_context(phase_timing())
        yield profile


class TimedCache:
    """A delegating cache that records a span around each load and store."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer

    def load(self, payload):
        span = self.tracer.begin("cache.load")
        entry = self.inner.load(payload)
        self.tracer.end(span, hit=entry is not None)
        return entry

    def store(self, payload, stats, metrics):
        span = self.tracer.begin("cache.store")
        key = self.inner.store(payload, stats, metrics)
        self.tracer.end(span)
        return key

    def __len__(self) -> int:
        return len(self.inner)

    def __getattr__(self, name):
        return getattr(self.inner, name)


# -- folding spans into per-layer metrics ------------------------------------


def _ms_p50(values, min_beyond: int) -> float:
    return percentile([v * 1000.0 for v in values], 50, min_beyond)


def layer_metrics(tracer: Tracer, profile) -> dict[str, float]:
    """Kernel, agent-engine, runner and scheduler numbers of one traced pass.

    ``scheduler.self_s`` is the cell time not spent in ``run_batch`` or
    the cache: expansion, backend resolution, metric evaluation and
    aggregation.  ``runner.self_s`` is ``run_batch`` time not spent in a
    batch kernel or a per-scenario run.  A kernel or engine that did not
    run reads 0.
    """
    metrics: dict[str, float] = {}
    cells = tracer.count("scheduler.cell")
    cell_s = tracer.total("scheduler.cell") + tracer.total("scheduler.tail")
    cache_s = tracer.total("cache.load") + tracer.total("cache.store")
    self_s = cell_s - tracer.total("runner.run_batch") - cache_s
    metrics["scheduler.cells"] = cells
    metrics["scheduler.self_s"] = self_s
    metrics["scheduler.per_cell_ms"] = 1000.0 * self_s / max(cells, 1)
    if profile is None:
        return metrics
    kernel_spans = [s for s in tracer.spans if s[0] == "fast.batch_kernel"]
    metrics["fast.kernel_s"] = sum(s[2] - s[1] for s in kernel_spans)
    for phase in ("draw", "match", "move", "bookkeep", "compact"):
        metrics[f"fast.{phase}_s"] = profile.phase_seconds.get(phase, 0.0)
    metrics["fast.rounds"] = profile.rounds
    for kind in ("simple", "optimal", "perturbed"):
        chosen = [s for s in kernel_spans if s[5]["kind"] == kind]
        seconds = sum(s[2] - s[1] for s in chosen)
        trials = sum(s[5]["trials"] for s in chosen)
        metrics[f"fast.{kind}.trials_per_s"] = trials / seconds if seconds > 0 else 0.0
    metrics["fast.single_s"] = tracer.total("fast.single_kernel")
    agent = [
        s for s in tracer.spans if s[0] == "runner.single" and s[5]["backend"] == "agent"
    ]
    metrics["sim.agent_s"] = sum(s[2] - s[1] for s in agent)
    metrics["sim.agent_trials"] = len(agent)
    metrics["runner.self_s"] = (
        tracer.total("runner.run_batch") - metrics["fast.kernel_s"]
        - tracer.total("runner.single")
    )
    metrics["runner.tasks"] = tracer.count("fast.batch_kernel") + tracer.count("runner.single")
    return metrics


def cache_metrics(tracer: Tracer, min_beyond: int) -> dict[str, float]:
    """Median load and store times; one with too few samples is left out."""
    metrics = {}
    for name, span in (("cache.load_ms_p50", "cache.load"), ("cache.store_ms_p50", "cache.store")):
        try:
            metrics[name] = _ms_p50(tracer.durations(span), min_beyond)
        except ValueError:
            pass
    return metrics
