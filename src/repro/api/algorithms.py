"""Built-in population of the default :data:`~repro.api.registry.REGISTRY`.

Registers the paper's algorithms (Algorithm 2 "optimal", Algorithm 3
"simple"), the lower-bound information-spreading process, all four
baselines (quorum sensing, the uniform-rate ablation, rumor spreading, the
Pólya urn) and the Section 6 extension variants.  Each entry supplies an
agent-engine builder and/or a vectorized kernel and declares, feature tag
by feature tag (``fast_features``), which scenario dimensions that kernel
honors — the simple family covers the full perturbation surface (fault
plans, every noise kind, delay models), while structural limits beyond
tags (the spread process's hard-coded good nest, v1-matcher-only
restrictions) live in small ``fast_supports`` predicates.  That is exactly
the information ``backend="auto"`` dispatch and its recorded fallback
reasons need.

Fast kernels accept a ``matcher`` param ("v2" default, "v1" for the
sequential-scan reference schedule — see docs/PERFORMANCE.md); under v2
the single-trial kernel is literally a batch of one, so
:func:`repro.api.run_batch`'s trial-parallel dispatch (the ``batch_kernel``
entries here) is bit-identical to running each trial alone.  ``quorum``
and ``uniform`` gained fast kernels with the batch engine, so the E8
comparison sweep no longer falls back to the agent engine.  The ``polya``
urn runs a batch of one too (:mod:`repro.fast.urn`); ``rumor`` is the only
fast process left with a per-trial kernel and no batch kernel.

Adding a protocol variant is one ``REGISTRY.register(...)`` call.
"""

from __future__ import annotations

from typing import Sequence

from repro.api.processes import register_measurement_processes
from repro.api.registry import (
    FEATURE_DELAY,
    FEATURE_FAULT_BYZANTINE,
    FEATURE_FAULT_CRASH,
    FEATURE_NOISE_COUNT,
    FEATURE_NOISE_ENCOUNTER,
    FEATURE_NOISE_QUALITY_FLIP,
    FEATURE_RECORD_HISTORY,
    REGISTRY,
    criterion_factory,
    criterion_feature,
    scenario_features,
    scenario_kernel_backend,
    scenario_matcher,
)
from repro.api.report import RunReport
from repro.api.scenario import Scenario
from repro.baselines.quorum import quorum_factory
from repro.baselines.rumor import RumorMode, rumor_rounds
from repro.baselines.uniform import uniform_factory
from repro.core.colony import (
    informed_spread_factory,
    optimal_factory,
    simple_factory,
)
from repro.core.lower_bound import IgnorantPolicy
from repro.exceptions import ConfigurationError
from repro.extensions.adaptive import (
    adaptive_factory,
    ktilde_schedule,
    power_feedback_factory,
)
from repro.extensions.nonbinary import quality_weighted_factory
from repro.extensions.robust import approximate_n_factory
from repro.fast.batch import (
    simulate_optimal_batch,
    simulate_quorum_batch,
    simulate_simple_batch,
    simulate_spread_batch,
)
from repro.fast.optimal_fast import simulate_optimal
from repro.fast.simple_fast import simulate_simple
from repro.fast.spread_fast import SpreadResult, simulate_spread
from repro.fast.urn import simulate_polya_batch
from repro.sim.rng import RandomSource


def _params(scenario: Scenario, **defaults):
    """Validated algorithm params: unknown keys are configuration errors."""
    unknown = set(scenario.params) - set(defaults)
    if unknown:
        raise ConfigurationError(
            f"algorithm {scenario.algorithm!r} does not accept params "
            f"{sorted(unknown)}; known: {sorted(defaults)}"
        )
    merged = dict(defaults)
    merged.update(scenario.params)
    return merged


def _sources(scenarios: Sequence[Scenario]) -> list[RandomSource]:
    """Per-trial stream bundles for one homogeneous batch chunk."""
    return [scenario.source() for scenario in scenarios]


def _fast_extras(matcher: str, kernel_backend: str | None = None) -> dict:
    """Engine detail recorded on every fast-path report.

    Both the single-trial path and the batch path attach exactly this, so
    their reports compare equal field-for-field.  Only an *explicit*
    ``kernel_backend`` pin appears (it is scenario identity); an
    environment-selected backend is digest-transparent and unrecorded.
    """
    extras = {"matcher": matcher}
    if kernel_backend is not None:
        extras["kernel_backend"] = kernel_backend
    return extras


#: Feature tags the simple-family kernels (simple/adaptive/uniform) honor
#: under the v2 schedule — the full perturbation surface.
SIMPLE_FAST_FEATURES = frozenset(
    {
        FEATURE_NOISE_COUNT,
        FEATURE_NOISE_QUALITY_FLIP,
        FEATURE_NOISE_ENCOUNTER,
        FEATURE_FAULT_CRASH,
        FEATURE_FAULT_BYZANTINE,
        FEATURE_DELAY,
        FEATURE_RECORD_HISTORY,
        criterion_feature("good"),
        criterion_feature("good_healthy"),
    }
)

#: The subset the sequential v1 reference kernel still covers.
_SIMPLE_V1_FEATURES = frozenset(
    {FEATURE_NOISE_COUNT, FEATURE_RECORD_HISTORY, criterion_feature("good")}
)


def _simple_structure(scenario: Scenario) -> bool:
    """v1-matcher requests drop back to the pre-perturbation feature set."""
    # Validate the backend pin as eagerly as the matcher param: a bad pin
    # (unknown name, or pin+v1) must raise even when the run would fall
    # back to the agent engine, where the pin would otherwise be silently
    # ignored — a pinned scenario that never touches the batch kernels is
    # a configuration error, not a no-op.
    scenario_kernel_backend(scenario)
    if scenario_matcher(scenario) == "v1":
        return scenario_features(scenario) <= _SIMPLE_V1_FEATURES
    return True


def _kernel_pair(single_kernel, batch_kernel, kernel_kwargs):
    """Build the (fast_kernel, batch_kernel) adapter pair for one algorithm.

    Both adapters share one contract: ``kernel_kwargs(scenario)`` validates
    the params and returns the kernel keyword arguments; the single-trial
    v2 path is literally a batch of one, so the two adapters cannot drift
    apart; ``matcher="v1"`` routes to the sequential single-trial kernel
    (which rejects the batch-only perturbation layers).
    """

    def fast(scenario: Scenario, source: RandomSource) -> RunReport:
        kwargs = kernel_kwargs(scenario)
        matcher = scenario_matcher(scenario)
        pin = kwargs.get("kernel_backend")
        if matcher == "v1":
            kwargs = dict(kwargs)
            # Always None here: scenario_kernel_backend rejects pin+v1.
            kwargs.pop("kernel_backend", None)
            if kwargs.pop("criterion", None) not in (None, "good"):
                raise ConfigurationError(
                    f"the sequential v1 kernel for {scenario.algorithm!r} "
                    "only evaluates the default 'good' criterion; use the "
                    "v2 matcher schedule or backend='agent'"
                )
            for key in ("fault_plan", "delay_model"):
                if kwargs.pop(key, None) is not None:
                    raise ConfigurationError(
                        f"the sequential v1 kernel for {scenario.algorithm!r} "
                        f"does not support {key}; use the v2 matcher schedule "
                        "or backend='agent'"
                    )
            result = single_kernel(
                scenario.n,
                scenario.nests,
                seed=source,
                max_rounds=scenario.max_rounds,
                record_history=scenario.record_history,
                **kwargs,
            )
        else:
            result = batch_kernel(
                scenario.n,
                scenario.nests,
                [source],
                max_rounds=scenario.max_rounds,
                record_history=scenario.record_history,
                **kwargs,
            )[0]
        return RunReport.from_fast(
            scenario, result, extras=_fast_extras(matcher, pin)
        )

    def batch(scenarios: Sequence[Scenario]) -> list[RunReport]:
        base = scenarios[0]
        kwargs = kernel_kwargs(base)
        results = batch_kernel(
            base.n,
            base.nests,
            _sources(scenarios),
            max_rounds=base.max_rounds,
            record_history=base.record_history,
            **kwargs,
        )
        extras = _fast_extras("v2", kwargs.get("kernel_backend"))
        return [
            RunReport.from_fast(scenario, result, extras=extras)
            for scenario, result in zip(scenarios, results)
        ]

    return fast, batch


# -- Algorithm 3 ("simple") and its rate-schedule variant --------------------


def _simple_agent(scenario: Scenario):
    params = _params(scenario, matcher=None, kernel_backend=None)
    del params
    return simple_factory(good_threshold=scenario.nests.good_threshold), None


def _perturbation_kwargs(scenario: Scenario) -> dict:
    """The perturbation-layer kwargs every simple-family kernel accepts."""
    return {
        "noise": scenario.noise,
        "fault_plan": scenario.fault_plan,
        "delay_model": scenario.delay_model,
        "criterion": scenario.criterion,
        "kernel_backend": scenario_kernel_backend(scenario),
    }


def _simple_kwargs(scenario: Scenario) -> dict:
    _params(scenario, matcher=None, kernel_backend=None)
    return _perturbation_kwargs(scenario)


_simple_fast, _simple_batch = _kernel_pair(
    simulate_simple, simulate_simple_batch, _simple_kwargs
)


def _adaptive_schedule(scenario: Scenario):
    params = _params(
        scenario, k_initial=None, half_life=None, matcher=None, kernel_backend=None
    )
    k_initial = float(
        params["k_initial"] if params["k_initial"] is not None else scenario.nests.k
    )
    half_life = (
        float(params["half_life"])
        if params["half_life"] is not None
        else max(1.0, k_initial / 4.0)
    )
    return k_initial, half_life


def _adaptive_agent(scenario: Scenario):
    k_initial, half_life = _adaptive_schedule(scenario)
    return (
        adaptive_factory(
            k_initial, half_life, good_threshold=scenario.nests.good_threshold
        ),
        None,
    )


def _adaptive_kwargs(scenario: Scenario) -> dict:
    k_initial, half_life = _adaptive_schedule(scenario)
    return {
        "rate_multiplier": ktilde_schedule(k_initial, half_life),
        **_perturbation_kwargs(scenario),
    }


_adaptive_fast, _adaptive_batch = _kernel_pair(
    simulate_simple, simulate_simple_batch, _adaptive_kwargs
)


# -- Algorithm 2 ("optimal") -------------------------------------------------


def _optimal_agent(scenario: Scenario):
    params = _params(scenario, strict_pseudocode=False, matcher=None)
    factory = optimal_factory(
        good_threshold=scenario.nests.good_threshold,
        strict_pseudocode=bool(params["strict_pseudocode"]),
    )
    # The fast kernel's convergence notion is "every ant final"; the agent
    # default must match for cross-backend parity.
    return factory, criterion_factory("good_settled")


def _optimal_kwargs(scenario: Scenario) -> dict:
    params = _params(scenario, strict_pseudocode=False, matcher=None)
    return {"strict_pseudocode": bool(params["strict_pseudocode"])}


_optimal_fast, _optimal_batch = _kernel_pair(
    simulate_optimal, simulate_optimal_batch, _optimal_kwargs
)


#: Algorithm 2's kernel predates the perturbation layers: histories and its
#: settled-state criterion only.
OPTIMAL_FAST_FEATURES = frozenset(
    {FEATURE_RECORD_HISTORY, criterion_feature("good_settled")}
)


# -- the lower-bound spread process ------------------------------------------


def _spread_policy(scenario: Scenario) -> IgnorantPolicy:
    params = _params(scenario, policy=IgnorantPolicy.WAIT.value, matcher=None)
    return IgnorantPolicy(params["policy"])


def _spread_agent(scenario: Scenario):
    return informed_spread_factory(_spread_policy(scenario)), None


def _spread_report(
    scenario: Scenario, result: SpreadResult, matcher: str
) -> RunReport:
    good_nest = scenario.nests.good_nests[0]
    extras = _fast_extras(matcher)
    extras["informed_history"] = result.informed_history.tolist()
    return RunReport(
        algorithm=scenario.algorithm,
        backend="fast",
        n=scenario.n,
        k=scenario.nests.k,
        seed=scenario.seed,
        trial_index=scenario.trial_index,
        max_rounds=scenario.max_rounds,
        converged=result.all_informed,
        converged_round=result.rounds_to_all_informed,
        rounds_executed=result.rounds_executed,
        chosen_nest=good_nest if result.all_informed else None,
        chose_good_nest=result.all_informed,
        final_counts=None,
        population_history=None,
        extras=extras,
    )


def _spread_fast(scenario: Scenario, source: RandomSource) -> RunReport:
    matcher = scenario_matcher(scenario)
    if matcher == "v1":
        result = simulate_spread(
            scenario.n,
            scenario.nests.k,
            policy=_spread_policy(scenario),
            seed=source,
            max_rounds=scenario.max_rounds,
        )
    else:
        result = simulate_spread_batch(
            scenario.n,
            scenario.nests.k,
            [source],
            policy=_spread_policy(scenario),
            max_rounds=scenario.max_rounds,
        )[0]
    return _spread_report(scenario, result, matcher)


def _spread_batch(scenarios: Sequence[Scenario]) -> list[RunReport]:
    base = scenarios[0]
    results = simulate_spread_batch(
        base.n,
        base.nests.k,
        _sources(scenarios),
        policy=_spread_policy(base),
        max_rounds=base.max_rounds,
    )
    return [
        _spread_report(scenario, result, "v2")
        for scenario, result in zip(scenarios, results)
    ]


def _spread_structure(scenario: Scenario) -> bool:
    # The vectorized process hard-codes the good nest as nest 1; everything
    # else (no perturbations, no criteria, no histories) is feature-gated.
    return scenario.nests.good_nests == (1,)


# -- the quorum and uniform baselines (agent + fast since the batch engine) --


def _quorum_params(scenario: Scenario) -> tuple[float, float]:
    params = _params(
        scenario, quorum_fraction=0.35, tandem_probability=0.25, matcher=None
    )
    return float(params["quorum_fraction"]), float(params["tandem_probability"])


def _quorum_agent(scenario: Scenario):
    quorum_fraction, tandem_probability = _quorum_params(scenario)
    factory = quorum_factory(
        quorum_fraction=quorum_fraction,
        tandem_probability=tandem_probability,
        good_threshold=scenario.nests.good_threshold,
    )
    # Quorum colonies commit via their own threshold rule; runs are judged
    # on unanimity (the nest may be good or bad), as in experiment E8.
    return factory, criterion_factory("unanimous")


def _quorum_fast(scenario: Scenario, source: RandomSource) -> RunReport:
    quorum_fraction, tandem_probability = _quorum_params(scenario)
    if scenario_matcher(scenario) == "v1":
        raise ConfigurationError(
            "the quorum fast kernel exists only under the v2 matcher "
            "schedule; use backend='agent' for the sequential reference"
        )
    result = simulate_quorum_batch(
        scenario.n,
        scenario.nests,
        [source],
        max_rounds=scenario.max_rounds,
        quorum_fraction=quorum_fraction,
        tandem_probability=tandem_probability,
        record_history=scenario.record_history,
    )[0]
    return RunReport.from_fast(scenario, result, extras=_fast_extras("v2"))


def _quorum_batch(scenarios: Sequence[Scenario]) -> list[RunReport]:
    base = scenarios[0]
    quorum_fraction, tandem_probability = _quorum_params(base)
    results = simulate_quorum_batch(
        base.n,
        base.nests,
        _sources(scenarios),
        max_rounds=base.max_rounds,
        quorum_fraction=quorum_fraction,
        tandem_probability=tandem_probability,
        record_history=base.record_history,
    )
    extras = _fast_extras("v2")
    return [
        RunReport.from_fast(scenario, result, extras=extras)
        for scenario, result in zip(scenarios, results)
    ]


#: Quorum's kernel: histories and its unanimity criterion, v2 only.
QUORUM_FAST_FEATURES = frozenset(
    {FEATURE_RECORD_HISTORY, criterion_feature("unanimous")}
)


def _quorum_structure(scenario: Scenario) -> bool:
    return scenario_matcher(scenario) == "v2"


def _uniform_agent(scenario: Scenario):
    params = _params(
        scenario, recruit_probability=0.5, matcher=None, kernel_backend=None
    )
    factory = uniform_factory(
        recruit_probability=float(params["recruit_probability"]),
        good_threshold=scenario.nests.good_threshold,
    )
    return factory, None


def _uniform_kwargs(scenario: Scenario) -> dict:
    params = _params(
        scenario, recruit_probability=0.5, matcher=None, kernel_backend=None
    )
    return {
        "recruit_probability": float(params["recruit_probability"]),
        **_perturbation_kwargs(scenario),
    }


_uniform_fast, _uniform_batch = _kernel_pair(
    simulate_simple, simulate_simple_batch, _uniform_kwargs
)


# -- agent-only extensions ----------------------------------------------------


def _power_feedback_agent(scenario: Scenario):
    params = _params(scenario, beta=0.5)
    factory = power_feedback_factory(
        beta=float(params["beta"]), good_threshold=scenario.nests.good_threshold
    )
    return factory, None


def _approximate_n_agent(scenario: Scenario):
    params = _params(scenario, max_factor=2.0)
    factory = approximate_n_factory(
        max_factor=float(params["max_factor"]),
        good_threshold=scenario.nests.good_threshold,
    )
    return factory, None


def _quality_weighted_agent(scenario: Scenario):
    params = _params(scenario, quality_weight=1.0, acceptance_sharpness=1.0)
    factory = quality_weighted_factory(
        quality_weight=float(params["quality_weight"]),
        acceptance_sharpness=float(params["acceptance_sharpness"]),
    )
    return factory, None


# -- standalone reference processes (fast-only) ------------------------------


def _rumor_fast(scenario: Scenario, source: RandomSource) -> RunReport:
    params = _params(scenario, mode=RumorMode.PUSH.value, initial_informed=1)
    # rumor_rounds returns max_rounds both for completion exactly at the cap
    # and for censoring; allowing one extra round disambiguates (a return
    # value <= max_rounds can only mean genuine completion).
    rounds = rumor_rounds(
        scenario.n,
        source.colony,
        mode=RumorMode(params["mode"]),
        initial_informed=int(params["initial_informed"]),
        max_rounds=scenario.max_rounds + 1,
    )
    converged = rounds <= scenario.max_rounds
    rounds = min(rounds, scenario.max_rounds)
    return RunReport(
        algorithm=scenario.algorithm,
        backend="fast",
        n=scenario.n,
        k=scenario.nests.k,
        seed=scenario.seed,
        trial_index=scenario.trial_index,
        max_rounds=scenario.max_rounds,
        converged=converged,
        converged_round=rounds if converged else None,
        rounds_executed=rounds,
        chosen_nest=None,
        chose_good_nest=False,
        final_counts=None,
        population_history=None,
        extras={"process": "rumor", "mode": params["mode"]},
    )


def _polya_kwargs(scenario: Scenario) -> dict:
    params = _params(scenario, initial=None, gamma=2.0, steps=None)
    initial = params["initial"]
    if initial is None:
        # Default race over the scenario's nests: the n "balls" are split as
        # evenly as the k urns allow.
        k = scenario.nests.k
        base, extra = divmod(scenario.n, k)
        initial = [base + (1 if urn < extra else 0) for urn in range(k)]
    # One reinforcement = one round, so the round cap bounds the steps.
    steps = int(params["steps"]) if params["steps"] is not None else 4 * scenario.n
    return {
        "initial": initial,
        "gamma": float(params["gamma"]),
        "steps": min(steps, scenario.max_rounds),
    }


def _polya_reports(
    scenarios: Sequence[Scenario], sources: Sequence[RandomSource]
) -> list[RunReport]:
    base = scenarios[0]
    kwargs = _polya_kwargs(base)
    results = simulate_polya_batch(
        sources=sources, record_history=base.record_history, **kwargs
    )
    extras = {"process": "polya", "gamma": kwargs["gamma"]}
    return [
        RunReport.from_fast(scenario, result, extras=extras)
        for scenario, result in zip(scenarios, results)
    ]


def _polya_fast(scenario: Scenario, source: RandomSource) -> RunReport:
    # A batch of one, so the single-trial and batch paths cannot drift apart.
    return _polya_reports([scenario], [source])[0]


def _polya_batch(scenarios: Sequence[Scenario]) -> list[RunReport]:
    return _polya_reports(scenarios, _sources(scenarios))


#: The standalone reference processes ignore colony perturbations entirely;
#: they only know how to keep (or skip) their own trajectory histories.
STANDALONE_FAST_FEATURES = frozenset({FEATURE_RECORD_HISTORY})


def register_builtin_algorithms(registry=REGISTRY) -> None:
    """Populate ``registry`` with every built-in algorithm (idempotent)."""
    if "simple" in registry:
        return
    registry.register(
        "simple",
        "Algorithm 3: population-proportional recruitment, O(k log n)",
        agent_builder=_simple_agent,
        fast_kernel=_simple_fast,
        fast_supports=_simple_structure,
        fast_features=SIMPLE_FAST_FEATURES,
        batch_kernel=_simple_batch,
        params=("kernel_backend", "matcher"),
    )
    registry.register(
        "optimal",
        "Algorithm 2: count-based competition, O(log n)",
        agent_builder=_optimal_agent,
        fast_kernel=_optimal_fast,
        fast_features=OPTIMAL_FAST_FEATURES,
        batch_kernel=_optimal_batch,
        params=("matcher", "strict_pseudocode"),
    )
    registry.register(
        "spread",
        "Theorem 3.2 lower-bound process: best-case information spreading",
        agent_builder=_spread_agent,
        fast_kernel=_spread_fast,
        fast_supports=_spread_structure,
        batch_kernel=_spread_batch,
        params=("matcher", "policy"),
    )
    registry.register(
        "quorum",
        "Pratt-style quorum sensing (the biological baseline)",
        agent_builder=_quorum_agent,
        fast_kernel=_quorum_fast,
        fast_supports=_quorum_structure,
        fast_features=QUORUM_FAST_FEATURES,
        batch_kernel=_quorum_batch,
        params=("matcher", "quorum_fraction", "tandem_probability"),
    )
    registry.register(
        "uniform",
        "Algorithm 3 ablation: constant recruit probability (no feedback)",
        agent_builder=_uniform_agent,
        fast_kernel=_uniform_fast,
        fast_supports=_simple_structure,
        fast_features=SIMPLE_FAST_FEATURES,
        batch_kernel=_uniform_batch,
        params=("kernel_backend", "matcher", "recruit_probability"),
    )
    registry.register(
        "rumor",
        "push/pull rumor spreading on the complete graph (reference)",
        fast_kernel=_rumor_fast,
        fast_features=STANDALONE_FAST_FEATURES,
        params=("initial_informed", "mode"),
    )
    registry.register(
        "polya",
        "generalized Pólya urn, the Section 5 reinforcement reference",
        fast_kernel=_polya_fast,
        fast_features=STANDALONE_FAST_FEATURES,
        batch_kernel=_polya_batch,
        params=("gamma", "initial", "steps"),
    )
    registry.register(
        "adaptive",
        "Algorithm 3 with the round-indexed k-tilde rate schedule (E9)",
        agent_builder=_adaptive_agent,
        fast_kernel=_adaptive_fast,
        fast_supports=_simple_structure,
        fast_features=SIMPLE_FAST_FEATURES,
        batch_kernel=_adaptive_batch,
        params=("half_life", "k_initial", "kernel_backend", "matcher"),
    )
    registry.register(
        "power_feedback",
        "Algorithm 3 with (count/n)^beta knowledge-free feedback (E9)",
        agent_builder=_power_feedback_agent,
        params=("beta",),
    )
    registry.register(
        "approximate_n",
        "Algorithm 3 under per-ant misestimates of n (robustness)",
        agent_builder=_approximate_n_agent,
        params=("max_factor",),
    )
    registry.register(
        "quality_weighted",
        "non-binary qualities: quality-weighted recruitment (E10)",
        agent_builder=_quality_weighted_agent,
        params=("acceptance_sharpness", "quality_weight"),
    )
    register_measurement_processes(registry)
