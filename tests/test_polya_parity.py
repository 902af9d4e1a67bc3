"""Parity of the trial-vectorized Pólya urn kernel with its spec.

:func:`repro.fast.urn.simulate_polya_batch` must equal, trial for trial,
:class:`repro.baselines.polya.PolyaUrn` stepped ``steps`` times from that
trial's ``source.colony`` stream: the same final counts, and the same
share-rounded history the registered ``polya`` process has always
reported.  The registry path (``run``/``run_batch``) must be invariant
under chunking and workers, and the kernel must keep the spec's errors.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro.fast.urn as urn_module
from repro.api import REGISTRY, Scenario, run, run_batch
from repro.baselines.polya import PolyaUrn
from repro.exceptions import ConfigurationError
from repro.fast.arena import Arena
from repro.fast.urn import STEP_BLOCK, simulate_polya_batch
from repro.model.nests import NestConfig
from repro.sim.rng import RandomSource
from tests.helpers.equivalence import assert_reports_bit_identical


def spec_trial(initial, gamma, steps, source):
    """Final counts and rounded-share history of one spec urn race."""
    urn = PolyaUrn(initial, gamma=gamma)
    shares = [urn.shares()]
    for _ in range(steps):
        urn.step(source.colony)
        shares.append(urn.shares())
    totals = np.arange(steps + 1) + sum(initial)
    history = np.rint(np.array(shares) * totals[:, None]).astype(np.int64)
    return urn.counts, history


def assert_kernel_matches_spec(initial, gamma, steps, seeds):
    results = simulate_polya_batch(
        initial,
        [RandomSource(seed) for seed in seeds],
        steps,
        gamma=gamma,
        record_history=True,
    )
    for seed, result in zip(seeds, results):
        counts, history = spec_trial(initial, gamma, steps, RandomSource(seed))
        label = f"initial={initial} gamma={gamma} steps={steps} seed={seed}"
        assert result.final_counts.tolist() == [0, *counts.tolist()], label
        assert result.chosen_nest == int(np.argmax(counts)) + 1, label
        assert result.rounds_executed == steps == result.converged_round
        assert np.array_equal(result.population_history[:, 1:], history), label
        assert not result.population_history[:, 0].any(), label


#: Initial counts per urn count, each including an empty urn.
_INITIAL = {2: [0, 7], 3: [5, 0, 9], 4: [3, 11, 0, 6]}


class TestKernelEqualsSpec:
    @pytest.mark.parametrize("gamma", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_counts_and_history(self, k, gamma):
        assert_kernel_matches_spec(_INITIAL[k], gamma, 300, seeds=range(5))

    def test_zero_steps(self):
        assert_kernel_matches_spec([4, 2, 9], 2.0, 0, seeds=range(3))

    @pytest.mark.parametrize(
        "steps", [STEP_BLOCK - 1, STEP_BLOCK, STEP_BLOCK + 1, 2 * STEP_BLOCK + 3]
    )
    def test_steps_around_the_uniform_block(self, steps):
        assert_kernel_matches_spec([20, 30, 25], 1.5, steps, seeds=(11, 12, 13))

    def test_block_size_is_invisible(self, monkeypatch):
        sources = lambda: [RandomSource(seed) for seed in range(4)]  # noqa: E731
        reference = simulate_polya_batch([9, 8, 7], sources(), 100, 2.0, True)
        monkeypatch.setattr(urn_module, "STEP_BLOCK", 7)
        blocked = simulate_polya_batch([9, 8, 7], sources(), 100, 2.0, True)
        for got, expect in zip(blocked, reference):
            assert np.array_equal(got.final_counts, expect.final_counts)
            assert np.array_equal(got.population_history, expect.population_history)

    def test_wide_urns_and_large_counts(self):
        # Eight or more urns put numpy's row sums on the pairwise path.
        assert_kernel_matches_spec(
            [1000, 0, 3, 250, 17, 999, 1, 40, 5, 612], 1.5, 200, seeds=(3, 4)
        )

    def test_history_off_keeps_results_and_drops_history(self):
        sources = lambda: [RandomSource(seed) for seed in range(3)]  # noqa: E731
        with_history = simulate_polya_batch([6, 6], sources(), 50, 2.0, True)
        without = simulate_polya_batch([6, 6], sources(), 50, 2.0, False)
        for full, bare in zip(with_history, without):
            assert bare.population_history is None
            assert np.array_equal(full.final_counts, bare.final_counts)


class TestErrors:
    @pytest.mark.parametrize(
        "initial,gamma", [([5], 1.0), ([0, 0], 1.0), ([-1, 2], 1.0), ([1, 1], 0.0)]
    )
    def test_spec_configuration_errors(self, initial, gamma):
        with pytest.raises(ConfigurationError):
            PolyaUrn(initial, gamma=gamma)
        with pytest.raises(ConfigurationError):
            simulate_polya_batch(initial, [RandomSource(0)], 10, gamma=gamma)

    def test_registry_configuration_errors(self):
        scenario = Scenario(
            algorithm="polya",
            n=16,
            nests=NestConfig.all_good(2),
            params={"initial": [0, 0]},
        )
        with pytest.raises(ConfigurationError):
            run(scenario, backend="fast")

    @pytest.mark.parametrize("initial", [[40, 1], [10, 10]])
    def test_weight_overflow_raises_like_choice(self, initial):
        # 40**200 overflows at the first step; 10**200 only after the
        # fullest urn passes about 35 balls.
        with pytest.raises(ValueError):
            with np.errstate(over="ignore", invalid="ignore"):
                spec_trial(initial, 200.0, 100, RandomSource(0))
        with pytest.raises(ValueError, match="not finite"):
            with np.errstate(over="ignore", invalid="ignore"):
                simulate_polya_batch(initial, [RandomSource(0)], 100, gamma=200.0)


def _urn_scenario(**overrides) -> Scenario:
    base = dict(
        algorithm="polya",
        n=48,
        nests=NestConfig.binary(3, {1, 3}),
        seed=21,
        max_rounds=150,
        record_history=True,
        params={"initial": [10, 0, 14], "gamma": 1.5, "steps": 400},
    )
    base.update(overrides)
    return Scenario(**base)


class TestRegistryPath:
    def test_polya_is_batched(self):
        assert REGISTRY.get("polya").supports_batch(_urn_scenario())

    def test_steps_capped_by_max_rounds_match_the_spec(self):
        scenario = _urn_scenario()
        reports = run_batch(scenario.trials(4), workers=1)
        for t, report in enumerate(reports):
            counts, history = spec_trial(
                [10, 0, 14], 1.5, 150, scenario.trial(t).source()
            )
            assert report.rounds_executed == 150
            assert report.final_counts.tolist() == [0, *counts.tolist()]
            assert np.array_equal(report.population_history[:, 1:], history)
            assert report.extras == {"process": "polya", "gamma": 1.5}

    def test_single_trial_runs_are_a_batch_of_one(self):
        scenario = _urn_scenario()
        batched = run_batch(scenario.trials(5), workers=1)
        singles = [run(scenario.trial(t), backend="fast") for t in range(5)]
        assert_reports_bit_identical(batched, singles, label="polya")

    @pytest.mark.parametrize("chunk", [1, 7, None])
    def test_chunking_never_changes_results(self, chunk):
        trials = _urn_scenario(record_history=False).trials(9)
        reference = run_batch(trials, workers=1, batch_chunk=9)
        kwargs = {} if chunk is None else {"batch_chunk": chunk}
        chunked = run_batch(trials, workers=1, **kwargs)
        assert_reports_bit_identical(chunked, reference, label=f"chunk={chunk}")

    def test_workers_never_change_results(self):
        trials = _urn_scenario().trials(6)
        serial = run_batch(trials, workers=1, batch_chunk=2)
        parallel = run_batch(trials, workers=2, batch_chunk=2)
        assert_reports_bit_identical(parallel, serial, label="workers")


def test_memory_is_bounded_by_the_block_not_the_steps(monkeypatch):
    """A history-free chunk holds O(chunk × block) memory at any ``steps``.

    32 blocks of steps: a trajectory, a per-step log or a whole-run
    uniform draw would each need at least ``chunk × steps × 8`` bytes,
    eight times the bound asserted here.
    """
    chunk, steps = 8, 32 * STEP_BLOCK
    monkeypatch.setattr(urn_module, "shared_arena", Arena)
    sources = [RandomSource(seed) for seed in range(chunk)]
    for source in sources:
        source.colony  # create the streams outside the measured window
    tracemalloc.start()
    try:
        simulate_polya_batch([60, 68], sources, steps, gamma=2.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * chunk * STEP_BLOCK * 8
