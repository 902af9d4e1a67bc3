"""The v2 matcher: sequential spec, batched resolver, and v1 equivalence.

Three layers of guarantees, in increasing strength of claim:

1. :func:`repro.model.recruitment.match_arrays_v2` (the sequential v2
   specification) produces structurally valid Algorithm 1 matchings with
   the same invariants as v1;
2. the trial-parallel resolver (:mod:`repro.fast.batch_matcher`) agrees
   with that specification **bit-for-bit** for every trial of any batch —
   property-tested over randomized sizes, densities, and subset shapes;
3. v1 and v2 are *statistically* equivalent where it matters: pair-count
   distributions here, full convergence-time distributions in
   :mod:`tests.test_batch_engine`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fast.batch import simulate_optimal_batch, simulate_simple_batch
from repro.fast.batch_matcher import (
    match_flat_pairs,
    match_pairs_batch,
    match_positions_batch,
    match_slots_batch,
    resolve_greedy_matching,
)
from repro.model.nests import NestConfig
from repro.model.recruitment import match_arrays, match_arrays_v2
from repro.sim.rng import RandomSource
from tests.helpers.equivalence import assert_means_close


def _rngs(seed: int, count: int) -> list[np.random.Generator]:
    return [np.random.default_rng([seed, row]) for row in range(count)]


class TestSequentialSpec:
    """match_arrays_v2 — the executable specification."""

    def test_matching_invariants(self, rng):
        for _ in range(50):
            m = int(rng.integers(1, 64))
            wants = rng.random(m) < rng.random()
            targets = rng.integers(1, 6, size=m)
            results, recruiter_of, is_recruiter = match_arrays_v2(
                wants, targets, np.random.default_rng(int(rng.integers(1 << 30)))
            )
            recruited = recruiter_of != -1
            # Recruiters and recruitees are disjoint (self-pairs aside),
            # every recruiter recruits at most once, and results follow
            # the recruiter's target.
            recruiters = np.flatnonzero(is_recruiter)
            assert wants[recruiters].all()
            pair_of = recruiter_of[recruited]
            assert len(np.unique(pair_of)) == len(pair_of)
            assert np.array_equal(
                results[recruited], targets[recruiter_of[recruited]]
            )
            not_recruited = ~recruited
            assert np.array_equal(results[not_recruited], targets[not_recruited])
            # A recruiter is never itself recruited, except by itself.
            both = is_recruiter & recruited
            assert (recruiter_of[both] == np.flatnonzero(both)).all()

    def test_single_wanting_slot_self_recruits(self):
        # Theorem 3.2's forced self-recruitment: alone, the choice must be
        # yourself.
        wants = np.array([True])
        targets = np.array([7])
        results, recruiter_of, is_recruiter = match_arrays_v2(
            wants, targets, np.random.default_rng(0)
        )
        assert recruiter_of[0] == 0 and is_recruiter[0]
        assert results[0] == 7

    def test_no_attempts_draws_nothing(self):
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        match_arrays_v2(np.zeros(8, bool), np.ones(8, np.int64), rng_a)
        # An idle round must not consume the stream.
        assert rng_a.integers(1 << 30) == rng_b.integers(1 << 30)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            match_arrays_v2(np.zeros(3, bool), np.ones(2, np.int64), np.random.default_rng(0))


class TestBatchedResolverMatchesSpec:
    """The parallel greedy resolver == the sequential scan, bitwise."""

    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(60):
            n = int(rng.integers(1, 96))
            n_trials = int(rng.integers(1, 7))
            wants = rng.random((n_trials, n)) < rng.random()
            targets = rng.integers(1, 7, size=(n_trials, n))
            draw_seed = int(rng.integers(1 << 30))
            res_b, rof_b, isr_b = match_slots_batch(
                wants, targets, _rngs(draw_seed, n_trials)
            )
            for row in range(n_trials):
                res, rof, isr = match_arrays_v2(
                    wants[row], targets[row], np.random.default_rng([draw_seed, row])
                )
                assert np.array_equal(res, res_b[row])
                assert np.array_equal(rof, rof_b[row])
                assert np.array_equal(isr, isr_b[row])

    def test_extreme_densities(self):
        rng = np.random.default_rng(99)
        for density in (0.0, 1.0):
            for n in (1, 2, 17, 256):
                wants = np.full((3, n), density > 0.5)
                targets = rng.integers(1, 4, size=(3, n))
                res_b, rof_b, isr_b = match_slots_batch(
                    wants, targets, _rngs(7, 3)
                )
                for row in range(3):
                    res, rof, isr = match_arrays_v2(
                        wants[row], targets[row], np.random.default_rng([7, row])
                    )
                    assert np.array_equal(res, res_b[row])
                    assert np.array_equal(rof, rof_b[row])
                    assert np.array_equal(isr, isr_b[row])

    def test_pairs_variant_agrees_with_full_variant(self):
        rng = np.random.default_rng(3)
        wants = rng.random((4, 64)) < 0.5
        targets = rng.integers(1, 5, size=(4, 64))
        _, recruiter_of, _ = match_slots_batch(wants, targets, _rngs(11, 4))
        sel_src, sel_dst = match_pairs_batch(wants, _rngs(11, 4))
        rebuilt = np.full(4 * 64, -1, dtype=np.int64)
        rebuilt[sel_dst] = sel_src % 64
        assert np.array_equal(rebuilt.reshape(4, 64), recruiter_of)

    def test_batch_rows_are_independent(self):
        """A trial's outcome never depends on what it is batched with."""
        rng = np.random.default_rng(21)
        wants = rng.random((6, 40)) < 0.6
        targets = rng.integers(1, 5, size=(6, 40))
        full = match_slots_batch(wants, targets, _rngs(13, 6))
        for row in range(6):
            alone = match_slots_batch(
                wants[row : row + 1],
                targets[row : row + 1],
                [np.random.default_rng([13, row])],
            )
            for got, expect in zip(alone, full):
                assert np.array_equal(got[0], expect[row])

    def test_subset_participation(self):
        """match_positions_batch == the spec run over the packed subset."""
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(2, 64))
            n_trials = int(rng.integers(1, 5))
            participants = rng.random((n_trials, n)) < rng.random()
            attempting = participants & (rng.random((n_trials, n)) < rng.random())
            targets = rng.integers(1, 6, size=(n_trials, n))
            draw_seed = int(rng.integers(1 << 30))
            results, recruited = match_positions_batch(
                participants, attempting, targets, _rngs(draw_seed, n_trials)
            )
            expect_results, expect_recruited = _spec_positions(
                participants, attempting, targets, draw_seed
            )
            assert np.array_equal(results, expect_results)
            assert np.array_equal(recruited, expect_recruited)

    def test_resolver_int64_fallback_path(self):
        """Key spaces beyond the int32 limit use the same algorithm."""
        import repro.fast.batch_matcher as bm

        rng = np.random.default_rng(8)
        wants = rng.random((3, 50)) < 0.7
        targets = rng.integers(1, 4, size=(3, 50))
        expected = match_slots_batch(wants, targets, _rngs(4, 3))
        original = bm._INT32_KEY_LIMIT
        try:
            bm._INT32_KEY_LIMIT = 0  # force the int64 branch
            forced = match_slots_batch(wants, targets, _rngs(4, 3))
        finally:
            bm._INT32_KEY_LIMIT = original
        for got, expect in zip(forced, expected):
            assert np.array_equal(got, expect)

    def test_resolver_rejects_nothing_on_empty(self):
        sel_src, sel_dst = resolve_greedy_matching(
            np.empty(0, np.int64), np.empty(0, np.int64), 16
        )
        assert len(sel_src) == 0 and len(sel_dst) == 0


def _spec_positions(participants, attempting, targets, draw_seed):
    """The sequential v2 spec over each row's packed participant list."""
    n_trials, n = participants.shape
    results = np.array(targets, dtype=np.int64, copy=True)
    recruited = np.zeros((n_trials, n), dtype=bool)
    for row in range(n_trials):
        ants = np.flatnonzero(participants[row])
        res, rof, _ = match_arrays_v2(
            attempting[row, ants],
            targets[row, ants],
            np.random.default_rng([draw_seed, row]),
        )
        results[row, ants] = res
        recruited[row, ants[rof != -1]] = True
    return results, recruited


def _consume_flat(src_flat, dst_flat, targets):
    """Algorithm 2's consumption: scatter pairs into a flat int32 plane."""
    plane = np.array(targets, dtype=np.int32, copy=True)
    flat = plane.ravel()
    flat[dst_flat] = flat.take(src_flat)
    recruited = np.zeros(plane.shape, dtype=bool)
    recruited.ravel()[dst_flat] = True
    return plane, recruited


class TestSparseConsumption:
    """The flat sparse pairs the Algorithm 2 batch kernel scatters from."""

    @staticmethod
    def _check(participants, attempting, targets, draw_seed):
        n_trials = participants.shape[0]
        src, dst = match_flat_pairs(
            participants, attempting, _rngs(draw_seed, n_trials)
        )
        assert len(np.unique(dst)) == len(dst)
        assert not np.isin(src[src != dst], dst).any()
        plane, recruited = _consume_flat(src, dst, targets)
        dense, dense_rec = match_positions_batch(
            participants, attempting, targets, _rngs(draw_seed, n_trials)
        )
        spec, spec_rec = _spec_positions(
            participants, attempting, targets, draw_seed
        )
        assert np.array_equal(plane, dense) and np.array_equal(plane, spec)
        assert np.array_equal(recruited, dense_rec)
        assert np.array_equal(recruited, spec_rec)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_masks_match_dense_and_spec(self, seed):
        rng = np.random.default_rng([31, seed])
        for _ in range(40):
            n = int(rng.integers(1, 80))
            n_trials = int(rng.integers(1, 6))
            participants = rng.random((n_trials, n)) < rng.random()
            attempting = participants & (rng.random((n_trials, n)) < rng.random())
            targets = rng.integers(1, 9, size=(n_trials, n))
            self._check(participants, attempting, targets, int(rng.integers(1 << 30)))

    def test_zero_attempt_rows_draw_nothing(self):
        rng = np.random.default_rng(41)
        n, n_trials = 50, 5
        participants = rng.random((n_trials, n)) < 0.7
        attempting = participants & (rng.random((n_trials, n)) < 0.5)
        attempting[[1, 3]] = False  # rows with participants but no attempts
        targets = rng.integers(1, 5, size=(n_trials, n))
        self._check(participants, attempting, targets, 9)
        rngs = _rngs(9, n_trials)
        before = [g.bit_generator.state for g in rngs]
        src, dst = match_flat_pairs(participants, attempting, rngs)
        assert not np.isin(src // n, [1, 3]).any()
        for row in (1, 3):
            assert rngs[row].bit_generator.state == before[row]
        for row in (0, 2, 4):
            assert rngs[row].bit_generator.state != before[row]

    def test_no_attempts_anywhere_returns_empty_without_draws(self):
        participants = np.ones((3, 16), dtype=bool)
        rngs = _rngs(2, 3)
        before = [g.bit_generator.state for g in rngs]
        src, dst = match_flat_pairs(participants, np.zeros((3, 16), bool), rngs)
        assert len(src) == 0 and len(dst) == 0
        assert [g.bit_generator.state for g in rngs] == before

    def test_every_participant_attempting(self):
        """``attempting=None`` (Algorithm 2's B1) == the explicit mask."""
        rng = np.random.default_rng(43)
        for n in (1, 2, 33, 128):
            participants = rng.random((4, n)) < 0.6
            participants[2] = True  # a row where every ant attempts
            participants[3] = False  # and one with no participants at all
            targets = rng.integers(1, 5, size=(4, n))
            self._check(participants, participants, targets, n)
            explicit = match_flat_pairs(participants, participants, _rngs(n, 4))
            implicit = match_flat_pairs(participants, None, _rngs(n, 4))
            for got, expect in zip(implicit, explicit):
                assert np.array_equal(np.sort(got), np.sort(expect))

    @pytest.mark.parametrize(
        "kernel", [simulate_simple_batch, simulate_optimal_batch]
    )
    def test_outputs_stay_int64(self, kernel):
        """int32 working planes never leak into the reported arrays."""
        nests = NestConfig.binary(4, {1, 2})
        sources = [RandomSource(5).trial(t) for t in range(3)]
        for result in kernel(64, nests, sources, record_history=True):
            assert result.final_counts.dtype == np.int64
            assert result.population_history.dtype == np.int64


class TestV1V2StatisticalEquivalence:
    """Same pairing law: aggregate matching statistics must agree.

    The comparisons run through the shared harness
    (:mod:`tests.helpers.equivalence`), the same tolerances the batch-engine
    and perturbation-parity suites use.
    """

    def test_pair_count_distributions_close(self):
        m, reps = 128, 400
        rng = np.random.default_rng(2)
        wants = rng.random(m) < 0.5
        targets = np.ones(m, dtype=np.int64)
        v1_pairs = []
        v2_pairs = []
        for rep in range(reps):
            _, rof1, _ = match_arrays(wants, targets, np.random.default_rng([1, rep]))
            _, rof2, _ = match_arrays_v2(wants, targets, np.random.default_rng([2, rep]))
            v1_pairs.append(int((rof1 != -1).sum()))
            v2_pairs.append(int((rof2 != -1).sum()))
        assert_means_close(v1_pairs, v2_pairs, label="pair counts")

    def test_cross_nest_movement_distribution_close(self):
        """The multiset-level claim: over exchangeable state assignments,
        v1 and v2 move statistically indistinguishable numbers of ants
        between nests (per-slot marginals legitimately differ — slot 0
        always scans first under v2 — but no dynamics observe slots)."""
        m, reps = 96, 300
        moved_v1 = []
        moved_v2 = []
        for rep in range(reps):
            state_rng = np.random.default_rng([5, rep])
            wants = state_rng.random(m) < 0.6
            targets = state_rng.integers(1, 4, size=m)
            res1, rof1, _ = match_arrays(wants, targets, np.random.default_rng([6, rep]))
            res2, rof2, _ = match_arrays_v2(
                wants, targets, np.random.default_rng([7, rep])
            )
            moved_v1.append(int((res1 != targets).sum()))
            moved_v2.append(int((res2 != targets).sum()))
        assert_means_close(moved_v1, moved_v2, label="cross-nest moves")
