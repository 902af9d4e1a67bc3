"""Trial-parallel Pólya urn: one step loop over a ``(chunk, k)`` count plane.

:class:`repro.baselines.polya.PolyaUrn` is the executable spec.  Each
:meth:`~repro.baselines.polya.PolyaUrn.step` reinforces urn ``i`` with
probability ``c_i^γ / Σ_j c_j^γ`` through ``rng.choice(k, p=...)``; a step
costs about 20 µs, nearly all of it ``choice``'s argument checking.  A
quick E14 urn cell (100 trials × 512 steps) spent about 1.5 s there.

:func:`simulate_polya_batch` advances every trial of a chunk by one step
per iteration of a single loop, and reproduces ``choice`` bit for bit.
``Generator.choice(k, p=p)`` draws exactly one ``random()`` double ``u``
and returns the number of entries of ``cumsum(p) / cumsum(p)[-1]`` that
are ``<= u``.  So the kernel

- draws each trial's uniforms from that trial's own ``source.colony``
  stream, :data:`STEP_BLOCK` steps at a time (PCG64 doubles concatenate,
  so the block size never shows in the bits);
- applies the spec's float operations row-wise: power, row sum, divide,
  cumulative sum, normalise by the last entry, compare;
- rebuilds the share-rounded history from a log of chosen urns, and only
  when a history is asked for.

Memory is bounded by the block, not by ``steps``: ``chunk × STEP_BLOCK``
uniforms plus a few ``(chunk, k)`` planes, all from the shared arena.  With
``record_history`` the ``(chunk, steps)`` chosen-urn log is added, which is
smaller than the histories it rebuilds.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.baselines.polya import PolyaUrn
from repro.exceptions import ConfigurationError
from repro.fast.arena import shared_arena
from repro.fast.results import FastRunResult
from repro.sim.rng import RandomSource

#: Urn steps whose uniforms each trial draws in one ``random(out=)`` call.
STEP_BLOCK = 512

#: Count-scatter increment in the int64 dtype of the count plane.
_ONE64 = np.int64(1)


def simulate_polya_batch(
    initial: Sequence[int] | np.ndarray,
    sources: Sequence[RandomSource],
    steps: int,
    gamma: float = 1.0,
    record_history: bool = False,
) -> list[FastRunResult]:
    """Run one Pólya urn race per source, ``steps`` reinforcements each.

    Every trial starts from ``initial`` and consumes one uniform of its
    ``colony`` stream per step, exactly as ``PolyaUrn(initial, gamma)``
    stepped ``steps`` times with that stream would.  Urn ``i`` is reported
    as nest ``i + 1`` (column 0, the home nest, stays empty); the winner is
    the first fullest urn.  A history row ``t`` is the spec's share
    trajectory scaled back to counts, ``rint(c_t / Σc_t · (t + Σinitial))``.

    Raises the spec's :class:`ConfigurationError` for bad ``initial`` or
    ``gamma``, and ``ValueError`` when a weight total ``Σ c_i^γ`` is not
    finite (``choice`` rejects those probabilities as containing NaN or not
    summing to 1).
    """
    spec = PolyaUrn(initial, gamma=gamma)
    if not sources:
        raise ConfigurationError("batch kernels need at least one RandomSource")
    if steps < 0:
        raise ConfigurationError(f"steps must be >= 0, got {steps}")
    rngs = [source.colony for source in sources]
    n_trials, k = len(rngs), len(spec.counts)

    arena = shared_arena()
    counts = arena.buf("urn_counts", (n_trials, k), np.int64)
    counts[:] = spec.counts
    weights = arena.buf("urn_weights", (n_trials, k), np.float64)
    probs = arena.buf("urn_probs", (n_trials, k), np.float64)
    cdf = arena.buf("urn_cdf", (n_trials, k), np.float64)
    below = arena.buf("urn_below", (n_trials, k), np.bool_)
    total = arena.buf("urn_total", (n_trials,), np.float64)
    last = arena.buf("urn_last", (n_trials,), np.float64)
    finite = arena.buf("urn_finite", (n_trials,), np.bool_)
    chosen = arena.buf("urn_chosen", (n_trials,), np.int64)
    uniforms = arena.buf("urn_uniforms", (n_trials, STEP_BLOCK), np.float64)
    flat_counts = counts.reshape(-1)
    offsets = np.arange(n_trials, dtype=np.int64) * k
    total_col, last_col, cdf_last = total[:, None], last[:, None], cdf[:, -1]
    log = np.empty((n_trials, steps), dtype=np.int64) if record_history else None

    step = 0
    while step < steps:
        column = step % STEP_BLOCK
        if column == 0:
            width = min(STEP_BLOCK, steps - step)
            for row, rng in enumerate(rngs):
                rng.random(out=uniforms[row, :width])
        np.power(counts, spec.gamma, out=weights)
        np.add.reduce(weights, axis=1, out=total)
        if not np.isfinite(total, out=finite).all():
            raise ValueError(
                f"Pólya urn weight total sum(c**{spec.gamma:g}) is not finite "
                f"at step {step}: probabilities contain NaN or do not sum to 1"
            )
        np.divide(weights, total_col, out=probs)
        np.add.accumulate(probs, axis=1, out=cdf)
        np.copyto(last, cdf_last)
        np.divide(cdf, last_col, out=cdf)
        np.less_equal(cdf, uniforms[:, column, None], out=below)
        np.add.reduce(below, axis=1, dtype=np.int64, out=chosen)
        if log is not None:
            log[:, step] = chosen
        np.add(chosen, offsets, out=chosen)
        np.add.at(flat_counts, chosen, _ONE64)
        step += 1

    out = []
    for row in range(n_trials):
        final = counts[row]
        out.append(
            FastRunResult(
                converged=True,
                converged_round=steps,
                rounds_executed=steps,
                chosen_nest=int(np.argmax(final)) + 1,
                final_counts=np.concatenate([[0], final]).astype(np.int64),
                population_history=(
                    None if log is None else _history(spec.counts, log[row])
                ),
            )
        )
    return out


def _history(initial: np.ndarray, chosen: np.ndarray) -> np.ndarray:
    """``(steps + 1, k + 1)`` rounded-share history of one trial's urn log."""
    steps, k = len(chosen), len(initial)
    counts = np.zeros((steps + 1, k), dtype=np.int64)
    counts[0] = initial
    counts[np.arange(1, steps + 1), chosen] = 1
    np.cumsum(counts, axis=0, out=counts)
    shares = counts / counts.sum(axis=1)[:, None]
    history = np.rint(
        shares * (np.arange(steps + 1) + int(initial.sum()))[:, None]
    ).astype(np.int64)
    return np.concatenate(
        [np.zeros((steps + 1, 1), dtype=np.int64), history], axis=1
    )
