/* Compiled round-loop kernels for the perturbed batch simulator.
 *
 * Pass-for-pass mirror of repro/fast/backends/looped.py (the executable
 * specification); see that module and docs/PERFORMANCE.md §7 for the
 * bit-identity argument.  The short version:
 *
 *   - all RNG stays in numpy — these passes consume pre-drawn planes;
 *   - the probability pipeline performs the same IEEE-754 double ops in
 *     the same order as the numpy ufuncs (divide, quality multiply,
 *     rate multiply, clip), with no multiply-add the compiler could
 *     contract into an FMA;
 *   - compile WITHOUT -ffast-math (cext.py passes -ffp-contract=off),
 *     so the doubles round exactly like numpy's.
 *
 * Performance structure: each kernel is a short sequence of *branchless*
 * element passes over restrict-qualified flat planes — bool logic as
 * uint8 arithmetic, movement as select blends — which gcc/clang
 * auto-vectorize at -O3.  Loop-invariant feature tests (``delayed``,
 * ``quality`` …) sit inside the loops and are hoisted by loop
 * unswitching; per-element branches are what kept the first cut of this
 * file *slower* than numpy's SIMD plane passes (branch misprediction on
 * coin/stall bytes costs more than the arithmetic it saves).
 *
 * Array layout: every plane arrives as a C-contiguous flat pointer; bool
 * planes are numpy bool_ = one byte = uint8_t holding exactly 0 or 1
 * (the passes preserve this invariant, so ``&``/``|``/``^1`` implement
 * and/or/not).
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

/* Feature flags — mirrored from looped.py; keep in sync. */
#define F_DELAYED 1L
#define F_QUALITY 2L
#define F_HAS_BYZ 4L
#define F_ENFORCE_ZOMBIE 8L
#define F_CRASH_AT_HOME 16L
#define F_RATE_MULT 32L

long pk_decide_move(
    long mn, double dn,
    const double *restrict coins, const double *restrict stalls,
    const int32_t *restrict nest, int32_t *restrict position,
    const int64_t *restrict count, const uint8_t *restrict active,
    uint8_t *restrict phase_assess, uint8_t *restrict pending,
    uint8_t *restrict latched,
    const uint8_t *restrict healthy, const uint8_t *restrict zombie,
    const uint8_t *restrict byz_mask, const int32_t *restrict byz_target,
    int32_t *restrict ant_phase, const double *restrict mult, long mult_len,
    const double *restrict qualities,
    double recruit_probability, double delay_prob,
    long flags,
    uint8_t *restrict exec_rec, uint8_t *restrict exec_go,
    uint8_t *restrict byz_searching, uint8_t *restrict byz_recruiting,
    uint8_t *restrict scr_a, uint8_t *restrict scr_b)
{
    const int delayed = (flags & F_DELAYED) != 0;
    const int quality = (flags & F_QUALITY) != 0;
    const int has_byz = (flags & F_HAS_BYZ) != 0;
    const int enforce = (flags & F_ENFORCE_ZOMBIE) != 0;
    const int at_home = (flags & F_CRASH_AT_HOME) != 0;
    const int rate = (flags & F_RATE_MULT) != 0;
    uint8_t acc = 0;
    long i;

    /* Fully-fused fast path for the benchmark-gated hot shape: feedback
     * probability, power-of-two colony size, delay model, fault-free.
     * Every pass below is elementwise with no cross-element dependency,
     * so P1/P3/P4/P5/P6 collapse into one plane walk — the scratch
     * planes and their store/reload round-trips disappear entirely.
     * Each per-element operation is bit-for-bit the one the staged
     * passes perform (same exact reciprocal multiply, same compares,
     * same byte logic), so digests cannot move. */
    if (!quality && !rate && recruit_probability < 0.0 && delayed
        && !has_byz && !enforce) {
        int unused_exp;
        if (frexp(dn, &unused_exp) == 0.5) {
            const double rdn = 1.0 / dn;
            for (i = 0; i < mn; i++) {
                const uint8_t h = healthy[i];
                const uint8_t assess = phase_assess[i];
                const uint8_t la =
                    (uint8_t)((assess ^ 1) & h & (latched[i] ^ 1));
                const double p = (double)count[i] * rdn;
                const uint8_t want = (uint8_t)((coins[i] < p) & active[i]);
                const uint8_t stall = (uint8_t)(stalls[i] < delay_prob);
                const uint8_t ex = (uint8_t)(h & (stall ^ 1));
                const uint8_t er = (uint8_t)((assess ^ 1) & ex);
                const uint8_t eg = (uint8_t)(assess & ex);
                int32_t pos = position[i];
                pending[i] =
                    (uint8_t)((la & want) | ((la ^ 1) & pending[i]));
                exec_rec[i] = er;
                exec_go[i] = eg;
                acc |= eg;
                phase_assess[i] = (uint8_t)((assess | er) & (eg ^ 1));
                latched[i] = (uint8_t)((latched[i] | h) & (ex ^ 1));
                pos = er ? 0 : pos;
                pos = eg ? nest[i] : pos;
                position[i] = pos;
            }
            return (long)acc;
        }
    }

    /* P1: the latch mask — ants deciding their next action this round. */
    for (i = 0; i < mn; i++)
        scr_a[i] = (uint8_t)((phase_assess[i] ^ 1) & healthy[i]
                             & (latched[i] ^ 1));

    /* P2 (rate schedules only): pre-increment each latching ant's own
     * schedule index, as AdaptiveSimpleAnt.decide does. */
    if (rate)
        for (i = 0; i < mn; i++)
            ant_phase[i] += scr_a[i];

    /* P3: the probability pipeline + the pending-coin blend.  Op order
     * matches the numpy ufunc sequence exactly: divide (or constant),
     * quality multiply, rate multiply, clip, compare.  The plain
     * feedback/constant cases get dedicated branch-free loops (gcc
     * refuses to vectorize the general loop's control flow, and the
     * plain cases are the benchmark-gated hot workloads); when ``dn`` is
     * a power of two the divide becomes an *exact* reciprocal multiply —
     * scaling by 2^-k never rounds, so the quotient is bit-identical. */
    if (!quality && !rate) {
        if (recruit_probability >= 0.0) {
            const double p = recruit_probability;
            for (i = 0; i < mn; i++) {
                const uint8_t la = scr_a[i];
                const uint8_t want = (uint8_t)((coins[i] < p) & active[i]);
                pending[i] =
                    (uint8_t)((la & want) | ((la ^ 1) & pending[i]));
            }
        } else {
            int unused_exp;
            const int pow2 = frexp(dn, &unused_exp) == 0.5;
            const double rdn = 1.0 / dn;
            if (pow2) {
                for (i = 0; i < mn; i++) {
                    const double p = (double)count[i] * rdn;
                    const uint8_t la = scr_a[i];
                    const uint8_t want =
                        (uint8_t)((coins[i] < p) & active[i]);
                    pending[i] =
                        (uint8_t)((la & want) | ((la ^ 1) & pending[i]));
                }
            } else {
                for (i = 0; i < mn; i++) {
                    const double p = (double)count[i] / dn;
                    const uint8_t la = scr_a[i];
                    const uint8_t want =
                        (uint8_t)((coins[i] < p) & active[i]);
                    pending[i] =
                        (uint8_t)((la & want) | ((la ^ 1) & pending[i]));
                }
            }
        }
    } else {
        for (i = 0; i < mn; i++) {
            double p;
            uint8_t want, la;
            if (recruit_probability >= 0.0)
                p = recruit_probability;
            else
                p = (double)count[i] / dn;
            if (quality)
                p = p * qualities[nest[i]];
            if (rate) {
                long idx = ant_phase[i];
                if (idx >= mult_len)
                    idx = mult_len - 1;
                p = p * mult[idx];
            }
            if (p < 0.0)
                p = 0.0;
            if (p > 1.0)
                p = 1.0;
            la = scr_a[i];
            want = (uint8_t)((coins[i] < p) & active[i]);
            pending[i] = (uint8_t)((la & want) | ((la ^ 1) & pending[i]));
        }
    }

    /* P4: stall bytes (delay models only). */
    if (delayed)
        for (i = 0; i < mn; i++)
            scr_b[i] = (uint8_t)(stalls[i] < delay_prob);

    /* P5: exec masks, Byzantine roles, movement targets, phase advance —
     * pure byte logic.  Movement targets land in the scratch planes
     * (scr_a = go-to-nest, scr_b = go-home) for the int32 blend below.
     * The fault-free shapes (no Byzantine ants, no zombies landing) get
     * dedicated branch-free loops for the same reason as P3. */
    if (!has_byz && !enforce) {
        if (delayed) {
            for (i = 0; i < mn; i++) {
                const uint8_t h = healthy[i];
                const uint8_t assess = phase_assess[i];
                const uint8_t ex = (uint8_t)(h & (scr_b[i] ^ 1));
                const uint8_t er = (uint8_t)((assess ^ 1) & ex);
                const uint8_t eg = (uint8_t)(assess & ex);
                exec_rec[i] = er;
                exec_go[i] = eg;
                acc |= eg;
                phase_assess[i] = (uint8_t)((assess | er) & (eg ^ 1));
                latched[i] = (uint8_t)((latched[i] | h) & (ex ^ 1));
                scr_a[i] = eg;
                scr_b[i] = er;
            }
        } else {
            for (i = 0; i < mn; i++) {
                const uint8_t h = healthy[i];
                const uint8_t assess = phase_assess[i];
                const uint8_t er = (uint8_t)((assess ^ 1) & h);
                const uint8_t eg = (uint8_t)(assess & h);
                exec_rec[i] = er;
                exec_go[i] = eg;
                acc |= eg;
                phase_assess[i] = (uint8_t)((assess | er) & (eg ^ 1));
                latched[i] = (uint8_t)((latched[i] | h) & (h ^ 1));
                scr_a[i] = eg;
                scr_b[i] = er;
            }
        }
    } else {
        for (i = 0; i < mn; i++) {
            const uint8_t h = healthy[i];
            const uint8_t assess = phase_assess[i];
            const uint8_t ex = delayed ? (uint8_t)(h & (scr_b[i] ^ 1)) : h;
            const uint8_t er = (uint8_t)((assess ^ 1) & ex);
            const uint8_t eg = (uint8_t)(assess & ex);
            uint8_t brec = 0, gohome, gonest;
            exec_rec[i] = er;
            exec_go[i] = eg;
            acc |= eg;
            if (has_byz) {
                const uint8_t b = byz_mask[i];
                const uint8_t unstalled =
                    delayed ? (uint8_t)(scr_b[i] ^ 1) : (uint8_t)1;
                byz_searching[i] =
                    (uint8_t)(b & (byz_target[i] == 0) & unstalled);
                brec = (uint8_t)(b & (byz_target[i] != 0) & unstalled);
                byz_recruiting[i] = brec;
            }
            gohome = (uint8_t)(er | brec);
            gonest = eg;
            if (enforce) {
                if (at_home)
                    gohome |= zombie[i];
                else
                    gonest |= zombie[i];
            }
            phase_assess[i] = (uint8_t)((assess | er) & (eg ^ 1));
            latched[i] = (uint8_t)((latched[i] | h) & (ex ^ 1));
            scr_a[i] = gonest;
            scr_b[i] = gohome;
        }
    }

    /* P6: movement as an int32 select blend (go-to-nest wins). */
    for (i = 0; i < mn; i++) {
        int32_t pos = position[i];
        pos = scr_b[i] ? 0 : pos;
        pos = scr_a[i] ? nest[i] : pos;
        position[i] = pos;
    }
    return (long)acc;
}

long pk_participants(
    long m, long n,
    const int32_t *restrict position,
    const uint8_t *restrict exec_rec, const uint8_t *restrict pending,
    const uint8_t *restrict byz_recruiting, long has_byz,
    uint8_t *restrict part, uint8_t *restrict att,
    int64_t *restrict m_per, int64_t *restrict n_att)
{
    const long mn = m * n;
    long total = 0;
    long i, row;
    for (i = 0; i < mn; i++)
        part[i] = (uint8_t)(position[i] == 0);
    if (has_byz)
        for (i = 0; i < mn; i++)
            att[i] = (uint8_t)((exec_rec[i] & pending[i])
                               | byz_recruiting[i]);
    else
        for (i = 0; i < mn; i++)
            att[i] = (uint8_t)(exec_rec[i] & pending[i]);
    for (row = 0; row < m; row++) {
        const long off = row * n;
        long mp = 0, na = 0;
        long j;
        for (j = 0; j < n; j++) {
            mp += part[off + j];
            na += (long)(part[off + j] & att[off + j]);
        }
        m_per[row] = mp;
        n_att[row] = na;
        total += na;
    }
    return total;
}

long pk_greedy_match(
    long m, long n,
    const uint8_t *restrict part, const uint8_t *restrict att,
    const int64_t *restrict choices, const int64_t *restrict n_att,
    const int64_t *restrict m_per,
    int32_t *restrict plist, uint8_t *restrict used,
    int64_t *restrict out_rows, int64_t *restrict out_src,
    int64_t *restrict out_dst)
{
    long ci = 0, outn = 0;
    long row;
    for (row = 0; row < m; row++) {
        const long off = row * n;
        const long row_start = outn;
        long s = 0;
        long j, e;
        /* A row with no attempts consumes no choices (the driver drew
         * n_att[row] of them) and selects nothing: skip it outright. */
        if (n_att[row] == 0)
            continue;
        memset(used, 0, (size_t)m_per[row]);
        /* One fused pass in ant order == participant-slot order: the
         * slot list is built branchlessly (unconditional store, advance
         * by the participant byte) while attempts consume choices.  A
         * chosen slot may lie ahead of the scan, so pairs record the
         * *slot* of the recruit and a fix-up below maps it to its ant
         * once the row's list is complete.  (A sparse-attempt variant
         * that skipped straight to attempt bytes via word scans measured
         * 3x slower on the real workload: attempts run dense — hundreds
         * per row — and mapping each chosen slot back to its ant without
         * the amortized plist costs more than the plain scan.) */
        for (j = 0; j < n; j++) {
            const uint8_t pj = part[off + j];
            plist[s] = (int32_t)j;
            if (pj & att[off + j]) {
                const long c = choices[ci];
                ci += 1;
                if (!used[s] && !used[c]) {
                    used[s] = 1;
                    used[c] = 1;
                    out_rows[outn] = row;
                    out_src[outn] = j;
                    out_dst[outn] = c;
                    outn += 1;
                }
            }
            s += pj;
        }
        for (e = row_start; e < outn; e++)
            out_dst[e] = plist[out_dst[e]];
    }
    return outn;
}

/* Recruited, executing ants adopt the recruiter's advertised nest.
 * Destinations are unique within a round, so the scatter is
 * order-independent; active only ever latches on. */
void pk_apply_pairs(
    long n_pairs, long n,
    const int64_t *restrict rows, const int64_t *restrict src,
    const int64_t *restrict dst,
    int32_t *restrict nest, const int32_t *restrict byz_target,
    const uint8_t *restrict byz_mask, long has_byz,
    const uint8_t *restrict exec_rec, uint8_t *restrict active)
{
    long e;
    for (e = 0; e < n_pairs; e++) {
        const long off = rows[e] * n;
        const long d = off + dst[e];
        const long s = off + src[e];
        int32_t v;
        if (!exec_rec[d])
            continue;
        v = (has_byz && byz_mask[s]) ? byz_target[s] : nest[s];
        if (v != nest[d]) {
            nest[d] = v;
            active[d] = 1;
        }
    }
}

/* count = where(exec_go, observed, count) as an arithmetic select —
 * ``-(int64_t)byte`` is an all-ones/all-zeros mask, pure bitwise int64
 * work the vectorizer accepts (the ternary form compiles to a masked
 * load gcc rejects). */
static void blend_sel(
    long mn, int64_t *restrict count, const int64_t *restrict observed,
    const uint8_t *restrict exec_go)
{
    long i;
    for (i = 0; i < mn; i++) {
        const int64_t sel = -(int64_t)exec_go[i];
        count[i] = (observed[i] & sel) | (count[i] & ~sel);
    }
}

void pk_observe(
    long m, long n, long k1,
    const int32_t *restrict position, const int32_t *restrict nest,
    int64_t *restrict counts2d, int64_t *restrict gath,
    int64_t *restrict count, const uint8_t *restrict exec_go,
    long do_blend)
{
    long row;
    for (row = 0; row < m; row++) {
        int64_t *restrict crow = counts2d + row * k1;
        const long off = row * n;
        const long n4 = n & ~3L;
        /* Census with 4 interleaved accumulator banks: most ants sit at
         * position 0 (home), so a single-bank scatter serializes on the
         * same-address increment's store-load latency; four banks run
         * four chains in parallel.  VLA is small (4 * k1 words). */
        int64_t bank[4][k1];
        long j, b;
        memset(bank, 0, sizeof(bank));
        for (j = 0; j < n4; j += 4) {
            bank[0][position[off + j]] += 1;
            bank[1][position[off + j + 1]] += 1;
            bank[2][position[off + j + 2]] += 1;
            bank[3][position[off + j + 3]] += 1;
        }
        for (; j < n; j++)
            bank[0][position[off + j]] += 1;
        for (b = 0; b < k1; b++)
            crow[b] = bank[0][b] + bank[1][b] + bank[2][b] + bank[3][b];
        for (j = 0; j < n; j++)
            gath[off + j] = crow[nest[off + j]];
    }
    /* Fused no-noise count blend: the observed plane is the gather
     * output, so finish it here and save the round a separate call. */
    if (do_blend)
        blend_sel(m * n, count, gath, exec_go);
}

void pk_blend(
    long mn, int64_t *restrict count, const int64_t *restrict observed,
    const uint8_t *restrict exec_go)
{
    blend_sel(mn, count, observed, exec_go);
}

void pk_converged(
    long m, long n, long healthy_only, long has_byz,
    const int32_t *restrict nest, const uint8_t *restrict unhealthy,
    const uint8_t *restrict byz_mask, const int32_t *restrict byz_target,
    const int64_t *restrict h_first, const uint8_t *restrict h_nonempty,
    const uint8_t *restrict good, uint8_t *restrict out)
{
    long row;
    for (row = 0; row < m; row++) {
        const long off = row * n;
        long j;
        if (healthy_only) {
            int32_t ref;
            int ok;
            if (!h_nonempty[row]) {
                out[row] = 0;
                continue;
            }
            ref = nest[off + h_first[row]];
            ok = good[ref] != 0;
            if (ok) {
                for (j = 0; j < n; j++) {
                    const long i = off + j;
                    if (!unhealthy[i] && nest[i] != ref) {
                        ok = 0;
                        break;
                    }
                }
            }
            out[row] = (uint8_t)ok;
        } else {
            int32_t ref;
            int ok;
            if (has_byz && byz_mask[off])
                ref = byz_target[off];
            else
                ref = nest[off];
            ok = ref > 0 && good[ref];
            if (ok) {
                for (j = 1; j < n; j++) {
                    const long i = off + j;
                    int32_t committed;
                    if (has_byz && byz_mask[i])
                        committed = byz_target[i];
                    else
                        committed = nest[i];
                    if (committed != ref) {
                        ok = 0;
                        break;
                    }
                }
            }
            out[row] = (uint8_t)ok;
        }
    }
}

/* Greedy matching over attempt edges in scan order.  Branch-free: whether
 * an edge pairs is a coin flip to the branch predictor, so every edge
 * stores unconditionally and only the output cursor advances on a pair
 * (about 2x faster than the branching scan on dense attempts; the pair
 * set and its order are unchanged).  A self-pair reads and marks one
 * slot twice, which is harmless. */
long pk_resolve_pairs(
    long ne,
    const int64_t *restrict src_key, const int64_t *restrict dst_key,
    uint8_t *restrict used,
    int64_t *restrict out_src, int64_t *restrict out_dst)
{
    long outn = 0;
    long e;
    for (e = 0; e < ne; e++) {
        const int64_t s = src_key[e];
        const int64_t d = dst_key[e];
        const uint8_t ok = (uint8_t)!(used[s] | used[d]);
        used[s] |= ok;
        used[d] |= ok;
        out_src[outn] = s;
        out_dst[outn] = d;
        outn += ok;
    }
    return outn;
}
