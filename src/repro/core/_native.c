/* Native hot path of the tabu search, for the search states
 * (repro.core.solution.SearchState) of integer instances: Figure 1 steps
 * 3-11 of one diversification round as one call (ts_thread: Nb_int rounds
 * of the local-search loop around the Drop/Add compound move, each followed
 * by step 11's §3.2 intensification), and the pieces the Python paths call
 * one at a time: the compound move, the swap scan, the strategic
 * oscillation with its forced adds, repair and greedy top-up, the greedy
 * fill, the BestSol insertion and the state reload; and numpy's seeding
 * chain (SeedSequence -> PCG64, and the task seed's bounded draw) for
 * repro.rng.
 *
 * Every routine works in place on the search state's own numpy buffers (x,
 * the free mask and free words, q_base, load, slack) and reads the
 * instance's HotTables; repro/core/native.py fills the ts_kernel struct
 * with pointers to them when the state is built.  The contract is
 * bit-identity with the generic Python reference path of that class:
 *
 *   - the same candidate sets in the same ascending order, and the same
 *     evaluation counts;
 *   - the same IEEE-754 operations on load, slack and value (no fused
 *     multiply-add: the loader compiles with -ffp-contract=off);
 *   - the same random draws from the thread's own numpy BitGenerator:
 *     ts_bounded reproduces Generator.integers(0, k) for k < 2**32
 *     (numpy's buffered Lemire rejection over next_uint32, and no draw
 *     at all for k == 1).
 *
 *   - the same loads: ts_reload sums the packed items' weight rows where
 *     numpy computes A @ x, which is exact because this kernel requires
 *     integral weights and capacities (every partial sum is an integer
 *     below 2**53, so the order of the sum cannot change a bit).  Profits
 *     need not be integral, so a reload never computes the value: step
 *     11 restores X_local with the value recorded for it, as the Python
 *     thread does.
 *
 * Two choices are handed back to Python instead of being made here, where
 * the Python path resolves equal keys in an implementation-defined order:
 *   - an Add selection with add_candidates == 2 whose two smallest ratios
 *     tie, or whose second smallest ties the third (argpartition):
 *     ts_move/ts_add_continue return TS_HANDBACK (ts_thread returns
 *     TH_ADD_HANDBACK mid-move) with the admissible set in
 *     k->allowed/k->ratios, and Python picks and resumes;
 *   - the forced adds of the oscillation when two of the keys it adds, or
 *     the last of them and the next, tie exactly (np.argsort's default
 *     kind is not stable): ts_oscillate returns TS_HANDBACK (ts_thread
 *     TH_OSC_HANDBACK) with the free items and their keys, and Python
 *     sorts and resumes.
 *
 * ts_thread also keeps the thread's memories as the Python thread does:
 * the tabu list, History, the BestSol block (ts_elite_offer is
 * memory.EliteArray.offer), X*, X_local and the per-move incumbent trace.
 * Step 12 (diversification) stays in Python, between two calls.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

/* numpy's bitgen_t (numpy/random/bitgen.h), reached through
 * BitGenerator.cffi.bit_generator. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} ts_bitgen;

typedef struct {
    int64_t n, m, nw;
    double fit_eps;
    /* instance tables (read only) */
    const double *capacities;      /* (m,) */
    const double *profits;         /* (n,) */
    const double *weightsT;        /* (n, m) */
    const int64_t *weightsT_int;   /* (n, m) */
    const double *ratio;           /* (m, n): a_ij / c_j */
    const int64_t *flat_sorted;    /* (m * (n + 1),) */
    const uint64_t *cumbits;       /* (m * (n + 1), nw) */
    const double *sorted_profits;  /* (n,) */
    const uint64_t *suffix;        /* (n + 1, nw) */
    const int64_t *q_offsets;      /* (m,): i * OFF */
    const double *density;         /* (n,): sum_i a_ij / c_j */
    const int64_t *density_order;  /* (n,): stable argsort of density */
    /* search state (mutated in place) */
    int8_t *x;
    uint8_t *free_mask;
    uint64_t *free_words;
    int64_t *q_base;
    double *load;
    double *slack;
    double value;
    int64_t n_packed;
    /* scratch and move results */
    uint64_t *fit;                 /* (nw,) */
    uint64_t *rich;                /* (nw,) */
    int64_t *allowed;              /* (n,) */
    double *ratios;                /* (n,) */
    int64_t *dropped;              /* (n,) */
    int64_t *added;                /* (n,) */
    int64_t n_dropped, n_added, n_allowed;
    int64_t evaluations;
    int64_t empty_row;             /* row that last emptied a fitting AND */
} ts_kernel;

/* One thread's Figure 1 state across the ts_thread calls of a run
 * (TabuSearch.run): the arrays alias TabuList._expiry, History.counts and
 * EliteArray's block and are bound once per thread; repro/core/native.py
 * sets the strategy and budget once per run and copies the scalars in and
 * back out around each call. */
typedef struct {
    /* structure, strategy and budget (read only) */
    int64_t nb_int, nb_local, nb_drop, add_candidates, tenure;
    int64_t swap, oscillate, depth;       /* step 11's procedures */
    int64_t max_evaluations, max_moves;   /* INT64_MAX: no cap */
    double target_value;                  /* +inf: no target */
    void *bitgen;
    /* tabu list and History (mutated in place) */
    int64_t *expiry;                      /* (n,) */
    int64_t clock;
    int64_t *counts;                      /* (n,) */
    int64_t iterations;
    /* BestSol: rows sorted by decreasing value (EliteArray) */
    int8_t *elite_x;                      /* (elite_capacity, n) */
    double *elite_values;                 /* (elite_capacity,) */
    int64_t elite_count, elite_capacity;
    /* X* (best_moved is set when best_x holds a newer X* than the one
     * handed in) and X_local */
    int8_t *best_x;                       /* (n,) */
    int8_t *local_x;                      /* (n,) */
    double best_value, local_value;
    int64_t best_moved;
    /* ledger: KernelCounters' two evaluation counts (their sum is what the
     * budget reads) and the run's moves, loops and intensifications */
    int64_t move_evaluations, intensify_evaluations;
    int64_t moves, loops, intensifications;
    /* where the round stands: the intensification round, the phase
     * (TH_PH_*) and the current loop's stall count */
    int64_t int_round, phase, stall;
    /* per-move incumbent trace of one call, emptied by Python after it */
    double *trace;                        /* (trace_cap,) */
    int64_t trace_len, trace_cap;
} ts_search;

enum { TS_DONE = 0, TS_HANDBACK = 1 };

/* ------------------------------------------------------------------ */
/* Generator.integers(0, k) for 1 <= k < 2**32                         */
/* ------------------------------------------------------------------ */
uint64_t ts_bounded(void *bitgen, uint64_t k)
{
    ts_bitgen *bg = (ts_bitgen *)bitgen;
    const uint32_t rng = (uint32_t)(k - 1);
    if (rng == 0)
        return 0;
    if (rng == 0xFFFFFFFFu)
        return bg->next_uint32(bg->state);
    const uint32_t rng_excl = rng + 1;
    uint64_t m = (uint64_t)bg->next_uint32(bg->state) * rng_excl;
    uint32_t leftover = (uint32_t)m;
    if (leftover < rng_excl) {
        const uint32_t threshold = (UINT32_MAX - rng) % rng_excl;
        while (leftover < threshold) {
            m = (uint64_t)bg->next_uint32(bg->state) * rng_excl;
            leftover = (uint32_t)m;
        }
    }
    return m >> 32;
}

/* ------------------------------------------------------------------ */
/* numpy's seeding: SeedSequence(entropy) -> PCG64, and the task seed  */
/* ------------------------------------------------------------------ */
/* repro.rng.reseed and repro.rng.task_seed: numpy 2.x's own steps, so a
 * stream built here is the stream default_rng / derive_rng would build.
 * The entropy is SeedSequence's uint32 coercion of the seed ints (Python
 * does it: little-endian words, at least one per int). */
typedef unsigned __int128 ts_u128;

enum { SS_POOL = 4 };
static const uint32_t SS_INIT_A = 0x43b0d7e5u, SS_MULT_A = 0x931e8875u;
static const uint32_t SS_INIT_B = 0x8b51f9ddu, SS_MULT_B = 0x58f38dedu;
static const uint32_t SS_MIX_L = 0xca01f9ddu, SS_MIX_R = 0x4973f715u;
#define PCG64_MULT \
    (((ts_u128)2549297995355413924ULL << 64) + 4865540595714422341ULL)

static uint32_t ss_hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const *= SS_MULT_A;
    value *= *hash_const;
    return value ^ (value >> 16);
}

static uint32_t ss_mix(uint32_t x, uint32_t y)
{
    const uint32_t r = SS_MIX_L * x - SS_MIX_R * y;
    return r ^ (r >> 16);
}

/* SeedSequence.mix_entropy into the pool, then generate_state(4, uint64)
 * as PCG64's (state, inc) pair: seed[0..1] and seed[2..3] are each the
 * (high, low) words of a 128-bit value. */
static void ss_generate(const uint32_t *entropy, int64_t n, uint64_t seed[4])
{
    uint32_t pool[SS_POOL], hash_const = SS_INIT_A;
    for (int i = 0; i < SS_POOL; i++)
        pool[i] = ss_hashmix(i < n ? entropy[i] : 0, &hash_const);
    for (int src = 0; src < SS_POOL; src++)
        for (int dst = 0; dst < SS_POOL; dst++)
            if (src != dst)
                pool[dst] = ss_mix(pool[dst], ss_hashmix(pool[src], &hash_const));
    for (int64_t src = SS_POOL; src < n; src++)
        for (int dst = 0; dst < SS_POOL; dst++)
            pool[dst] = ss_mix(pool[dst], ss_hashmix(entropy[src], &hash_const));
    hash_const = SS_INIT_B;
    for (int i = 0; i < 2 * SS_POOL; i++) {
        uint32_t v = pool[i % SS_POOL] ^ hash_const;
        hash_const *= SS_MULT_B;
        v *= hash_const;
        v ^= v >> 16;
        if (i % 2 == 0)
            seed[i / 2] = v;
        else
            seed[i / 2] |= (uint64_t)v << 32;
    }
}

/* pcg64_set_seed: inc = initseq << 1 | 1; step; state += initstate; step. */
static void pcg64_seed(const uint64_t seed[4], ts_u128 *state, ts_u128 *inc)
{
    *inc = (((ts_u128)seed[2] << 64 | seed[3]) << 1) | 1u;
    *state = *inc + ((ts_u128)seed[0] << 64 | seed[1]);
    *state = *state * PCG64_MULT + *inc;
}

/* PCG64's next_uint64: step, then the XSL-RR output of the new state. */
static uint64_t pcg64_next(ts_u128 *state, ts_u128 inc)
{
    *state = *state * PCG64_MULT + inc;
    const uint64_t v = (uint64_t)(*state >> 64) ^ (uint64_t)*state;
    const unsigned rot = (unsigned)(*state >> 122);
    return (v >> rot) | (v << ((-rot) & 63u));
}

/* PCG64(SeedSequence(entropy)).state as out = {state high, state low,
 * inc high, inc low}. */
void ts_seed_pcg64(const uint32_t *entropy, int64_t n, uint64_t *out)
{
    uint64_t seed[4];
    ts_u128 state, inc;
    ss_generate(entropy, n, seed);
    pcg64_seed(seed, &state, &inc);
    out[0] = (uint64_t)(state >> 64);
    out[1] = (uint64_t)state;
    out[2] = (uint64_t)(inc >> 64);
    out[3] = (uint64_t)inc;
}

/* default_rng(SeedSequence(entropy)).integers(0, 2**63 - 1): numpy's
 * bounded_lemire_uint64 over next_uint64 with rng = 2**63 - 2. */
int64_t ts_task_seed(const uint32_t *entropy, int64_t n)
{
    uint64_t seed[4];
    ts_u128 state, inc, m;
    ss_generate(entropy, n, seed);
    pcg64_seed(seed, &state, &inc);
    const uint64_t rng = (UINT64_C(1) << 63) - 2, rng_excl = rng + 1;
    m = (ts_u128)pcg64_next(&state, inc) * rng_excl;
    uint64_t leftover = (uint64_t)m;
    if (leftover < rng_excl) {
        const uint64_t threshold = (UINT64_MAX - rng) % rng_excl;
        while (leftover < threshold) {
            m = (ts_u128)pcg64_next(&state, inc) * rng_excl;
            leftover = (uint64_t)m;
        }
    }
    return (int64_t)(m >> 64);
}

/* ------------------------------------------------------------------ */
/* O(m) state updates (SearchState.add / SearchState.drop)            */
/* ------------------------------------------------------------------ */
static void k_add(ts_kernel *k, int64_t j)
{
    const int64_t m = k->m;
    const double *w = k->weightsT + j * m;
    const int64_t *wi = k->weightsT_int + j * m;
    k->x[j] = 1;
    k->free_mask[j] = 0;
    k->free_words[j >> 6] ^= (uint64_t)1 << (j & 63);
    for (int64_t i = 0; i < m; i++) {
        k->q_base[i] -= wi[i];
        k->load[i] += w[i];
        k->slack[i] = k->capacities[i] - k->load[i];
    }
    k->n_packed += 1;
    k->value += k->profits[j];
}

static void k_drop(ts_kernel *k, int64_t j)
{
    const int64_t m = k->m;
    const double *w = k->weightsT + j * m;
    const int64_t *wi = k->weightsT_int + j * m;
    k->x[j] = 0;
    k->free_mask[j] = 1;
    k->free_words[j >> 6] ^= (uint64_t)1 << (j & 63);
    for (int64_t i = 0; i < m; i++) {
        k->q_base[i] += wi[i];
        k->load[i] -= w[i];
        k->slack[i] = k->capacities[i] - k->load[i];
    }
    k->n_packed -= 1;
    k->value -= k->profits[j];
}

/* argmin of slack, first occurrence (SearchState.most_saturated_constraint) */
static int64_t k_istar(const ts_kernel *k)
{
    int64_t best = 0;
    double v = k->slack[0];
    for (int64_t i = 1; i < k->m; i++) {
        if (k->slack[i] < v) {
            v = k->slack[i];
            best = i;
        }
    }
    return best;
}

/* ------------------------------------------------------------------ */
/* Prefix-bitmask fitting scan                                         */
/* ------------------------------------------------------------------ */

/* Number of entries <= q in the ascending block a[0..n). */
static int64_t upper_bound_i64(const int64_t *a, int64_t n, int64_t q)
{
    int64_t lo = 0, hi = n;
    while (lo < hi) {
        int64_t mid = lo + ((hi - lo) >> 1);
        if (a[mid] <= q)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

static int64_t upper_bound_f64(const double *a, int64_t n, double q)
{
    int64_t lo = 0, hi = n;
    while (lo < hi) {
        int64_t mid = lo + ((hi - lo) >> 1);
        if (a[mid] <= q)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* out &= AND over constraints of the prefix rows fitting q_base (+ the
 * weight row of item `without`, when >= 0); returns 0, leaving out
 * partial, as soon as out is empty, else 1.  Block i of flat_sorted is
 * i * OFF + sorted(a_i); counting its entries <= q_base[i] gives the
 * length of the weight-sorted prefix of items that fit slack_i (a query
 * below or above every entry yields the empty or the full prefix).  The AND is order-free, so it starts at the row that
 * emptied it last time (k->empty_row), the likeliest to empty it again. */
static int and_fitting_rows(ts_kernel *k, int64_t without, uint64_t *out)
{
    const int64_t n = k->n, m = k->m, nw = k->nw;
    const int64_t *extra = without >= 0 ? k->weightsT_int + without * m : NULL;
    int64_t i = k->empty_row;
    for (int64_t c = 0; c < m; c++, i = i + 1 == m ? 0 : i + 1) {
        int64_t q = k->q_base[i] + (extra ? extra[i] : 0);
        const int64_t *block = k->flat_sorted + i * (n + 1);
        int64_t pos = i * (n + 1) + upper_bound_i64(block, n, q);
        const uint64_t *row = k->cumbits + pos * nw;
        uint64_t any = 0;
        for (int64_t w = 0; w < nw; w++)
            any |= out[w] &= row[w];
        if (!any) {
            k->empty_row = i;
            return 0;
        }
    }
    return 1;
}

static int64_t popcount_words(const uint64_t *words, int64_t nw)
{
    int64_t total = 0;
    for (int64_t w = 0; w < nw; w++)
        total += __builtin_popcountll(words[w]);
    return total;
}

/* ------------------------------------------------------------------ */
/* The compound move (MoveEngine.apply)                                 */
/* ------------------------------------------------------------------ */

/* The Drop rule: the packed, non-tabu item maximizing a_{i*,j} / c_j
 * (every packed item when all are tabu); -1 on an empty knapsack.  The
 * packed items are read off the free words (complemented, masked past n),
 * so ties collect in ascending index order as over x. */
static int64_t select_drop(ts_kernel *k, const int64_t *expiry, int64_t clock,
                           void *bitgen)
{
    if (k->n_packed == 0)
        return -1;
    const int64_t n = k->n, nw = k->nw;
    const uint64_t tail = n & 63 ? ((uint64_t)1 << (n & 63)) - 1 : ~(uint64_t)0;
    const double *row = k->ratio + k_istar(k) * n;
    int64_t *ties = k->allowed;
    int64_t count = 0, n_ties = 0;
    double best = -INFINITY;
    for (int pass = 0; pass < 2 && count == 0; pass++) {
        for (int64_t w = 0; w < nw; w++) {
            uint64_t bits = ~k->free_words[w];
            if (w == nw - 1)
                bits &= tail;
            for (; bits; bits &= bits - 1) {
                int64_t j = (w << 6) + __builtin_ctzll(bits);
                if (pass == 0 && expiry[j] > clock)
                    continue;
                count++;
                double r = row[j];
                if (r > best) {
                    best = r;
                    ties[0] = j;
                    n_ties = 1;
                } else if (r == best) {
                    ties[n_ties++] = j;
                }
            }
        }
    }
    k->evaluations += count;
    if (n_ties == 1)
        return ties[0];
    return ties[ts_bounded(bitgen, (uint64_t)n_ties)];
}

/* One Add selection.  Returns the item, -1 when nothing can be added, or
 * -2 to hand the choice back (k->allowed/k->ratios/k->n_allowed set). */
static int64_t select_add(ts_kernel *k, const int64_t *expiry, int64_t clock,
                          void *bitgen, double best_value, int64_t add_candidates)
{
    const int64_t n = k->n, nw = k->nw;
    uint64_t *fit = k->fit;
    for (int64_t w = 0; w < nw; w++)
        fit[w] = k->free_words[w];
    if (!and_fitting_rows(k, -1, fit))
        return -1;
    for (int64_t t = 0; t < k->n_dropped; t++) {
        int64_t d = k->dropped[t];
        fit[d >> 6] &= ~((uint64_t)1 << (d & 63));
    }
    int64_t n_fitting = popcount_words(fit, nw);
    if (n_fitting == 0)
        return -1;
    k->evaluations += n_fitting;

    int64_t *allowed = k->allowed;
    int64_t n_allowed = 0;
    for (int64_t w = 0; w < nw; w++) {
        for (uint64_t bits = fit[w]; bits; bits &= bits - 1) {
            int64_t j = (w << 6) + __builtin_ctzll(bits);
            if (expiry[j] <= clock)
                allowed[n_allowed++] = j;
        }
    }
    if (n_allowed == 0) {
        /* Aspiration: every fitting item is tabu; keep those that beat
         * the incumbent. */
        for (int64_t w = 0; w < nw; w++) {
            for (uint64_t bits = fit[w]; bits; bits &= bits - 1) {
                int64_t j = (w << 6) + __builtin_ctzll(bits);
                if (k->value + k->profits[j] > best_value)
                    allowed[n_allowed++] = j;
            }
        }
        if (n_allowed == 0)
            return -1;
    }

    const double *row = k->ratio + k_istar(k) * n;
    double *ratios = k->ratios;
    double lo = INFINITY;
    int64_t n_lo = 0, p_lo = 0;
    for (int64_t t = 0; t < n_allowed; t++) {
        double r = row[allowed[t]];
        ratios[t] = r;
        if (r < lo) {
            lo = r;
            n_lo = 1;
            p_lo = t;
        } else if (r == lo) {
            n_lo++;
        }
    }
    if (add_candidates == 1 || n_allowed == 1) {
        if (n_lo == 1)
            return allowed[p_lo];
        /* ascending tie set, one draw */
        int64_t pick = (int64_t)ts_bounded(bitgen, (uint64_t)n_lo), seen = 0;
        for (int64_t t = 0; t < n_allowed; t++) {
            if (ratios[t] == lo && seen++ == pick)
                return allowed[t];
        }
    }
    /* add_candidates == 2: argpartition(1)[:2] is [argmin, second] when
     * both are strict; otherwise its order is the library's to choose. */
    if (n_lo == 1) {
        double second = INFINITY;
        int64_t n_second = 0, p_second = 0;
        for (int64_t t = 0; t < n_allowed; t++) {
            if (t == p_lo)
                continue;
            double r = ratios[t];
            if (r < second) {
                second = r;
                n_second = 1;
                p_second = t;
            } else if (r == second) {
                n_second++;
            }
        }
        if (n_second == 1) {
            int64_t top[2] = {p_lo, p_second};
            return allowed[top[ts_bounded(bitgen, 2)]];
        }
    }
    k->n_allowed = n_allowed;
    return -2;
}

static int add_pass(ts_kernel *k, const int64_t *expiry, int64_t clock,
                    void *bitgen, double best_value, int64_t add_candidates)
{
    for (;;) {
        int64_t j = select_add(k, expiry, clock, bitgen, best_value, add_candidates);
        if (j == -1)
            return TS_DONE;
        if (j == -2)
            return TS_HANDBACK;
        k_add(k, j);
        k->added[k->n_added++] = j;
    }
}

/* Drop nb_drop times, then Add until nothing fits.  Dropped items are
 * barred from the Add pass (the move's exclusion mask). */
int ts_move(ts_kernel *k, const int64_t *expiry, int64_t clock, void *bitgen,
            int64_t nb_drop, double best_value, int64_t add_candidates)
{
    k->n_dropped = 0;
    k->n_added = 0;
    k->n_allowed = 0;
    k->evaluations = 0;
    for (int64_t s = 0; s < nb_drop; s++) {
        int64_t j = select_drop(k, expiry, clock, bitgen);
        if (j < 0)
            break;
        k_drop(k, j);
        k->dropped[k->n_dropped++] = j;
    }
    return add_pass(k, expiry, clock, bitgen, best_value, add_candidates);
}

/* Resume an Add pass after a handed-back selection: add j, continue. */
int ts_add_continue(ts_kernel *k, const int64_t *expiry, int64_t clock,
                    void *bitgen, double best_value, int64_t add_candidates,
                    int64_t j)
{
    k->n_allowed = 0;
    k_add(k, j);
    k->added[k->n_added++] = j;
    return add_pass(k, expiry, clock, bitgen, best_value, add_candidates);
}

/* ------------------------------------------------------------------ */
/* BestSol insertion (memory.EliteArray.offer)                          */
/* ------------------------------------------------------------------ */

/* Offer (x, value) to the elite block: rows[0..*count) of n bytes sorted by
 * decreasing value.  A vector already present, or a value that does not
 * beat the last row of a full block, changes nothing (returns 0).  Else the
 * row goes after every row of equal or higher value (a stable sort of the
 * appended row) and a full block drops its last row; returns 1. */
int ts_elite_offer(int8_t *rows, double *values, int64_t *count,
                   int64_t capacity, int64_t n, const int8_t *x, double value)
{
    const int64_t c = *count;
    for (int64_t r = 0; r < c; r++) {
        if (memcmp(rows + r * n, x, (size_t)n) == 0)
            return 0;
    }
    if (c >= capacity && !(value > values[c - 1]))
        return 0;
    int64_t pos = 0;
    while (pos < c && values[pos] >= value)
        pos++;
    const int64_t last = c < capacity ? c : capacity - 1;
    memmove(rows + (pos + 1) * n, rows + pos * n, (size_t)((last - pos) * n));
    memmove(values + pos + 1, values + pos, (size_t)(last - pos) * sizeof(double));
    memcpy(rows + pos * n, x, (size_t)n);
    values[pos] = value;
    if (c < capacity)
        *count = c + 1;
    return 1;
}

/* ------------------------------------------------------------------ */
/* Swap intensification (intensification.apply_swaps)                  */
/* ------------------------------------------------------------------ */
/* Stable bottom-up merge sort of idx[0..len) by profit (the Python path's
 * stable argsort of profits[packed]); tmp holds len entries. */
static void sort_by_profit(int64_t *idx, int64_t *tmp, int64_t len,
                           const double *profits)
{
    int64_t *src = idx, *dst = tmp;
    for (int64_t width = 1; width < len; width *= 2) {
        for (int64_t lo = 0; lo < len; lo += 2 * width) {
            int64_t mid = lo + width < len ? lo + width : len;
            int64_t hi = lo + 2 * width < len ? lo + 2 * width : len;
            int64_t a = lo, b = mid, o = lo;
            while (a < mid && b < hi)
                dst[o++] = profits[src[b]] < profits[src[a]] ? src[b++] : src[a++];
            while (a < mid)
                dst[o++] = src[a++];
            while (b < hi)
                dst[o++] = src[b++];
        }
        int64_t *t = src;
        src = dst;
        dst = t;
    }
    for (int64_t t = 0; src != idx && t < len; t++)
        idx[t] = src[t];
}

/* Where item j goes in idx[0..len), sorted by (profit, index). */
static int64_t profit_rank(const int64_t *idx, int64_t len,
                           const double *profits, int64_t j)
{
    const double p = profits[j];
    int64_t lo = 0, hi = len;
    while (lo < hi) {
        int64_t mid = lo + ((hi - lo) >> 1);
        double q = profits[idx[mid]];
        if (q < p || (q == p && idx[mid] < j))
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* Apply improving, feasibility-preserving (1,1)-swaps until none is left;
 * returns the number applied and charges k->evaluations.  Packed items i
 * are visited cheapest first (stably by index); i swaps with the richest
 * free j (c_j > c_i) that fits once i is out, the lowest index on ties,
 * and the scan restarts from the cheapest item after every applied swap.
 * k->allowed keeps the packed items in that order across passes (a swap
 * moves one entry), k->added is the sort's scratch. */
int64_t ts_swap(ts_kernel *k)
{
    const int64_t n = k->n, nw = k->nw;
    int64_t *packed = k->allowed;
    int64_t swaps = 0, n_packed = 0;
    k->evaluations = 0;
    if (k->n_packed == 0 || k->n_packed == n)
        return 0;
    for (int64_t j = 0; j < n; j++) {
        if (k->x[j])
            packed[n_packed++] = j;
    }
    sort_by_profit(packed, k->added, n_packed, k->profits);
    for (int64_t t = 0; t < n_packed; t++) {
        const int64_t i = packed[t];
        /* {j free : c_j > c_i} as one suffix-bitset row */
        int64_t cnt = upper_bound_f64(k->sorted_profits, n, k->profits[i]);
        const uint64_t *suffix = k->suffix + cnt * nw;
        uint64_t *rich = k->rich;
        for (int64_t w = 0; w < nw; w++)
            rich[w] = k->free_words[w] & suffix[w];
        int64_t n_richer = popcount_words(rich, nw);
        if (n_richer == 0)
            break;  /* no later (richer or equal) item has a richer free item */
        k->evaluations += n_richer;
        if (!and_fitting_rows(k, i, rich))
            continue;
        int64_t best = -1;
        for (int64_t w = 0; w < nw; w++) {
            for (uint64_t bits = rich[w]; bits; bits &= bits - 1) {
                int64_t j = (w << 6) + __builtin_ctzll(bits);
                if (best < 0 || k->profits[j] > k->profits[best])
                    best = j;
            }
        }
        k_drop(k, i);
        k_add(k, best);
        swaps++;
        memmove(packed + t, packed + t + 1, (size_t)(n_packed - t - 1) * sizeof(int64_t));
        int64_t r = profit_rank(packed, n_packed - 1, k->profits, best);
        memmove(packed + r + 1, packed + r, (size_t)(n_packed - 1 - r) * sizeof(int64_t));
        packed[r] = best;
        t = -1;  /* restart from the cheapest packed item */
    }
    return swaps;
}

/* ------------------------------------------------------------------ */
/* Greedy fill, repair and strategic oscillation (construction,        */
/* intensification.strategic_oscillation)                             */
/* ------------------------------------------------------------------ */
static void fill_in_order(ts_kernel *k, const int64_t *order, int64_t len)
{
    const int64_t m = k->m;
    for (int64_t t = 0; t < len; t++) {
        int64_t j = order[t];
        if (k->x[j])
            continue;
        const double *col = k->weightsT + j * m;
        int64_t i = 0;
        while (i < m && col[i] <= k->slack[i] + k->fit_eps)
            i++;
        if (i == m)
            k_add(k, j);
    }
}

/* Add the items of `order` that fit, in order.  Returns -1 without
 * touching the state when an index is out of range. */
int ts_fill(ts_kernel *k, const int64_t *order, int64_t len)
{
    for (int64_t t = 0; t < len; t++) {
        if (order[t] < 0 || order[t] >= k->n)
            return -1;
    }
    fill_in_order(k, order, len);
    return 0;
}

/* Drop the packed item of largest density, the first index on ties,
 * until load <= capacities + fit_eps holds on every row.  Returns the
 * number dropped, or -1 when the state is still infeasible with nothing
 * left to drop. */
int64_t ts_repair(ts_kernel *k)
{
    const int64_t n = k->n, m = k->m;
    int64_t dropped = 0;
    for (;;) {
        int64_t i = 0;
        while (i < m && k->load[i] <= k->capacities[i] + k->fit_eps)
            i++;
        if (i == m)
            return dropped;
        if (k->n_packed == 0)
            return -1;
        int64_t worst = -1;
        for (int64_t j = 0; j < n; j++) {
            if (k->x[j] && (worst < 0 || k->density[j] > k->density[worst]))
                worst = j;
        }
        k_drop(k, worst);
        dropped++;
    }
}

/* Force up to `depth` free items in regardless of capacity, repair, then
 * fill greedily by increasing density; charges k->evaluations (the forced
 * adds and one item per instance column for the fill).
 *
 * With order == NULL the forced items are drawn here: the free items, in
 * ascending index order, get the keys density_j + u_j * 1e-12 with
 * u_j = next_double() (Generator.random(n_free)), and the min(depth,
 * n_free) smallest keys go in, smallest first.  When two of those keys, or
 * the last of them and the next, are equal, the free items and their keys
 * are left in k->allowed/k->ratios (k->n_allowed) and TS_HANDBACK returns
 * with the state untouched; Python then sorts them and calls again with
 * the items to force in `order`.  Returns TS_DONE, or -1 when repair finds
 * nothing left to drop. */
int ts_oscillate(ts_kernel *k, void *bitgen, int64_t depth,
                 const int64_t *order, int64_t n_order)
{
    const int64_t n = k->n;
    k->evaluations = 0;
    if (order == NULL) {
        const int64_t n_free = n - k->n_packed;
        n_order = 0;
        if (n_free > 0 && depth > 0) {
            ts_bitgen *bg = (ts_bitgen *)bitgen;
            int64_t *free_items = k->allowed;
            double *keys = k->ratios;
            int64_t *forced = k->dropped;
            int64_t count = 0;
            for (int64_t j = 0; j < n; j++) {
                if (!k->x[j]) {
                    free_items[count] = j;
                    keys[count++] = k->density[j] + bg->next_double(bg->state) * 1e-12;
                }
            }
            n_order = depth < n_free ? depth : n_free;
            double prev = -INFINITY;
            for (int64_t s = 0; s < n_order; s++) {
                int64_t pos = -1, ties = 0;
                for (int64_t t = 0; t < count; t++) {
                    if (!(keys[t] > prev))
                        continue;
                    if (pos < 0 || keys[t] < keys[pos]) {
                        pos = t;
                        ties = 1;
                    } else if (keys[t] == keys[pos]) {
                        ties++;
                    }
                }
                if (ties > 1) {
                    k->n_allowed = count;
                    return TS_HANDBACK;
                }
                forced[s] = free_items[pos];
                prev = keys[pos];
            }
            order = forced;
        }
    }
    for (int64_t s = 0; s < n_order; s++)
        k_add(k, order[s]);
    k->evaluations += n_order;
    if (ts_repair(k) < 0)
        return -1;
    fill_in_order(k, k->density_order, n);
    k->evaluations += n;
    return TS_DONE;
}

/* ------------------------------------------------------------------ */
/* State reload (SearchState.reset)                                     */
/* ------------------------------------------------------------------ */
/* Recompute the free mask and words, load, slack, q_base and n_packed
 * from k->x.  load is the sum of the packed items' weight rows, equal to
 * numpy's A @ x because every partial sum is an exact integer (see the
 * header); value is left to the caller, since profits need not be
 * integral. */
void ts_reload(ts_kernel *k)
{
    const int64_t n = k->n, m = k->m;
    int64_t n_packed = 0;
    for (int64_t i = 0; i < m; i++)
        k->load[i] = 0.0;
    for (int64_t w = 0; w < k->nw; w++)
        k->free_words[w] = 0;
    for (int64_t j = 0; j < n; j++) {
        if (k->x[j]) {
            const double *w = k->weightsT + j * m;
            k->free_mask[j] = 0;
            n_packed++;
            for (int64_t i = 0; i < m; i++)
                k->load[i] += w[i];
        } else {
            k->free_mask[j] = 1;
            k->free_words[j >> 6] |= (uint64_t)1 << (j & 63);
        }
    }
    for (int64_t i = 0; i < m; i++) {
        k->slack[i] = k->capacities[i] - k->load[i];
        k->q_base[i] = k->q_offsets[i] + (int64_t)k->slack[i];
    }
    k->n_packed = n_packed;
}

/* ------------------------------------------------------------------ */
/* Figure 1 steps 3-11 (TabuSearch.run between two diversifications)  */
/* ------------------------------------------------------------------ */
enum {
    TH_INFEASIBLE = -1, TH_DONE = 0, TH_ADD_HANDBACK = 1, TH_OSC_HANDBACK = 2,
    TH_TRACE_FULL = 3,
};
/* Where a round stands between calls: before step 3's next round, in the
 * local-search loop, or before the oscillation's forced adds. */
enum { TH_PH_ROUND = 0, TH_PH_LOCAL = 1, TH_PH_OSCILLATE = 2 };

/* Budget.exhausted without a wall clock. */
static int budget_spent(const ts_search *t)
{
    return t->move_evaluations + t->intensify_evaluations >= t->max_evaluations
        || t->moves >= t->max_moves || t->best_value >= t->target_value;
}

/* Steps 6-9 after a compound move; returns 1 when the move changed nothing
 * (the loop then ends, as the Python loop's degenerate break does). */
static int after_move(ts_kernel *k, ts_search *t)
{
    const int64_t n = k->n;
    t->move_evaluations += k->evaluations;
    t->moves++;
    if (k->n_dropped + k->n_added == 0)
        return 1;
    /* steps 6-7 */
    const double value = k->value;
    if (value > t->best_value) {
        memcpy(t->best_x, k->x, (size_t)n);
        memcpy(t->local_x, k->x, (size_t)n);
        t->best_value = t->local_value = value;
        t->best_moved = 1;
        t->stall = 0;
    } else {
        if (value > t->local_value) {
            memcpy(t->local_x, k->x, (size_t)n);
            t->local_value = value;
        }
        t->stall++;
    }
    if (t->elite_count < t->elite_capacity
        || value > t->elite_values[t->elite_count - 1])
        ts_elite_offer(t->elite_x, t->elite_values, &t->elite_count,
                       t->elite_capacity, n, k->x, value);
    /* step 8: History */
    for (int64_t j = 0; j < n; j++)
        t->counts[j] += k->x[j];
    t->iterations++;
    /* step 9: tick, then tabu the touched items until clock + tenure */
    t->clock++;
    const int64_t until = t->clock + t->tenure;
    for (int64_t s = 0; s < k->n_dropped; s++) {
        int64_t j = k->dropped[s];
        if (t->expiry[j] < until)
            t->expiry[j] = until;
    }
    for (int64_t s = 0; s < k->n_added; s++) {
        int64_t j = k->added[s];
        if (t->expiry[j] < until)
            t->expiry[j] = until;
    }
    t->trace[t->trace_len++] = t->best_value;
    return 0;
}

/* Steps 5-10: compound moves until X* stalls for nb_local moves, the budget
 * is spent or a move changes nothing (TH_DONE).  resume >= 0 finishes a
 * move whose Add selection was handed back by adding item `resume`. */
static int local_search(ts_kernel *k, ts_search *t, int64_t resume)
{
    if (resume >= 0) {
        if (ts_add_continue(k, t->expiry, t->clock, t->bitgen, t->best_value,
                            t->add_candidates, resume) == TS_HANDBACK)
            return TH_ADD_HANDBACK;
        if (after_move(k, t))
            return TH_DONE;
    }
    while (t->stall < t->nb_local) {
        if (budget_spent(t))
            break;
        if (t->trace_len == t->trace_cap)
            return TH_TRACE_FULL;
        if (ts_move(k, t->expiry, t->clock, t->bitgen, t->nb_drop, t->best_value,
                    t->add_candidates) == TS_HANDBACK)
            return TH_ADD_HANDBACK;
        if (after_move(k, t))
            break;
    }
    return TH_DONE;
}

/* Load X_local with the value recorded for it. */
static void restore_local(ts_kernel *k, const ts_search *t)
{
    memcpy(k->x, t->local_x, (size_t)k->n);
    ts_reload(k);
    k->value = t->local_value;
}

/* TabuSearch._register_candidate: fold the state into X* and BestSol. */
static void register_candidate(ts_kernel *k, ts_search *t)
{
    if (k->value > t->best_value) {
        memcpy(t->best_x, k->x, (size_t)k->n);
        t->best_value = k->value;
        t->best_moved = 1;
    }
    ts_elite_offer(t->elite_x, t->elite_values, &t->elite_count,
                   t->elite_capacity, k->n, k->x, k->value);
}

/* Step 11's swap half: swap from X_local and register the result.  Returns
 * whether the state still holds X_local or the kept improvement on it (the
 * swap count decides, not a compare of vectors). */
static int swap_from_local(ts_kernel *k, ts_search *t)
{
    restore_local(k, t);
    int64_t swaps = ts_swap(k);
    t->intensify_evaluations += k->evaluations;
    register_candidate(k, t);
    return k->value > t->local_value || swaps == 0;
}

/* Step 11's oscillation half and its registration; n_order >= 0 resumes a
 * hand-back with the forced items sorted into k->dropped. */
static int oscillate_step(ts_kernel *k, ts_search *t, int64_t n_order)
{
    int status = ts_oscillate(k, t->bitgen, t->depth,
                              n_order >= 0 ? k->dropped : NULL, n_order);
    if (status == TS_HANDBACK)
        return TH_OSC_HANDBACK;
    if (status < 0)
        return TH_INFEASIBLE;
    t->intensify_evaluations += k->evaluations;
    register_candidate(k, t);
    return TH_DONE;
}

/* Run rounds int_round .. nb_int - 1 of step 3 (steps 4-10, then step 11)
 * from the current state, with the budget checked where TabuSearch.run
 * checks it.  TH_DONE: step 12 is next, or the budget was spent (Python
 * reads the budget again).  After TH_ADD_HANDBACK call again with the
 * picked item as `resume`; after TH_OSC_HANDBACK, with the forced items
 * sorted into k->dropped and their count as `resume`; after TH_TRACE_FULL,
 * with -1 once the trace is emptied.  TH_INFEASIBLE: repair found nothing
 * left to drop. */
int ts_thread(ts_kernel *k, ts_search *t, int64_t resume)
{
    t->trace_len = 0;
    for (;;) {
        int status;
        if (t->phase == TH_PH_ROUND) {
            if (t->int_round == t->nb_int || budget_spent(t))
                return TH_DONE;
            memcpy(t->local_x, k->x, (size_t)k->n);  /* step 4 */
            t->local_value = k->value;
            t->stall = 0;
            t->phase = TH_PH_LOCAL;
            resume = -1;
        }
        if (t->phase == TH_PH_LOCAL) {
            status = local_search(k, t, resume);
            if (status != TH_DONE)
                return status;
            t->loops++;
            if (budget_spent(t)) {
                t->phase = TH_PH_ROUND;
                return TH_DONE;
            }
            int holds_local = t->swap ? swap_from_local(k, t) : 1;
            if (t->oscillate) {
                if (!holds_local)
                    restore_local(k, t);
                t->phase = TH_PH_OSCILLATE;
                resume = -1;
            }
        }
        if (t->phase == TH_PH_OSCILLATE) {
            status = oscillate_step(k, t, resume);
            if (status != TH_DONE)
                return status;
        }
        t->phase = TH_PH_ROUND;
        t->intensifications++;
        t->int_round++;
    }
}
