/* Native hot loop of the tabu search: the Figure-1 local-search loop
 * (steps 4-10) around the Drop/Add compound move, the §3.2 swap
 * intensification and the greedy fill, in the bitset mode of
 * repro.core.solution.SearchState.
 *
 * Every routine works in place on the search state's own numpy buffers (x,
 * the free mask and free words, q_base, load, slack) and reads the
 * instance's HotTables; repro/core/native.py fills the ts_kernel struct
 * with pointers to them when the state is built.  The contract is bit-identity with the numpy reference path:
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
 * One choice is handed back to Python instead of being made here: an Add
 * selection with add_candidates == 2 whose two smallest ratios tie, or
 * whose second smallest ties the third.  The numpy path resolves it with
 * argpartition, whose order among equal keys is implementation-defined;
 * ts_move/ts_add_continue return TS_HANDBACK (ts_local_search returns
 * LS_HANDBACK mid-move) with the admissible set in k->allowed/k->ratios,
 * and Python picks and resumes.
 *
 * ts_local_search also keeps the thread's memories as the Python loop
 * does: the tabu list, History, the BestSol block (ts_elite_offer is
 * memory.EliteArray.offer), X*, X_local and the per-move incumbent trace.
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
} ts_kernel;

/* The thread's memories and budget for one local-search loop
 * (TabuSearch._local_search_loop): the arrays alias TabuList._expiry,
 * History.counts and EliteArray's block; the scalars are copied in and
 * back out by repro/core/native.py around every call. */
typedef struct {
    /* strategy and budget (read only) */
    int64_t nb_drop, nb_local, add_candidates, tenure;
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
    /* X* and X_local: a buffer is written only when the loop improves on
     * the value handed in, and its flag is then set.  Once best_moved is
     * set, X_local is X* (local_x is not written for it). */
    int8_t *best_x;                       /* (n,) */
    int8_t *local_x;                      /* (n,) */
    double best_value, local_value;
    int64_t best_moved, local_moved;
    /* ledger: evaluations and moves are the running totals the budget
     * reads; loop_moves and stall count from the loop's start */
    int64_t evaluations, moves, loop_moves, stall;
    /* per-move incumbent trace, flushed by Python when full */
    double *trace;                        /* (trace_cap,) */
    int64_t trace_len, trace_cap;
} ts_loop;

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
/* Prefix-bitmask fitting scan (SearchState.fitting_words[_without])   */
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
 * weight row of item `without`, when >= 0).  Block i of flat_sorted is
 * i * OFF + sorted(a_i); counting its entries <= q_base[i] is the clamped
 * flat searchsorted of the numpy path (the clamp only routes queries below
 * or above every entry to the empty or full prefix, which this count
 * already yields). */
static void and_fitting_rows(const ts_kernel *k, int64_t without, uint64_t *out)
{
    const int64_t n = k->n, m = k->m, nw = k->nw;
    const int64_t *extra = without >= 0 ? k->weightsT_int + without * m : NULL;
    for (int64_t i = 0; i < m; i++) {
        int64_t q = k->q_base[i] + (extra ? extra[i] : 0);
        const int64_t *block = k->flat_sorted + i * (n + 1);
        int64_t pos = i * (n + 1) + upper_bound_i64(block, n, q);
        const uint64_t *row = k->cumbits + pos * nw;
        for (int64_t w = 0; w < nw; w++)
            out[w] &= row[w];
    }
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
 * (every packed item when all are tabu); -1 on an empty knapsack. */
static int64_t select_drop(ts_kernel *k, const int64_t *expiry, int64_t clock,
                           void *bitgen)
{
    if (k->n_packed == 0)
        return -1;
    const int64_t n = k->n;
    const double *row = k->ratio + k_istar(k) * n;
    int64_t *ties = k->allowed;
    int64_t count = 0, n_ties = 0;
    double best = -INFINITY;
    for (int pass = 0; pass < 2 && count == 0; pass++) {
        for (int64_t j = 0; j < n; j++) {
            if (!k->x[j] || (pass == 0 && expiry[j] > clock))
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
    and_fitting_rows(k, -1, fit);
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
/* The local-search loop (TabuSearch._local_search_loop, steps 4-10)    */
/* ------------------------------------------------------------------ */
enum { LS_STALLED = 0, LS_BUDGET = 1, LS_STUCK = 2, LS_HANDBACK = 3, LS_TRACE_FULL = 4 };

/* Steps 6-9 after a compound move; returns 1 when the move changed nothing
 * (the loop then ends, as the Python loop's degenerate break does). */
static int after_move(ts_kernel *k, ts_loop *ls)
{
    const int64_t n = k->n;
    ls->evaluations += k->evaluations;
    ls->moves++;
    ls->loop_moves++;
    if (k->n_dropped + k->n_added == 0)
        return 1;
    /* steps 6-7 */
    const double value = k->value;
    if (value > ls->best_value) {
        memcpy(ls->best_x, k->x, (size_t)n);
        ls->best_value = ls->local_value = value;
        ls->best_moved = 1;
        ls->stall = 0;
    } else {
        if (value > ls->local_value) {
            memcpy(ls->local_x, k->x, (size_t)n);
            ls->local_value = value;
            ls->local_moved = 1;
        }
        ls->stall++;
    }
    if (ls->elite_count < ls->elite_capacity
        || value > ls->elite_values[ls->elite_count - 1])
        ts_elite_offer(ls->elite_x, ls->elite_values, &ls->elite_count,
                       ls->elite_capacity, n, k->x, value);
    /* step 8: History */
    for (int64_t j = 0; j < n; j++)
        ls->counts[j] += k->x[j];
    ls->iterations++;
    /* step 9: tick, then tabu the touched items until clock + tenure */
    ls->clock++;
    const int64_t until = ls->clock + ls->tenure;
    for (int64_t t = 0; t < k->n_dropped; t++) {
        int64_t j = k->dropped[t];
        if (ls->expiry[j] < until)
            ls->expiry[j] = until;
    }
    for (int64_t t = 0; t < k->n_added; t++) {
        int64_t j = k->added[t];
        if (ls->expiry[j] < until)
            ls->expiry[j] = until;
    }
    ls->trace[ls->trace_len++] = ls->best_value;
    return 0;
}

/* Run compound moves until X* stalls for nb_local moves, the budget is
 * spent or a move changes nothing.  resume >= 0 finishes a move whose Add
 * selection was handed back (LS_HANDBACK, k->allowed/k->ratios set) by
 * adding item `resume`; LS_TRACE_FULL asks for the trace to be emptied.
 * After either, call again to continue the same loop. */
int ts_local_search(ts_kernel *k, ts_loop *ls, int64_t resume)
{
    if (resume >= 0) {
        if (ts_add_continue(k, ls->expiry, ls->clock, ls->bitgen, ls->best_value,
                            ls->add_candidates, resume) == TS_HANDBACK)
            return LS_HANDBACK;
        if (after_move(k, ls))
            return LS_STUCK;
    }
    while (ls->stall < ls->nb_local) {
        if (ls->evaluations >= ls->max_evaluations || ls->moves >= ls->max_moves
            || ls->best_value >= ls->target_value)
            return LS_BUDGET;
        if (ls->trace_len == ls->trace_cap)
            return LS_TRACE_FULL;
        if (ts_move(k, ls->expiry, ls->clock, ls->bitgen, ls->nb_drop,
                    ls->best_value, ls->add_candidates) == TS_HANDBACK)
            return LS_HANDBACK;
        if (after_move(k, ls))
            return LS_STUCK;
    }
    return LS_STALLED;
}

/* ------------------------------------------------------------------ */
/* Swap intensification (intensification.swap_intensification)         */
/* ------------------------------------------------------------------ */
/* Stable bottom-up merge sort of idx[0..len) by profit (the numpy path's
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

/* Apply improving, feasibility-preserving (1,1)-swaps until none is left;
 * returns the number applied and charges k->evaluations.  k->allowed holds
 * the packed items, k->added is the sort's scratch. */
int64_t ts_swap(ts_kernel *k)
{
    const int64_t n = k->n, nw = k->nw;
    int64_t *packed = k->allowed;
    int64_t swaps = 0;
    k->evaluations = 0;
    while (k->n_packed > 0 && k->n_packed < n) {
        int64_t n_packed = 0;
        for (int64_t j = 0; j < n; j++) {
            if (k->x[j])
                packed[n_packed++] = j;
        }
        sort_by_profit(packed, k->added, n_packed, k->profits);
        int improved = 0;
        for (int64_t t = 0; t < n_packed && !improved; t++) {
            int64_t i = packed[t];
            /* {j free : c_j > c_i} as one suffix-bitset row */
            int64_t cnt = upper_bound_f64(k->sorted_profits, n, k->profits[i]);
            const uint64_t *suffix = k->suffix + cnt * nw;
            uint64_t *rich = k->rich;
            for (int64_t w = 0; w < nw; w++)
                rich[w] = k->free_words[w] & suffix[w];
            int64_t n_richer = popcount_words(rich, nw);
            if (n_richer == 0)
                continue;
            k->evaluations += n_richer;
            and_fitting_rows(k, i, rich);
            int64_t best = -1;
            for (int64_t w = 0; w < nw; w++) {
                for (uint64_t bits = rich[w]; bits; bits &= bits - 1) {
                    int64_t j = (w << 6) + __builtin_ctzll(bits);
                    if (best < 0 || k->profits[j] > k->profits[best])
                        best = j;
                }
            }
            if (best < 0)
                continue;
            k_drop(k, i);
            k_add(k, best);
            swaps++;
            improved = 1;
        }
        if (!improved)
            break;
    }
    return swaps;
}

/* ------------------------------------------------------------------ */
/* Greedy fill (construction.fill_greedily)                             */
/* ------------------------------------------------------------------ */

/* Add the items of `order` that fit, in order.  Returns -1 without
 * touching the state when an index is out of range. */
int ts_fill(ts_kernel *k, const int64_t *order, int64_t len)
{
    const int64_t n = k->n, m = k->m;
    for (int64_t t = 0; t < len; t++) {
        if (order[t] < 0 || order[t] >= n)
            return -1;
    }
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
    return 0;
}
