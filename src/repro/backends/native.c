/*
 * Native phase kernels of the ``native`` backend (repro.backends.native).
 *
 * One call runs one whole search phase over a span of rows, one row per
 * outer loop: the row walks its own straight/greedy/main schedule in a
 * register loop, as one CUDA block does in the paper (§III).  Rows are
 * independent in every phase, so running them one after another is
 * bit-identical to the NumPy backends' lockstep loops.
 *
 * Bit-exactness rules (DESIGN.md §14):
 *   - the reference semantics are ported, not the NumPy tricks: every
 *     argmin/argmax takes the first index on ties;
 *   - tabu stamps are clock[r] + t with a per-row clock;
 *   - xorshift64* lanes advance in the reference order (MaxMin: lane
 *     column 0 for the row draw, then every lane of the row for keys);
 *   - MaxMin's threshold runs in float64 in NumPy's operation order, so
 *     this file is built with -ffp-contract=off and never -ffast-math.
 *
 * Coupling storage is CSR (indptr/indices/data, int64) with a zero
 * diagonal.  No static or global scratch: several threads call in at once.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define SENTINEL ((int64_t)1 << 62)
#define MULTIPLIER 0x2545F4914F6CDD1DULL
#define DOUBLE_SCALE (1.0 / 9007199254740992.0) /* 2^-53 */

/* main-phase kind codes (repro.backends.native._KIND_CODES) */
enum { MAXMIN = 0, CYCLIC = 1, RANDOMMIN = 2, POSITIVEMIN = 3, SEQUENCE = 4 };

/* fields of one row-range part of a main phase, one int64 each */
enum {
    P_LO, P_HI, P_KIND, P_USE_TABU, P_SCHEDULE, P_THRESHOLDS, P_WIDTHS,
    P_SEQUENCE, P_SEQ_LEN, P_CURSOR, P_LANES, P_FIELDS
};

typedef struct {
    const int64_t *indptr, *indices, *data;
} csr_t;

int64_t repro_native_abi(void) { return 1; }

static inline uint64_t lane_next(uint64_t *lane)
{
    uint64_t v = *lane;
    v ^= v >> 12;
    v ^= v << 25;
    v ^= v >> 27;
    *lane = v;
    return v;
}

/* the 53-bit integer key (state · M) >> 11 of XorShift64Star.next_keys */
static inline int64_t lane_key(uint64_t *lane)
{
    return (int64_t)((lane_next(lane) * MULTIPLIER) >> 11);
}

static inline int64_t row_min(const int64_t *v, int64_t n)
{
    int64_t m = v[0];
    for (int64_t k = 1; k < n; k++)
        m = v[k] < m ? v[k] : m;
    return m;
}

/* bits tested at once by the first-index scans (a fixed-width inner
 * loop the compiler vectorizes) */
#define BLOCK 16

/* first index holding *m* (a min pass then this pass is a first-index
 * argmin that the min pass can vectorize) */
static inline int64_t first_equal(const int64_t *v, int64_t n, int64_t m)
{
    int64_t k = 0;
    for (; k + BLOCK <= n; k += BLOCK) {
        int64_t hit = 0;
        for (int64_t j = 0; j < BLOCK; j++)
            hit |= v[k + j] == m;
        if (hit)
            break;
    }
    for (; k < n; k++)
        if (v[k] == m)
            return k;
    return n;
}

static inline int64_t row_argmin(const int64_t *v, int64_t n)
{
    return first_equal(v, n, row_min(v, n));
}

/* Eq. 4/5: flip bit i of one row and update its Δ over i's neighbours */
static inline void flip_bit(const csr_t *s, uint8_t *x, int64_t *energy,
                            int64_t *delta, int64_t i)
{
    int64_t d_i = delta[i];
    int64_t s_old = x[i] ? 1 : -1;
    *energy += d_i;
    x[i] ^= 1;
    for (int64_t p = s->indptr[i]; p < s->indptr[i + 1]; p++) {
        int64_t j = s->indices[p];
        int64_t s_j = x[j] ? 1 : -1;
        delta[j] += s->data[p] * (s_old * s_j);
    }
    delta[i] = -d_i;
}

/* BestTracker.fold: the current row and its best 1-bit neighbour, with
 * d_j the row's minimum Δ */
static inline void fold_min(int64_t n, const uint8_t *x, int64_t energy,
                            const int64_t *delta, uint8_t *best_x,
                            int64_t *best_e, int64_t d_j)
{
    int64_t nb = energy + d_j;
    if (d_j < 0 && nb < *best_e) {
        memcpy(best_x, x, (size_t)n);
        best_x[first_equal(delta, n, d_j)] ^= 1;
        *best_e = nb;
    } else if (energy < *best_e) {
        memcpy(best_x, x, (size_t)n);
        *best_e = energy;
    }
}

static inline void fold_row(int64_t n, const uint8_t *x, int64_t energy,
                            const int64_t *delta, uint8_t *best_x,
                            int64_t *best_e)
{
    fold_min(n, x, energy, delta, best_x, best_e, row_min(delta, n));
}

/* one pass for the straight walk: the row's minimum Δ (for the fold) and
 * its minimum Δ over the bits that still differ from the target (for
 * the next step; matching bits carry the sentinel, added so the loop
 * vectorizes) */
static inline int64_t straight_mins(int64_t n, const uint8_t *x,
                                    const uint8_t *target,
                                    const int64_t *delta, int64_t *all)
{
    int64_t lo = SENTINEL, lo_diff = SENTINEL;
    for (int64_t k = 0; k < n; k++) {
        int64_t v = delta[k];
        int64_t w = v + (int64_t)(x[k] == target[k]) * SENTINEL;
        lo = v < lo ? v : lo;
        lo_diff = w < lo_diff ? w : lo_diff;
    }
    *all = lo;
    return lo_diff;
}

/* the first still-differing bit whose Δ is *m*: with straight_mins, the
 * first-index argmin of Δ over those bits */
static inline int64_t straight_first(int64_t n, const uint8_t *x,
                                     const uint8_t *target,
                                     const int64_t *delta, int64_t m)
{
    int64_t k = 0;
    for (; k + BLOCK <= n; k += BLOCK) {
        int64_t hit = 0;
        for (int64_t j = 0; j < BLOCK; j++)
            hit |= (x[k + j] != target[k + j]) & (delta[k + j] == m);
        if (hit)
            break;
    }
    while ((x[k] == target[k]) | (delta[k] != m))
        k++;
    return k;
}

/* the arguments every phase shares, as one row's pointers */
#define ROW_POINTERS                                                       \
    uint8_t *xr = x + r * n;                                              \
    int64_t *dr = delta + r * n;                                          \
    int64_t *sr = stamps + r * n;                                         \
    uint8_t *bxr = best_x + r * n;

void repro_straight(int64_t rows, int64_t n, const int64_t *indptr,
                    const int64_t *indices, const int64_t *data, uint8_t *x,
                    int64_t *energy, int64_t *delta, int64_t *stamps,
                    int64_t stamp_on, const int64_t *clock, uint8_t *best_x,
                    int64_t *best_e, const uint8_t *targets, int64_t *flips)
{
    const csr_t s = {indptr, indices, data};
    for (int64_t r = 0; r < rows; r++) {
        ROW_POINTERS
        const uint8_t *tr = targets + r * n;
        int64_t dist = 0, lo;
        for (int64_t k = 0; k < n; k++)
            dist += xr[k] != tr[k];
        int64_t m = straight_mins(n, xr, tr, dr, &lo);
        for (int64_t t = 0; t < dist; t++) {
            int64_t i = straight_first(n, xr, tr, dr, m);
            flip_bit(&s, xr, energy + r, dr, i);
            if (stamp_on)
                sr[i] = clock[r] + t;
            m = straight_mins(n, xr, tr, dr, &lo);
            fold_min(n, xr, energy[r], dr, bxr, best_e + r, lo);
        }
        flips[r] = dist;
    }
}

void repro_greedy(int64_t rows, int64_t n, const int64_t *indptr,
                  const int64_t *indices, const int64_t *data, uint8_t *x,
                  int64_t *energy, int64_t *delta, int64_t *stamps,
                  int64_t stamp_on, const int64_t *clock, uint8_t *best_x,
                  int64_t *best_e, int64_t max_iters, int64_t *flips,
                  uint8_t *truncated)
{
    const csr_t s = {indptr, indices, data};
    for (int64_t r = 0; r < rows; r++) {
        ROW_POINTERS
        int64_t f = 0;
        while (f < max_iters) {
            int64_t m = row_min(dr, n);
            if (m >= 0)
                break;
            int64_t i = first_equal(dr, n, m);
            flip_bit(&s, xr, energy + r, dr, i);
            if (stamp_on)
                sr[i] = clock[r] + f;
            f++;
        }
        flips[r] = f;
        truncated[r] = f >= max_iters && row_min(dr, n) < 0;
        fold_row(n, xr, energy[r], dr, bxr, best_e + r);
    }
}

/* the first index of the largest value of buf (all ≥ -1); n when every
 * value is -1 (no candidate) */
static inline int64_t first_max(const int64_t *buf, int64_t n)
{
    int64_t m = -1;
    for (int64_t k = 0; k < n; k++)
        m = buf[k] > m ? buf[k] : m;
    return m >= 0 ? first_equal(buf, n, m) : n;
}

/* MaxMin (§III.A.3): a random candidate under the annealed threshold.
 * The passes are branch-free so the compiler can vectorize them; buf
 * holds each bit's key, or -1 where the bit is no candidate. */
static int64_t select_maxmin(int64_t n, const int64_t *dr, const int64_t *sr,
                             uint64_t *lanes, int use_tabu, int64_t cut,
                             double frac, int64_t *buf)
{
    int64_t lo_all = SENTINEL, hi_all = -SENTINEL;
    int64_t lo_use = SENTINEL, hi_use = -SENTINEL;
    int64_t any_usable = 0;
    for (int64_t k = 0; k < n; k++) {
        int64_t v = dr[k];
        int64_t usable = use_tabu & (sr[k] < cut);
        int64_t lo = usable ? v : SENTINEL, hi = usable ? v : -SENTINEL;
        lo_all = v < lo_all ? v : lo_all;
        hi_all = v > hi_all ? v : hi_all;
        lo_use = lo < lo_use ? lo : lo_use;
        hi_use = hi > hi_use ? hi : hi_use;
        any_usable |= usable;
    }
    /* a row whose every bit is tabu falls back to the full row */
    int64_t all_usable = !use_tabu || !any_usable;
    double dmin = (double)(all_usable ? lo_all : lo_use);
    double dmax = (double)(all_usable ? hi_all : hi_use);
    uint64_t v0 = lane_next(&lanes[0]);
    double u = (double)(int64_t)((v0 * MULTIPLIER) >> 11) * DOUBLE_SCALE;
    double ceiling = (1.0 - frac) * dmin + frac * dmax;
    double d = dmin + u * (ceiling - dmin);
    /* Δ is integral, so Δ ≤ d ⟺ Δ ≤ ⌊d⌋ */
    int64_t thr = (int64_t)floor(d);
    for (int64_t k = 0; k < n; k++) {
        int64_t key = lane_key(&lanes[k]);
        int64_t cand = (dr[k] <= thr) & (all_usable | (sr[k] < cut));
        buf[k] = cand ? key : -1;
    }
    int64_t best = first_max(buf, n);
    return best < n ? best : row_argmin(dr, n);
}

/* the first-index argmin of row[lo, hi), tabu bits excluded when
 * use_tabu; *lv and *at carry the running (value, index) across calls */
static inline void window_min(const int64_t *dr, const int64_t *sr,
                              int64_t lo, int64_t hi, int use_tabu,
                              int64_t cut, int64_t *lv, int64_t *at)
{
    for (int64_t k = lo; k < hi; k++) {
        int64_t v = use_tabu && sr[k] >= cut ? SENTINEL : dr[k];
        *at = v < *lv ? k : *at;
        *lv = v < *lv ? v : *lv;
    }
}

/* CyclicMin (§III.A.4): argmin inside the sliding window [start, start +
 * w) mod n, scanned as its two contiguous pieces in window order */
static int64_t select_cyclic(int64_t n, const int64_t *dr, const int64_t *sr,
                             int use_tabu, int64_t cut, int64_t w,
                             int64_t *cursor)
{
    int64_t start = *cursor, end = start + w;
    int64_t lv = SENTINEL, at = -1;
    window_min(dr, sr, start, end < n ? end : n, use_tabu, cut, &lv, &at);
    window_min(dr, sr, 0, end - n, use_tabu, cut, &lv, &at);
    if (at < 0) {
        /* every window bit tabu: the raw window's argmin */
        window_min(dr, sr, start, end < n ? end : n, 0, cut, &lv, &at);
        window_min(dr, sr, 0, end - n, 0, cut, &lv, &at);
    }
    *cursor = end % n;
    return at;
}

/* RandomMin (§III.A.5): argmin among Bernoulli candidates; buf holds
 * each candidate's Δ and the sentinel elsewhere */
static int64_t select_randommin(int64_t n, const int64_t *dr,
                                const int64_t *sr, uint64_t *lanes,
                                int use_tabu, int64_t cut, int64_t thr,
                                int64_t *buf)
{
    int64_t lv = SENTINEL;
    for (int64_t k = 0; k < n; k++) {
        int64_t key = lane_key(&lanes[k]);
        int64_t cand = (key < thr) & (!use_tabu | (sr[k] < cut));
        int64_t v = cand ? dr[k] : SENTINEL;
        buf[k] = v;
        lv = v < lv ? v : lv;
    }
    return lv < SENTINEL ? first_equal(buf, n, lv) : row_argmin(dr, n);
}

/* PositiveMin (§III.A.6): a random candidate with Δ ≤ posminΔ; buf as
 * in MaxMin */
static int64_t select_positivemin(int64_t n, const int64_t *dr,
                                  const int64_t *sr, uint64_t *lanes,
                                  int use_tabu, int64_t cut, int64_t *buf)
{
    int64_t posmin = SENTINEL;
    for (int64_t k = 0; k < n; k++) {
        int64_t v = dr[k] > 0 ? dr[k] : SENTINEL;
        posmin = v < posmin ? v : posmin;
    }
    /* tabu candidates count only when every candidate is tabu */
    int64_t skip_tabu = 0;
    if (use_tabu)
        for (int64_t k = 0; k < n; k++)
            skip_tabu |= (dr[k] <= posmin) & (sr[k] < cut);
    for (int64_t k = 0; k < n; k++) {
        int64_t key = lane_key(&lanes[k]);
        int64_t cand = (dr[k] <= posmin) & (!skip_tabu | (sr[k] < cut));
        buf[k] = cand ? key : -1;
    }
    int64_t best = first_max(buf, n);
    return best < n ? best : row_argmin(dr, n);
}

int64_t repro_main(int64_t rows, int64_t n, const int64_t *indptr,
                const int64_t *indices, const int64_t *data, uint8_t *x,
                int64_t *energy, int64_t *delta, int64_t *stamps,
                int64_t stamp_on, const int64_t *clock, uint8_t *best_x,
                int64_t *best_e, int64_t period, int64_t iterations,
                int64_t num_parts, const int64_t *parts)
{
    const csr_t s = {indptr, indices, data};
    /* per-call scratch: several threads may run this function at once */
    int64_t *buf = malloc((size_t)n * sizeof *buf);
    (void)rows;
    if (!buf)
        return -1;
    for (int64_t p = 0; p < num_parts; p++) {
        const int64_t *part = parts + p * P_FIELDS;
        int64_t kind = part[P_KIND];
        int use_tabu = part[P_USE_TABU] != 0;
        const double *schedule = (const double *)(intptr_t)part[P_SCHEDULE];
        const int64_t *thresholds = (const int64_t *)(intptr_t)part[P_THRESHOLDS];
        const int64_t *widths = (const int64_t *)(intptr_t)part[P_WIDTHS];
        const int64_t *sequence = (const int64_t *)(intptr_t)part[P_SEQUENCE];
        int64_t seq_len = part[P_SEQ_LEN];
        int64_t *cursor = (int64_t *)(intptr_t)part[P_CURSOR];
        uint64_t *lanes = (uint64_t *)(intptr_t)part[P_LANES];
        for (int64_t r = part[P_LO]; r < part[P_HI]; r++) {
            ROW_POINTERS
            int64_t local = r - part[P_LO];
            uint64_t *lr = lanes ? lanes + local * n : 0;
            for (int64_t t = 0; t < iterations; t++) {
                int64_t cut = clock[r] + t - period;
                int64_t i;
                switch (kind) {
                case MAXMIN:
                    i = select_maxmin(n, dr, sr, lr, use_tabu, cut, schedule[t],
                                      buf);
                    break;
                case CYCLIC:
                    i = select_cyclic(n, dr, sr, use_tabu, cut, widths[t],
                                      cursor + local);
                    break;
                case RANDOMMIN:
                    i = select_randommin(n, dr, sr, lr, use_tabu, cut,
                                         thresholds[t], buf);
                    break;
                case POSITIVEMIN:
                    i = select_positivemin(n, dr, sr, lr, use_tabu, cut, buf);
                    break;
                default: /* SEQUENCE: TwoNeighbor's fixed traversal */
                    i = sequence[t % seq_len];
                    break;
                }
                flip_bit(&s, xr, energy + r, dr, i);
                if (stamp_on)
                    sr[i] = clock[r] + t;
                fold_row(n, xr, energy[r], dr, bxr, best_e + r);
            }
        }
    }
    free(buf);
    return 0;
}
