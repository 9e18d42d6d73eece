/*
 * Native phase kernels of the ``native`` backend (repro.backends.native).
 *
 * One call runs one whole search phase, the Δ/energy reset, or a whole
 * pack's batch search, over a span of rows: each row walks its own
 * straight/greedy/main schedule in a register loop, as one CUDA block does
 * in the paper (§III).  Rows are independent in every phase, and so are a
 * pack's cells in its search, so a call spreads them over a few threads
 * (see run_threads) and the result is bit-identical to the NumPy
 * backends' lockstep loops whatever the split.
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
 * diagonal.  No static or global scratch, and no thread outlives a call:
 * several threads call in at once, and a forked process inherits none.
 */

#define _GNU_SOURCE
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>
#ifdef __AVX512F__
#include <immintrin.h>
#endif

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

/* fields of one cell of a search: its main-phase part (rows in pack
 * rows), its main-phase length and TwoNeighbor flag, then the greedy and
 * main phases it ran, which the search writes */
enum { C_ITERATIONS = P_FIELDS, C_TWO, C_GREEDIES, C_MAINS, C_FIELDS };

typedef struct {
    const int64_t *indptr, *indices, *data;
} csr_t;

int64_t repro_native_abi(void) { return 5; }

/* -- the row split ----------------------------------------------------------
 * A call's work is estimated as rows · n · steps, from the call's shape
 * alone: steps is n for the straight walk (at most n bits differ from the
 * target), n / 8 for the greedy descent (much shorter than n flips: about
 * n / 5 from a GA child, far fewer after a main phase) and the iterations
 * of a main phase; a reset's work is rows · (nnz + n), one pass over the
 * couplings, and a search's is the sum of its phases (see cell_work).
 * Each thread gets at least WORK_PER_THREAD of it, about 0.1-0.6 ms at
 * n = 512 (a greedy step to a MaxMin step).  Starting and joining a
 * thread costs ~35 µs on an idle host, but waking a second CPU of a busy
 * shared host can take milliseconds, so only calls well above that split.
 * A stream-sized phase call (n ≤ 96, 16 rows, main phases of up to 2n
 * iterations) stays on the calling thread, and a g22-sized straight walk
 * or first greedy descent (n = 512, 32 rows) spreads; a g22-sized reset
 * does not.  That greedy call, the smallest that spreads, took 0.50 ms on
 * two threads against 0.70-0.94 ms on one (2-core host, medians of 40). */
#define WORK_PER_THREAD ((int64_t)1 << 19)

static int64_t allowed_cpus(void)
{
#ifdef __linux__
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return CPU_COUNT(&set);
#endif
    long online = sysconf(_SC_NPROCESSORS_ONLN);
    return online > 0 ? online : 1;
}

/* the threads one call of *rows* rows and estimated *work* runs on */
int64_t repro_threads(int64_t rows, int64_t work)
{
    int64_t threads = work / WORK_PER_THREAD;
    if (threads <= 1 || rows <= 1)
        return 1;
    int64_t cpus = allowed_cpus();
    threads = threads < cpus ? threads : cpus;
    return threads < rows ? threads : rows;
}

/* one phase call: its arguments and its per-row body, which workers only
 * read */
typedef struct call {
    int64_t rows, n;
    csr_t s;
    uint8_t *x;
    int64_t *energy, *delta, *stamps;
    int64_t stamp_on;
    const int64_t *clock;
    uint8_t *best_x;
    int64_t *best_e;
    const uint8_t *targets; /* straight */
    int64_t *flips;         /* straight, greedy */
    int64_t max_iters;      /* greedy */
    uint8_t *truncated;     /* greedy */
    int64_t period, iterations; /* main */
    const int64_t *parts;       /* main */
    const int64_t *lin;         /* reset */
    void (*row)(const struct call *, int64_t r, int64_t *scratch);
} call_t;

/* Threads that work on neighbouring rows slow each other down (false
 * sharing): a row's passes stream to its end, and the hardware
 * prefetchers read on into the next row's cache lines, even its next
 * page, while another thread writes them.  So consecutive claims map to
 * rows far apart, and the scratch rows sit on pages of their own with an
 * empty page between two of them.  With adjacent rows and scratch, a
 * second thread cut a 32-row n=512 straight call by ~15%; spread, by
 * ~45%. */
#define PAGE 4096

/* the row claims of one call, shared by its threads */
typedef struct {
    _Atomic int64_t next;             /* the next unclaimed claim */
    int64_t rows, threads, spread;    /* spread: rows between consecutive claims */
} claims_t;

static void claims_init(claims_t *c, int64_t rows, int64_t threads)
{
    atomic_init(&c->next, 0);
    c->rows = rows;
    c->threads = threads;
    c->spread = (rows + threads - 1) / threads;
}

/* the next unclaimed row, or -1 when every row is claimed.  Claim k is
 * row (k mod threads)·spread + k / threads: a transpose of [0,
 * threads·spread), whose rows past the end are skipped. */
static int64_t claim_row(claims_t *c)
{
    for (;;) {
        int64_t k = atomic_fetch_add_explicit(&c->next, 1, memory_order_relaxed);
        if (k >= c->threads * c->spread)
            return -1;
        int64_t r = k % c->threads * c->spread + k / c->threads;
        if (r < c->rows)
            return r;
    }
}

typedef struct {
    void *job;        /* what every worker of the call shares */
    int64_t *scratch; /* this worker's own row; never shared */
    pthread_t id;
    int started;
} worker_t;

/* Run *body* on *threads* workers, the calling thread included, each with
 * its own scratch row of *scratch_len* int64.  All scratch is allocated
 * before any worker starts and every worker is joined before the call
 * returns.  A worker that cannot start leaves its claims to the others.
 * Nonzero when the scratch cannot be allocated. */
static int64_t run_threads(int64_t threads, int64_t scratch_len,
                           void *(*body)(void *), void *job)
{
    size_t stride = scratch_len
        ? ((size_t)scratch_len * sizeof(int64_t) + PAGE - 1) / PAGE * PAGE + PAGE
        : 0;
    int64_t *scratch = stride ? aligned_alloc(PAGE, (size_t)threads * stride) : NULL;
    worker_t *workers = malloc((size_t)threads * sizeof *workers);
    if ((stride && !scratch) || !workers) {
        free(scratch);
        free(workers);
        return -1;
    }
    for (int64_t t = 0; t < threads; t++)
        workers[t] = (worker_t){
            .job = job,
            .scratch = stride ? scratch + t * stride / sizeof *scratch : NULL,
        };
    for (int64_t t = 1; t < threads; t++)
        workers[t].started =
            pthread_create(&workers[t].id, NULL, body, &workers[t]) == 0;
    body(&workers[0]);
    for (int64_t t = 1; t < threads; t++)
        if (workers[t].started)
            pthread_join(workers[t].id, NULL);
    free(scratch);
    free(workers);
    return 0;
}

typedef struct {
    const call_t *call;
    claims_t claims;
} rows_job_t;

static void *run_rows(void *arg)
{
    const worker_t *w = arg;
    rows_job_t *job = w->job;
    const call_t *c = job->call;
    for (int64_t r; (r = claim_row(&job->claims)) >= 0;)
        c->row(c, r, w->scratch);
    return NULL;
}

/* Run every row of *c* on repro_threads(rows, work) threads, each with
 * its own scratch row of *scratch_len* int64. */
static int64_t dispatch(const call_t *c, int64_t work, int64_t scratch_len)
{
    rows_job_t job = {.call = c};
    int64_t threads = repro_threads(c->rows, work);
    claims_init(&job.claims, c->rows, threads);
    return run_threads(threads, scratch_len, run_rows, &job);
}

/* -- row kernels ----------------------------------------------------------- */
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

/* -- row scans ---------------------------------------------------------------
 * A step's selection and its fold scan whole Δ rows: a min pass, then a
 * first-index pass for the argmin (ties go to the first index).  Each
 * scan's form is chosen per target, checked in the asm and timed on a
 * 512-entry row (DESIGN.md §14); every form gives the same result. */

/* independent accumulators of row_min: the min pass is not one chain of
 * dependent vector mins */
#define ACCUMULATORS 32

/* the minimum of v[0, n); INT64_MAX when n = 0 */
static inline int64_t row_min(const int64_t *v, int64_t n)
{
    /* gcc holds acc in vector registers: vpminsq on AVX-512, a 64-bit
     * compare and blend below it (pcmpgtq from SSE4.2 on) */
    int64_t k = 0, m = INT64_MAX, acc[ACCUMULATORS];
    for (int j = 0; j < ACCUMULATORS; j++)
        acc[j] = INT64_MAX;
    for (; k + ACCUMULATORS <= n; k += ACCUMULATORS)
        for (int j = 0; j < ACCUMULATORS; j++)
            acc[j] = v[k + j] < acc[j] ? v[k + j] : acc[j];
    for (int j = 0; j < ACCUMULATORS; j++)
        m = acc[j] < m ? acc[j] : m;
    for (; k < n; k++)
        m = v[k] < m ? v[k] : m;
    return m;
}

/* entries first_equal tests at once: one bit each of a hit mask (AVX2,
 * AVX-512), or one any-hit test over the whole block elsewhere */
#ifdef __AVX2__
#define BLOCK 32
#else
#define BLOCK 16
#endif

/* the first index of v[0, n) holding *m*; n when none does */
static inline int64_t first_equal(const int64_t *v, int64_t n, int64_t m)
{
    int64_t k = 0;
#if defined(__AVX512F__)
    /* four compares into mask registers; gcc's form of the loop below
     * builds the mask in vector registers, ~1.5x slower */
    __m512i want = _mm512_set1_epi64(m);
    for (; k + BLOCK <= n; k += BLOCK) {
        uint32_t hit = 0;
        for (int j = 0; j < BLOCK / 8; j++)
            hit |= (uint32_t)_mm512_cmpeq_epi64_mask(_mm512_loadu_si512(v + k + 8 * j), want)
                   << 8 * j;
        if (hit)
            return k + __builtin_ctz(hit);
    }
#elif defined(__AVX2__)
    for (; k + BLOCK <= n; k += BLOCK) {
        uint32_t hit = 0;
        for (int j = 0; j < BLOCK; j++)
            hit |= (uint32_t)(v[k + j] == m) << j;
        if (hit)
            return k + __builtin_ctz(hit);
    }
#else
    /* a 32-bit mask built from SSE compares is slower than this scan */
    for (; k + BLOCK <= n; k += BLOCK) {
        int64_t hit = 0;
        for (int64_t j = 0; j < BLOCK; j++)
            hit |= v[k + j] == m;
        if (hit)
            break;
    }
#endif
    for (; k < n; k++)
        if (v[k] == m)
            return k;
    return n;
}

static inline int64_t row_argmin(const int64_t *v, int64_t n)
{
    return first_equal(v, n, row_min(v, n));
}

/* Eq. 4/5: flip bit i of one row and update its Δ over i's neighbours;
 * *masked*, when given, is the straight walk's masked Δ row, and bit i
 * matches the target once flipped.  Returns *lb* lowered to every Δ the
 * flip wrote, so a lower bound of the row's minimum Δ stays one. */
static inline int64_t flip_bit(const csr_t *s, uint8_t *x, int64_t *energy,
                               int64_t *delta, int64_t *masked, int64_t i,
                               int64_t lb)
{
    int64_t d_i = delta[i];
    int64_t s_old = x[i] ? 1 : -1;
    *energy += d_i;
    x[i] ^= 1;
    for (int64_t p = s->indptr[i]; p < s->indptr[i + 1]; p++) {
        int64_t j = s->indices[p];
        int64_t s_j = x[j] ? 1 : -1;
        int64_t step = s->data[p] * (s_old * s_j);
        int64_t d_j = delta[j] += step;
        lb = d_j < lb ? d_j : lb;
        if (masked)
            masked[j] += step;
    }
    delta[i] = -d_i;
    if (masked)
        masked[i] = SENTINEL - d_i;
    return -d_i < lb ? -d_i : lb;
}

/* BestTracker.fold: the current row and its best 1-bit neighbour, with
 * d_j the row's minimum Δ, or a lower bound of it under which the
 * neighbour cannot win (d_j ≥ 0 or energy + d_j ≥ best_e) */
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

/* fold_min after a flip, from *lb*, a lower bound of the row's minimum
 * Δ (flip_bit's): the row is scanned only when the bound leaves the
 * neighbour a chance.  Returns the bound, exact when it was scanned. */
static inline int64_t fold(int64_t n, const uint8_t *x, int64_t energy,
                           const int64_t *delta, uint8_t *best_x,
                           int64_t *best_e, int64_t lb)
{
    if (lb < 0 && energy + lb < *best_e)
        lb = row_min(delta, n);
    fold_min(n, x, energy, delta, best_x, best_e, lb);
    return lb;
}

/* one row's pointers into the call's arrays */
#define ROW_POINTERS(c, r)                                                 \
    int64_t n = (c)->n;                                                   \
    uint8_t *xr = (c)->x + (r) * n;                                       \
    int64_t *dr = (c)->delta + (r) * n;                                   \
    int64_t *sr = (c)->stamps + (r) * n;                                  \
    uint8_t *bxr = (c)->best_x + (r) * n;                                 \
    int64_t energy = (c)->energy[r], best_e = (c)->best_e[r];

/* the straight walk of one row; *masked* is Δ plus the sentinel on bits
 * that already match the target, so one min pass and one first-index
 * pass find the next bit and the flip keeps it current */
static void straight_row(const call_t *c, int64_t r, int64_t *masked)
{
    ROW_POINTERS(c, r)
    const uint8_t *tr = c->targets + r * n;
    int64_t dist = 0;
    for (int64_t k = 0; k < n; k++) {
        int64_t same = xr[k] == tr[k];
        dist += !same;
        masked[k] = dr[k] + same * SENTINEL;
    }
    int64_t lb = row_min(dr, n);
    for (int64_t t = 0; t < dist; t++) {
        int64_t i = first_equal(masked, n, row_min(masked, n));
        lb = flip_bit(&c->s, xr, &energy, dr, masked, i, lb);
        if (c->stamp_on)
            sr[i] = c->clock[r] + t;
        lb = fold(n, xr, energy, dr, bxr, &best_e, lb);
    }
    c->energy[r] = energy;
    c->best_e[r] = best_e;
    c->flips[r] = dist;
}

static void greedy_row(const call_t *c, int64_t r, int64_t *scratch)
{
    ROW_POINTERS(c, r)
    (void)scratch;
    int64_t f = 0, m = row_min(dr, n);
    while (f < c->max_iters && m < 0) {
        int64_t i = first_equal(dr, n, m);
        flip_bit(&c->s, xr, &energy, dr, NULL, i, 0);
        if (c->stamp_on)
            sr[i] = c->clock[r] + f;
        f++;
        m = row_min(dr, n);
    }
    c->flips[r] = f;
    c->truncated[r] = f >= c->max_iters && m < 0;
    fold_min(n, xr, energy, dr, bxr, &best_e, m);
    c->energy[r] = energy;
    c->best_e[r] = best_e;
}

/* the keyed pick of MaxMin and PositiveMin: buf holds each candidate's
 * key negated and 1 elsewhere, so the first largest key is buf's first
 * minimum; with no candidate, the row's argmin */
static inline int64_t keyed_pick(int64_t n, const int64_t *buf,
                                 const int64_t *dr)
{
    int64_t best = row_argmin(buf, n);
    return buf[best] < 1 ? best : row_argmin(dr, n);
}

/* MaxMin (§III.A.3): a random candidate under the annealed threshold.
 * The passes are branch-free so the compiler can vectorize them; buf
 * as keyed_pick reads it. */
static int64_t select_maxmin(int64_t n, const int64_t *dr, const int64_t *sr,
                             uint64_t *lanes, int use_tabu, int64_t cut,
                             double frac, int64_t *buf)
{
    /* the range of the usable Δ: with tabu, of the bits not tabu; of the
     * full row when there is no tabu or every bit is tabu */
    int64_t lo = SENTINEL, hi = -SENTINEL, any_usable = 0;
    if (use_tabu)
        for (int64_t k = 0; k < n; k++) {
            int64_t usable = sr[k] < cut, v = dr[k];
            int64_t l = usable ? v : SENTINEL, h = usable ? v : -SENTINEL;
            lo = l < lo ? l : lo;
            hi = h > hi ? h : hi;
            any_usable |= usable;
        }
    int64_t all_usable = !any_usable;
    if (all_usable)
        for (int64_t k = 0; k < n; k++) {
            int64_t v = dr[k];
            lo = v < lo ? v : lo;
            hi = v > hi ? v : hi;
        }
    double dmin = (double)lo, dmax = (double)hi;
    uint64_t v0 = lane_next(&lanes[0]);
    double u = (double)(int64_t)((v0 * MULTIPLIER) >> 11) * DOUBLE_SCALE;
    double ceiling = (1.0 - frac) * dmin + frac * dmax;
    double d = dmin + u * (ceiling - dmin);
    /* Δ is integral, so Δ ≤ d ⟺ Δ ≤ ⌊d⌋ */
    int64_t thr = (int64_t)floor(d);
    for (int64_t k = 0; k < n; k++) {
        int64_t key = lane_key(&lanes[k]);
        int64_t cand = (dr[k] <= thr) & (all_usable | (sr[k] < cut));
        buf[k] = cand ? -key : 1;
    }
    return keyed_pick(n, buf, dr);
}

/* the first index, in window order, of the minimum of v over the window
 * pieces [start, stop) and [0, wrap); -1 when that minimum is SENTINEL
 * or more (every bit tabu) */
static inline int64_t window_argmin(const int64_t *v, int64_t start,
                                    int64_t stop, int64_t wrap)
{
    int64_t head = row_min(v + start, stop - start), tail = row_min(v, wrap);
    if (head >= SENTINEL && tail >= SENTINEL)
        return -1;
    if (head <= tail)
        return start + first_equal(v + start, stop - start, head);
    return first_equal(v, wrap, tail);
}

/* CyclicMin (§III.A.4): argmin inside the sliding window [start, start +
 * w) mod n, scanned as its two contiguous pieces in window order; with
 * tabu, buf holds the window's Δ with the sentinel on tabu bits */
static int64_t select_cyclic(int64_t n, const int64_t *dr, const int64_t *sr,
                             int use_tabu, int64_t cut, int64_t w,
                             int64_t *cursor, int64_t *buf)
{
    int64_t start = *cursor, end = start + w;
    int64_t stop = end < n ? end : n, wrap = end > n ? end - n : 0;
    int64_t at = -1;
    if (use_tabu) {
        for (int64_t k = start; k < stop; k++)
            buf[k] = sr[k] >= cut ? SENTINEL : dr[k];
        for (int64_t k = 0; k < wrap; k++)
            buf[k] = sr[k] >= cut ? SENTINEL : dr[k];
        at = window_argmin(buf, start, stop, wrap);
    }
    if (at < 0) /* no tabu, or every window bit tabu: the raw window's argmin */
        at = window_argmin(dr, start, stop, wrap);
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
 * keyed_pick reads it */
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
        buf[k] = cand ? -key : 1;
    }
    return keyed_pick(n, buf, dr);
}

/* the main phase of one row, under the part whose range holds it; *buf*
 * is the keyed selections' scratch row */
static void main_row(const call_t *c, int64_t r, int64_t *buf)
{
    ROW_POINTERS(c, r)
    const int64_t *part = c->parts;
    while (r >= part[P_HI])
        part += P_FIELDS;
    int64_t kind = part[P_KIND];
    int use_tabu = part[P_USE_TABU] != 0;
    const double *schedule = (const double *)(intptr_t)part[P_SCHEDULE];
    const int64_t *thresholds = (const int64_t *)(intptr_t)part[P_THRESHOLDS];
    const int64_t *widths = (const int64_t *)(intptr_t)part[P_WIDTHS];
    const int64_t *sequence = (const int64_t *)(intptr_t)part[P_SEQUENCE];
    int64_t seq_len = part[P_SEQ_LEN];
    int64_t *cursors = (int64_t *)(intptr_t)part[P_CURSOR];
    uint64_t *lanes = (uint64_t *)(intptr_t)part[P_LANES];
    int64_t local = r - part[P_LO];
    uint64_t *lr = lanes ? lanes + local * n : 0;
    int64_t cursor = cursors ? cursors[local] : 0;
    int64_t clock = c->clock[r], lb = row_min(dr, n);
    for (int64_t t = 0; t < c->iterations; t++) {
        int64_t cut = clock + t - c->period;
        int64_t i;
        switch (kind) {
        case MAXMIN:
            i = select_maxmin(n, dr, sr, lr, use_tabu, cut, schedule[t], buf);
            break;
        case CYCLIC:
            i = select_cyclic(n, dr, sr, use_tabu, cut, widths[t], &cursor, buf);
            break;
        case RANDOMMIN:
            i = select_randommin(n, dr, sr, lr, use_tabu, cut, thresholds[t],
                                 buf);
            break;
        case POSITIVEMIN:
            i = select_positivemin(n, dr, sr, lr, use_tabu, cut, buf);
            break;
        default: /* SEQUENCE: TwoNeighbor's fixed traversal */
            i = sequence[t % seq_len];
            break;
        }
        lb = flip_bit(&c->s, xr, &energy, dr, NULL, i, lb);
        if (c->stamp_on)
            sr[i] = clock + t;
        lb = fold(n, xr, energy, dr, bxr, &best_e, lb);
    }
    if (cursors)
        cursors[local] = cursor;
    c->energy[r] = energy;
    c->best_e[r] = best_e;
}

/* The reset of one row: contrib = S·x + lin, Δ = (1 − 2x)·contrib and
 * E = x·(contrib + lin) / 2, as numpy-sparse's _compute_from_x.  S is
 * symmetric, so contrib sums the CSR rows of the set bits, accumulated in
 * the Δ row.  The sums run in uint64, which wraps as NumPy's int64
 * arithmetic does, so the result is bit-identical whatever the order. */
static void reset_row(const call_t *c, int64_t r, int64_t *scratch)
{
    int64_t n = c->n;
    const uint8_t *xr = c->x + r * n;
    uint64_t *contrib = (uint64_t *)c->delta + r * n;
    const csr_t *s = &c->s;
    (void)scratch;
    for (int64_t i = 0; i < n; i++)
        contrib[i] = (uint64_t)c->lin[i];
    for (int64_t k = 0; k < n; k++)
        if (xr[k])
            for (int64_t p = s->indptr[k]; p < s->indptr[k + 1]; p++)
                contrib[s->indices[p]] += (uint64_t)s->data[p];
    uint64_t doubled = 0;
    for (int64_t i = 0; i < n; i++) {
        doubled += xr[i] * (contrib[i] + (uint64_t)c->lin[i]);
        contrib[i] = xr[i] ? 0 - contrib[i] : contrib[i];
    }
    /* floor division, as np.floor_divide (x·(contrib + lin) is even) */
    int64_t d = (int64_t)doubled;
    c->energy[r] = d / 2 - (d % 2 < 0);
}

/* -- the whole batch search of a pack ---------------------------------------
 * A pack's cells (one segment × one algorithm group each: the rows a
 * solo launch runs in lockstep) share no row, and nothing a cell's phases
 * read belongs to another cell, so each cell runs its own schedule to its
 * end: greedy, the budget test, then a main phase, until it is done, with
 * its clock advanced as the solo launch's scalar clock is (DESIGN.md
 * §12).  The threads first claim the straight walks by row over the whole
 * pack, as a straight call does, then claim whole cells, largest
 * estimated work first. */
typedef struct {
    call_t straight, greedy, main; /* the pack's arrays, per phase */
    int64_t *clock;                /* the per-row clock the cells advance */
    int64_t *flips;                /* per row, the flips of every phase */
    uint8_t *truncated;            /* per row, OR-ed over greedy phases */
    int64_t budget, cells;
    int64_t *table;                /* cells × C_FIELDS */
    const int64_t *order;          /* cells, largest estimated work first */
    claims_t rows;
    _Atomic int64_t next_cell, walked;
    pthread_mutex_t lock;
    pthread_cond_t all_walked;
} search_t;

static void advance(int64_t *clock, int64_t lo, int64_t hi, int64_t by)
{
    for (int64_t r = lo; r < hi; r++)
        clock[r] += by;
}

/* one cell's greedy/main waves after its straight walk */
static void run_cell(const search_t *s, int64_t *cell, int64_t *scratch)
{
    int64_t lo = cell[P_LO], hi = cell[P_HI];
    call_t main = s->main;
    main.parts = cell; /* every row is below cell[P_HI]: main_row stays */
    main.iterations = cell[C_ITERATIONS];
    const int64_t *phase = s->greedy.flips;
    int64_t longest = 0, greedies = 0, mains = 0;
    for (int64_t r = lo; r < hi; r++) /* the straight walk's length */
        longest = s->flips[r] > longest ? s->flips[r] : longest;
    advance(s->clock, lo, hi, longest);
    for (;;) {
        longest = 0;
        for (int64_t r = lo; r < hi; r++) {
            greedy_row(&s->greedy, r, scratch);
            s->flips[r] += phase[r];
            s->truncated[r] |= s->greedy.truncated[r];
            longest = phase[r] > longest ? phase[r] : longest;
        }
        advance(s->clock, lo, hi, longest);
        greedies++;
        /* TwoNeighbor runs exactly greedy → main → greedy; every other
         * cell stops when all its rows spent the flip budget */
        int64_t fewest = s->flips[lo];
        for (int64_t r = lo; r < hi; r++)
            fewest = s->flips[r] < fewest ? s->flips[r] : fewest;
        if (cell[C_TWO] ? mains >= 1 : fewest >= s->budget)
            break;
        for (int64_t r = lo; r < hi; r++) {
            main_row(&main, r, scratch);
            s->flips[r] += main.iterations;
        }
        advance(s->clock, lo, hi, main.iterations);
        mains++;
    }
    cell[C_GREEDIES] = greedies;
    cell[C_MAINS] = mains;
}

/* a row's start, a launch's reset of its tabu and best memory: no bit
 * tabu, its clock at 0, no truncated descent, and the best its own vector
 * or, when a flip lowers its energy, its best 1-bit neighbour
 * (BestTracker.reset, then fold) */
static void start_row(const search_t *s, int64_t r)
{
    const call_t *c = &s->straight;
    ROW_POINTERS(c, r)
    for (int64_t k = 0; k < n; k++)
        sr[k] = -(s->main.period + 1);
    s->clock[r] = 0;
    s->truncated[r] = 0;
    memcpy(bxr, xr, (size_t)n);
    best_e = energy;
    fold_min(n, xr, energy, dr, bxr, &best_e, row_min(dr, n));
    c->best_e[r] = best_e;
}

static void *run_search(void *arg)
{
    const worker_t *w = arg;
    search_t *s = w->job;
    int64_t rows = s->straight.rows;
    for (int64_t r; (r = claim_row(&s->rows)) >= 0;) {
        start_row(s, r);
        straight_row(&s->straight, r, w->scratch);
        if (atomic_fetch_add(&s->walked, 1) + 1 == rows) {
            pthread_mutex_lock(&s->lock);
            pthread_cond_broadcast(&s->all_walked);
            pthread_mutex_unlock(&s->lock);
        }
    }
    /* a cell's clock fix-up reads its rows' straight flips */
    pthread_mutex_lock(&s->lock);
    while (atomic_load(&s->walked) < rows)
        pthread_cond_wait(&s->all_walked, &s->lock);
    pthread_mutex_unlock(&s->lock);
    for (int64_t k; (k = atomic_fetch_add_explicit(&s->next_cell, 1, memory_order_relaxed)) < s->cells;)
        run_cell(s, s->table + s->order[k] * C_FIELDS, w->scratch);
    return NULL;
}

/* A cell's estimated work, rows · n · steps over its greedy and main
 * phases: a TwoNeighbor cell runs one main phase, any other about
 * ⌈budget / iterations⌉ (each wave adds at least a main phase's flips),
 * and each cell one greedy descent more than main phases. */
static int64_t cell_work(const int64_t *cell, int64_t n, int64_t budget)
{
    int64_t iterations = cell[C_ITERATIONS] > 0 ? cell[C_ITERATIONS] : 1;
    int64_t mains = cell[C_TWO] ? 1 : (budget + iterations - 1) / iterations;
    return (cell[P_HI] - cell[P_LO]) * n * (mains * iterations + (mains + 1) * (n / 8));
}

/* (work, cell) pairs: the larger work first, then the lower cell */
static int by_work(const void *a, const void *b)
{
    const int64_t *p = a, *q = b;
    if (p[0] != q[0])
        return p[0] < q[0] ? 1 : -1;
    return p[1] < q[1] ? -1 : p[1] > q[1];
}

/* -- entry points: each returns nonzero when it cannot allocate ------------ */
int64_t repro_reset(int64_t rows, int64_t n, const int64_t *indptr,
                    const int64_t *indices, const int64_t *data, uint8_t *x,
                    int64_t *energy, int64_t *delta, const int64_t *lin)
{
    call_t c = {.rows = rows, .n = n, .s = {indptr, indices, data},
                .x = x, .energy = energy, .delta = delta, .lin = lin,
                .row = reset_row};
    return dispatch(&c, rows * (indptr[n] + n), 0);
}

#define CALL(body)                                                         \
    call_t c = {.rows = rows, .n = n, .s = {indptr, indices, data},       \
                .x = x, .energy = energy, .delta = delta,                 \
                .stamps = stamps, .stamp_on = stamp_on, .clock = clock,   \
                .best_x = best_x, .best_e = best_e, .row = body}

int64_t repro_straight(int64_t rows, int64_t n, const int64_t *indptr,
                       const int64_t *indices, const int64_t *data,
                       uint8_t *x, int64_t *energy, int64_t *delta,
                       int64_t *stamps, int64_t stamp_on, const int64_t *clock,
                       uint8_t *best_x, int64_t *best_e,
                       const uint8_t *targets, int64_t *flips)
{
    CALL(straight_row);
    c.targets = targets;
    c.flips = flips;
    return dispatch(&c, rows * n * n, n);
}

int64_t repro_greedy(int64_t rows, int64_t n, const int64_t *indptr,
                     const int64_t *indices, const int64_t *data, uint8_t *x,
                     int64_t *energy, int64_t *delta, int64_t *stamps,
                     int64_t stamp_on, const int64_t *clock, uint8_t *best_x,
                     int64_t *best_e, int64_t max_iters, int64_t *flips,
                     uint8_t *truncated)
{
    CALL(greedy_row);
    c.max_iters = max_iters;
    c.flips = flips;
    c.truncated = truncated;
    return dispatch(&c, rows * n * (n / 8), 0);
}

int64_t repro_main(int64_t rows, int64_t n, const int64_t *indptr,
                   const int64_t *indices, const int64_t *data, uint8_t *x,
                   int64_t *energy, int64_t *delta, int64_t *stamps,
                   int64_t stamp_on, const int64_t *clock, uint8_t *best_x,
                   int64_t *best_e, int64_t period, int64_t iterations,
                   const int64_t *parts)
{
    CALL(main_row);
    c.period = period;
    c.iterations = iterations;
    c.parts = parts; /* they tile [0, rows) */
    return dispatch(&c, rows * n * iterations, n);
}

/* The whole batch search of a pack: every row's start and straight walk,
 * then each cell's waves (cells × C_FIELDS in *table*, whose greedy and
 * main phase counts it writes).  The search writes every row's stamps,
 * *clock*, best vector and energy and *truncated* flag from its start
 * on: *clock* ends where the per-cell clock of the wave loop ends,
 * *flips* gets every row's flips and *truncated* whether any of its
 * greedy descents was cut short. */
int64_t repro_search(int64_t rows, int64_t n, const int64_t *indptr,
                     const int64_t *indices, const int64_t *data, uint8_t *x,
                     int64_t *energy, int64_t *delta, int64_t *stamps,
                     int64_t stamp_on, int64_t *clock, uint8_t *best_x,
                     int64_t *best_e, const uint8_t *targets, int64_t *flips,
                     uint8_t *truncated, int64_t period, int64_t budget,
                     int64_t max_iters, int64_t cells, int64_t *table)
{
    CALL(straight_row);
    search_t s = {.straight = c, .greedy = c, .main = c, .clock = clock,
                  .flips = flips, .truncated = truncated, .budget = budget,
                  .cells = cells, .table = table};
    s.straight.targets = targets;
    s.straight.flips = flips;
    /* the order's (work, cell) pairs, then the greedy descent's per-row
     * flips and flags */
    int64_t *order = malloc((size_t)(2 * cells + rows) * sizeof(int64_t) + (size_t)rows + 1);
    if (!order)
        return -1;
    s.greedy.row = greedy_row;
    s.greedy.max_iters = max_iters;
    s.greedy.flips = order + 2 * cells;
    s.greedy.truncated = (uint8_t *)(order + 2 * cells + rows);
    s.main.row = main_row;
    s.main.period = period;
    int64_t work = rows * n * n;
    for (int64_t k = 0; k < cells; k++) {
        order[2 * k] = cell_work(table + k * C_FIELDS, n, budget);
        order[2 * k + 1] = k;
        work += order[2 * k];
    }
    qsort(order, (size_t)cells, 2 * sizeof(int64_t), by_work);
    for (int64_t k = 0; k < cells; k++) /* reads 2k + 1 ≥ k: not yet written */
        order[k] = order[2 * k + 1];
    s.order = order;
    int64_t threads = repro_threads(rows, work);
    claims_init(&s.rows, rows, threads);
    atomic_init(&s.next_cell, 0);
    atomic_init(&s.walked, 0);
    pthread_mutex_init(&s.lock, NULL);
    pthread_cond_init(&s.all_walked, NULL);
    int64_t failed = run_threads(threads, n, run_search, &s);
    pthread_cond_destroy(&s.all_walked);
    pthread_mutex_destroy(&s.lock);
    free(order);
    return failed;
}
