/*
 * The exploration kernel of rcmperc: cluster exploration, ball placement
 * with thinning and the connection functions, in C.
 *
 * Every random draw goes through a numpy bit generator with the
 * functions numpy's Generator itself calls (random_standard_normal_fill,
 * random_poisson, next_double), in the order that exploration.py and
 * sampling.py document, so a run consumes exactly the stream and gives
 * exactly the result of the rules as stated there. A batch's trial
 * streams are derived here, with numpy's SeedSequence and PCG64 seeding
 * ported below, so trial t draws what sampling.trial_stream's Generator
 * would. The SeedSequence comes in two halves: what the entropy words
 * every trial of a batch shares (sampling.trial_entropy, 3 to 5 of them)
 * fix of its pool is worked out once per rcm_run_trials call, and each
 * trial finishes it with the one or two words of t, completing the pool
 * and its cross-mix when fewer than four words were shared.
 * rcm_seed_sequence is the same two halves with nothing to finish, so
 * numpy's reference vectors check the one implementation. Distances and
 * norms are the square root of the squares summed in coordinate order;
 * the file must be compiled without floating-point contraction
 * (-ffp-contract=off) and without -ffast-math.
 *
 * kernel.h declares the interface: states, kinds, status codes, records
 * and the rcm_* entry points.
 *
 * No function here touches a Python object, so callers may release the
 * interpreter lock around every entry point. Each call frees the
 * memory it allocates before it returns, but for the pair log that
 * rcm_explore grows for its caller, who frees it with rcm_free; no
 * other state outlives a call. A batch (rcm_run_batch) runs one
 * rcm_run_trials call per thread, in threads it starts and joins itself;
 * each call sets up one exploration workspace, a grid, a frontier and
 * scratch, and reuses it for every trial it runs, emptying it before each.
 * A trial scans its points linearly until its grid holds more than
 * RCM_LINEAR_POINTS of them, and only then files them in cells.
 * A workspace keeps its points, cell slots and frontier entries as arrays
 * of records, whose sizes below give its memory per point, slot and
 * entry. Every buffer that grows goes through resize, the one realloc
 * here, and a capacity doubles only after each buffer it sizes has grown.
 */

#include <math.h>
#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#include "numpy/random/distributions.h"
#include "kernel.h"

/* Resizes the buffer whose pointer (of any type) is at buf to `bytes`;
 * when memory runs out it returns RCM_NO_MEMORY and leaves it as it was. */
static int resize(void *buf, size_t bytes)
{
    void *old, *p;
    memcpy(&old, buf, sizeof old);
    p = realloc(old, bytes);
    if (!p)
        return RCM_NO_MEMORY;
    memcpy(buf, &p, sizeof p);
    return RCM_OK;
}

/* ------------------------------------------------------------------ */
/* Trial streams: numpy's SeedSequence and the PCG64 it seeds, as       */
/* np.random.PCG64(np.random.SeedSequence(entropy)) builds them. NEP 19 */
/* freezes both; O'Neill (2014) defines PCG64 (XSL-RR 128/64).          */

typedef __uint128_t rcm_u128; /* a GCC and Clang extension */

typedef struct {
    rcm_u128 state, inc;
    int has_uint32;
    uint32_t uinteger;
} pcg64;

/* A seeded PCG64 and the bitgen_t that numpy's distribution functions draw through. */
typedef struct {
    pcg64 pcg;
    bitgen_t bitgen;
} rcm_stream;

#define PCG64_MULT (((rcm_u128)2549297995355413924ULL << 64) + 4865540595714422341ULL)

static void pcg64_step(pcg64 *s)
{
    s->state = s->state * PCG64_MULT + s->inc;
}

static uint64_t pcg64_next64(void *st)
{
    pcg64 *s = st;
    pcg64_step(s);
    uint64_t v = (uint64_t)(s->state >> 64) ^ (uint64_t)s->state;
    unsigned rot = (unsigned)(s->state >> 122);
    return (v >> rot) | (v << ((-rot) & 63));
}

/* numpy's rule: a 64-bit draw gives its low half now and its high half next time. */
static uint32_t pcg64_next32(void *st)
{
    pcg64 *s = st;
    if (s->has_uint32) {
        s->has_uint32 = 0;
        return s->uinteger;
    }
    uint64_t next = pcg64_next64(s);
    s->has_uint32 = 1;
    s->uinteger = (uint32_t)(next >> 32);
    return (uint32_t)next;
}

static double pcg64_next_double(void *st)
{
    return (double)(pcg64_next64(st) >> 11) * (1.0 / 9007199254740992.0);
}

#define SS_INIT_A 0x43b0d7e5u
#define SS_MULT_A 0x931e8875u
#define SS_INIT_B 0x8b51f9ddu
#define SS_MULT_B 0x58f38dedu
#define SS_MIX_L 0xca01f9ddu
#define SS_MIX_R 0x4973f715u
#define SS_POOL 4

static uint32_t hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const *= SS_MULT_A;
    value *= *hash_const;
    return value ^ (value >> 16);
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t r = SS_MIX_L * x - SS_MIX_R * y;
    return r ^ (r >> 16);
}

/* What a SeedSequence's words up to some point fix of its pool. numpy
 * fills the pool with the first SS_POOL words, cross-mixes it (every
 * word mixed into every other, by rows of source words), then mixes each
 * later word into every pool word. The hash constant steps the same way
 * whatever the words are, so with only `filled` words known the rows of
 * the cross-mix from those words are done here too: mixes into the known
 * words in full, mixes into the others as the values mixed[src][dst] that
 * they take in. h is the hash constant from there on, h_fill the one for
 * the next pool word. */
typedef struct {
    uint32_t pool[SS_POOL], h, h_fill;
    int filled;
    uint32_t mixed[SS_POOL][SS_POOL];
} seed_prefix;

/* The part of a SeedSequence whose entropy starts with the n words that
 * does not depend on the words after them. */
static seed_prefix seed_prefix_of(const uint32_t *words, int64_t n)
{
    seed_prefix p = {.h = SS_INIT_A, .filled = n < SS_POOL ? (int)n : SS_POOL};
    for (int i = 0; i < p.filled; i++)
        p.pool[i] = hashmix(words[i], &p.h);
    p.h_fill = p.h;
    for (int i = p.filled; i < SS_POOL; i++)
        p.h *= SS_MULT_A;
    for (int src = 0; src < p.filled; src++)
        for (int dst = 0; dst < SS_POOL; dst++) {
            if (dst == src)
                continue;
            uint32_t k = hashmix(p.pool[src], &p.h);
            if (dst < p.filled)
                p.pool[dst] = mix(p.pool[dst], k);
            else
                p.mixed[src][dst] = k;
        }
    for (int64_t i = SS_POOL; i < n; i++)
        for (int dst = 0; dst < SS_POOL; dst++)
            p.pool[dst] = mix(p.pool[dst], hashmix(words[i], &p.h));
    return p;
}

/* generate_state(4, np.uint64) of the SeedSequence whose entropy is p's
 * words followed by the m words in `more`, into state. A pool short of
 * SS_POOL words is completed with zeros, as numpy pads short entropy. */
static void seed_finish(const seed_prefix *p, const uint32_t *more, int64_t m, uint64_t *state)
{
    uint32_t pool[SS_POOL], h = p->h, h_fill = p->h_fill;
    int64_t i = 0;
    memcpy(pool, p->pool, sizeof pool);
    for (int dst = p->filled; dst < SS_POOL; dst++) {
        pool[dst] = hashmix(i < m ? more[i++] : 0, &h_fill);
        for (int src = 0; src < p->filled; src++)
            pool[dst] = mix(pool[dst], p->mixed[src][dst]);
    }
    /* the rows of the cross-mix from the words filled here */
    for (int src = p->filled; src < SS_POOL; src++)
        for (int dst = 0; dst < SS_POOL; dst++)
            if (dst != src)
                pool[dst] = mix(pool[dst], hashmix(pool[src], &h));
    for (; i < m; i++)
        for (int dst = 0; dst < SS_POOL; dst++)
            pool[dst] = mix(pool[dst], hashmix(more[i], &h));
    /* eight 32-bit words cycling over the pool, paired low word first */
    h = SS_INIT_B;
    for (int k = 0; k < 8; k++) {
        uint32_t v = pool[k % SS_POOL] ^ h;
        h *= SS_MULT_B;
        v *= h;
        v ^= v >> 16;
        if (k % 2 == 0)
            state[k / 2] = v;
        else
            state[k / 2] |= (uint64_t)v << 32;
    }
}

/* SeedSequence(entropy).generate_state(4, np.uint64) into state, for the
 * n_words 32-bit entropy words as numpy coerces them. */
void rcm_seed_sequence(const uint32_t *entropy, int64_t n_words, uint64_t *state)
{
    seed_prefix p = seed_prefix_of(entropy, n_words);
    seed_finish(&p, NULL, 0, state);
}

/* Seeds s as np.random.PCG64 seeded with the four words w of a
 * SeedSequence's state, and returns its bit generator, valid while s lives. */
static bitgen_t *stream_seed_state(rcm_stream *s, const uint64_t *w)
{
    pcg64 *g = &s->pcg;
    /* srandom: the first two words make the state, high word first, and
     * the last two the stream, whose increment is 2 * seq + 1 */
    g->state = 0;
    g->inc = ((((rcm_u128)w[2] << 64) | w[3]) << 1) | 1u;
    pcg64_step(g);
    g->state += ((rcm_u128)w[0] << 64) | w[1];
    pcg64_step(g);
    g->has_uint32 = 0;
    g->uinteger = 0;
    s->bitgen = (bitgen_t){g, pcg64_next64, pcg64_next32, pcg64_next_double, pcg64_next64};
    return &s->bitgen;
}

/* Seeds s as np.random.PCG64(np.random.SeedSequence(entropy)) and returns
 * its bit generator, valid while s lives. */
bitgen_t *rcm_stream_seed(rcm_stream *s, const uint32_t *entropy, int64_t n_words)
{
    uint64_t w[4];
    rcm_seed_sequence(entropy, n_words, w);
    return stream_seed_state(s, w);
}

/* ------------------------------------------------------------------ */
/* Arithmetic of the float contract and the connection functions.      */

static double norm_of(const double *v, int dim)
{
    double s = 0.0;
    for (int k = 0; k < dim; k++)
        s += v[k] * v[k];
    return sqrt(s);
}

static double distance_of(const double *x, const double *y, int dim)
{
    double s = 0.0;
    for (int k = 0; k < dim; k++) {
        double d = x[k] - y[k];
        s += d * d;
    }
    return sqrt(s);
}

/* np.interp at 0 <= r <= the last knot, then the clamp to [0, 1]. */
static double table_phi(const rcm_model *m, double r)
{
    const double *xp = m->knots, *fp = m->knots + m->n_knots;
    int64_t lo = 0, hi = m->n_knots - 1;
    /* the largest j with xp[j] <= r */
    while (lo < hi) {
        int64_t mid = lo + (hi - lo + 1) / 2;
        if (xp[mid] <= r)
            lo = mid;
        else
            hi = mid - 1;
    }
    double v;
    if (lo == m->n_knots - 1 || xp[lo] == r) {
        v = fp[lo];
    } else {
        double slope = (fp[lo + 1] - fp[lo]) / (xp[lo + 1] - xp[lo]);
        v = slope * (r - xp[lo]) + fp[lo];
        if (isnan(v)) {
            v = slope * (r - xp[lo + 1]) + fp[lo + 1];
            if (isnan(v) && fp[lo] == fp[lo + 1])
                v = fp[lo];
        }
    }
    v = v > 0.0 ? v : 0.0;
    return v < 1.0 ? v : 1.0;
}

/* phi_at of the model in connection.py, bit for bit. */
double rcm_phi(const rcm_model *m, double r)
{
    switch (m->kind) {
    case RCM_GILBERT:
        return r <= m->radius ? 1.0 : 0.0;
    case RCM_PENETRABLE:
        return r <= m->radius ? m->prob : 0.0;
    case RCM_SOFT_SPHERE:
        if (r > m->radius)
            return 0.0;
        if (r <= 0.0)
            return 1.0;
        /* an overflowing power gives an infinite exponent and phi 1 */
        return -expm1(-(m->energy * pow(m->radius / r, m->hardness)));
    default: /* RCM_TABULATED */
        if (r > m->radius || r < 0.0)
            return 0.0;
        /* np.interp returns a NaN r as it is, and the clamp maps it to 0 */
        return isnan(r) ? 0.0 : table_phi(m, r);
    }
}

/* Whether uniform u joins x and y: r within the radius and u <= phi(r). */
static int connects(const rcm_model *m, const double *x, const double *y, int dim, double u)
{
    double r = distance_of(x, y, dim);
    if (r > m->radius)
        return 0;
    return u <= rcm_phi(m, r);
}

/* ------------------------------------------------------------------ */
/* The point grid: coordinates and a state per point id. Up to         */
/* RCM_LINEAR_POINTS points a query is one pass over them; past that   */
/* they are filed in cubic cells whose edge is twice the query radius  */
/* (the link-cell method), so a query probes 2^d cells.                */

/* Cell indices are clamped here; points in clamped cells are further
 * apart than any radius, so the exact distance test still decides. */
#define RCM_CELL_LIMIT 4503599627370496.0 /* 2^52 */

/* A query reaches this much past the radius, so that a rounding at a
 * cell face widens its box instead of dropping a point. */
#define RCM_REACH (1.0 + 1e-9)

/* A point's places on its cell's chains (16 bytes); with its coordinates
 * and its state a point costs 8d + 17 bytes, and 8 more for its mark in
 * an exploration that marks its points. */
typedef struct {
    int64_t next;           /* the next id in the same cell, -1 ends */
    int64_t cnext;          /* the next covered id in the same cell, -1 ends */
} chain_link;
_Static_assert(sizeof(chain_link) == 16, "chain_link must stay 16 bytes");

/* A cell's slot (24 bytes); with its dim indices and its share of `live`
 * a slot costs 8d + 28 bytes. */
typedef struct {
    uint64_t hash;
    int64_t head;           /* the last id filed in the cell, -1 marks a free slot */
    int64_t chead;          /* the last id covered in the cell, -1 for none */
} slot_rec;
_Static_assert(sizeof(slot_rec) == 24, "slot_rec must stay 24 bytes");

typedef struct {
    int dim;
    double radius;
    double half_reach;      /* radius * RCM_REACH / 2 */
    /* points by id */
    int64_t n, cap;
    double *coords;
    int marked;             /* whether `mark` holds the points' marks */
    double *mark;           /* NULL unless marked */
    uint8_t *state;
    chain_link *link;
    int64_t in_state[3];    /* how many points each state holds */
    /* cells: open addressing over `slots`, a power of two */
    int64_t slots, used;
    slot_rec *slot;
    int64_t *slot_cell;     /* dim indices per slot */
    int64_t *live;          /* the `used` slots in use, room for slots / 2 */
    /* per-grid constants and scratch */
    uint64_t *mult;         /* an odd hash multiplier per coordinate */
    int64_t *scan;          /* 3 * dim: first, last and current cell of a scan */
    double *gauss;          /* dim */
    double *point;          /* dim */
    int64_t *found;         /* query results */
    int64_t found_cap;
} grid;

static uint64_t splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

static uint64_t slot_of(uint64_t h, int64_t slots)
{
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return h & (uint64_t)(slots - 1);
}

/* The cell of coordinate c is floor(c / 2r), computed as floor((c / 2) / r),
 * which rounds alike and cannot overflow in 2r; callers pass c / 2. */
static int64_t cell_index(double half_c, double r)
{
    double k = floor(half_c / r);
    if (k > RCM_CELL_LIMIT)
        k = RCM_CELL_LIMIT;
    else if (k < -RCM_CELL_LIMIT)
        k = -RCM_CELL_LIMIT;
    return (int64_t)k;
}

static void grid_free(grid *g)
{
    free(g->coords);
    free(g->mark);
    free(g->state);
    free(g->link);
    free(g->slot);
    free(g->slot_cell);
    free(g->live);
    free(g->mult);
    free(g->scan);
    free(g->gauss);
    free(g->point);
    free(g->found);
}

static int alloc_slots(grid *g, int64_t slots)
{
    g->slot = malloc((size_t)slots * sizeof(slot_rec));
    g->slot_cell = malloc((size_t)slots * (size_t)g->dim * sizeof(int64_t));
    g->live = malloc((size_t)slots / 2 * sizeof(int64_t));
    if (!g->slot || !g->slot_cell || !g->live)
        return RCM_NO_MEMORY;
    for (int64_t s = 0; s < slots; s++)
        g->slot[s].head = -1;
    g->slots = slots;
    return RCM_OK;
}

/* Sets up an empty grid; its point and query buffers are taken at first use. */
static int grid_init(grid *g, double radius, int dim)
{
    memset(g, 0, sizeof *g);
    g->dim = dim;
    g->radius = radius;
    g->half_reach = 0.5 * radius * RCM_REACH;
    g->mult = malloc((size_t)dim * sizeof(uint64_t));
    g->scan = malloc(3 * (size_t)dim * sizeof(int64_t));
    g->gauss = malloc((size_t)dim * sizeof(double));
    g->point = malloc((size_t)dim * sizeof(double));
    if (!g->mult || !g->scan || !g->gauss || !g->point || alloc_slots(g, 64) != RCM_OK) {
        grid_free(g);
        return RCM_NO_MEMORY;
    }
    for (int k = 0; k < dim; k++)
        g->mult[k] = splitmix64((uint64_t)k) | 1;
    return RCM_OK;
}

/* The slot of `cell` (hash h), or -(free slot) - 1 when it has none. */
static int64_t find_slot(const grid *g, uint64_t h, const int64_t *cell)
{
    size_t bytes = (size_t)g->dim * sizeof(int64_t);
    for (uint64_t s = slot_of(h, g->slots);; s = (s + 1) & (uint64_t)(g->slots - 1)) {
        if (g->slot[s].head < 0)
            return -(int64_t)s - 1;
        if (g->slot[s].hash == h && memcmp(g->slot_cell + s * (uint64_t)g->dim, cell, bytes) == 0)
            return (int64_t)s;
    }
}

static int grow_slots(grid *g)
{
    slot_rec *slot = g->slot;
    int64_t *cell = g->slot_cell, *live = g->live, slots = g->slots;
    if (alloc_slots(g, 2 * slots) != RCM_OK) {
        free(g->slot);
        free(g->slot_cell);
        free(g->live);
        g->slot = slot;
        g->slot_cell = cell;
        g->live = live;
        g->slots = slots;
        return RCM_NO_MEMORY;
    }
    for (int64_t u = 0; u < g->used; u++) {
        int64_t s = live[u], t = -find_slot(g, slot[s].hash, cell + s * g->dim) - 1;
        g->slot[t] = slot[s];
        memcpy(g->slot_cell + t * g->dim, cell + s * g->dim, (size_t)g->dim * sizeof(int64_t));
        g->live[u] = t;
    }
    free(slot);
    free(cell);
    free(live);
    return RCM_OK;
}

/* Empties the grid in time proportional to its cells in use, keeping its
 * memory; it scans linearly again until it holds more than RCM_LINEAR_POINTS. */
static void grid_reset(grid *g)
{
    for (int64_t u = 0; u < g->used; u++)
        g->slot[g->live[u]].head = -1;
    g->used = 0;
    g->n = 0;
    memset(g->in_state, 0, sizeof g->in_state);
}

/* Doubles the room for points, from 64 at first use. */
static int grow_points(grid *g)
{
    int64_t cap = g->cap ? 2 * g->cap : 64;
    if (resize(&g->coords, (size_t)cap * (size_t)g->dim * sizeof(double)) != RCM_OK
        || (g->marked && resize(&g->mark, (size_t)cap * sizeof(double)) != RCM_OK)
        || resize(&g->state, (size_t)cap) != RCM_OK
        || resize(&g->link, (size_t)cap * sizeof(chain_link)) != RCM_OK)
        return RCM_NO_MEMORY;
    g->cap = cap;
    return RCM_OK;
}

/* The slot of the cell that holds p, or -(free slot) - 1 when the cell
 * has none; leaves the cell's indices in g->scan and its hash in *h. */
static int64_t cell_slot(grid *g, const double *p, uint64_t *h)
{
    int64_t *cell = g->scan;
    *h = 0;
    for (int k = 0; k < g->dim; k++) {
        cell[k] = cell_index(0.5 * p[k], g->radius);
        *h += (uint64_t)cell[k] * g->mult[k];
    }
    return find_slot(g, *h, cell);
}

/* Puts point i, whose cell has slot s, on that cell's covered chain. */
static void link_covered(grid *g, int64_t s, int64_t i)
{
    g->link[i].cnext = g->slot[s].chead;
    g->slot[s].chead = i;
}

/* Whether the grid files its points in cells: only while it holds more
 * than RCM_LINEAR_POINTS of them. */
static int filed(const grid *g)
{
    return g->n > RCM_LINEAR_POINTS;
}

/* Files point i in its cell, and on the cell's covered chain when it is
 * covered; returns RCM_OK or RCM_NO_MEMORY. */
static int file_point(grid *g, int64_t i)
{
    int dim = g->dim;
    uint64_t h;
    if (2 * (g->used + 1) > g->slots && grow_slots(g) != RCM_OK)
        return RCM_NO_MEMORY;
    int64_t s = cell_slot(g, g->coords + i * dim, &h);
    if (s < 0) {
        s = -s - 1;
        g->slot[s].hash = h;
        g->slot[s].chead = -1;
        memcpy(g->slot_cell + s * dim, g->scan, (size_t)dim * sizeof(int64_t));
        g->live[g->used++] = s;
    }
    g->link[i].next = g->slot[s].head;
    g->slot[s].head = i;
    if (g->state[i] == RCM_COVERED)
        link_covered(g, s, i);
    return RCM_OK;
}

/* Stores a point in the given state, and its mark if the grid is marked;
 * returns its id, or -1. The insert that makes the grid filed files every
 * point, later ones their own. */
static int64_t grid_insert(grid *g, const double *p, double mark, uint8_t state)
{
    int was_filed = filed(g);
    if (g->n == g->cap && grow_points(g) != RCM_OK)
        return -1;
    int64_t i = g->n++;
    memcpy(g->coords + i * g->dim, p, (size_t)g->dim * sizeof(double));
    if (g->marked)
        g->mark[i] = mark;
    g->state[i] = state;
    g->in_state[state]++;
    if (filed(g))
        for (int64_t k = was_filed ? i : 0; k < g->n; k++)
            if (file_point(g, k) != RCM_OK)
                return -1;
    return i;
}

/* Moves point i to `state`, and its count with it. */
static void grid_move(grid *g, int64_t i, uint8_t state)
{
    g->in_state[g->state[i]]--;
    g->in_state[state]++;
    g->state[i] = state;
}

/* Moves point i, which is not yet covered, to the covered state. */
static void grid_cover(grid *g, int64_t i)
{
    uint64_t h;
    grid_move(g, i, RCM_COVERED);
    if (filed(g))
        link_covered(g, cell_slot(g, g->coords + i * g->dim, &h), i);
}

/* Whether point i lies within the radius of q: the one distance test of
 * every query and of thinning. */
static int within(const grid *g, const double *q, int64_t i)
{
    return !(distance_of(q, g->coords + i * g->dim, g->dim) > g->radius);
}

static int cmp_id(const void *a, const void *b)
{
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* Puts id i after the n ids in g->found, growing it from 64 by doubling. */
static int found_push(grid *g, int64_t n, int64_t i)
{
    if (n == g->found_cap) {
        int64_t cap = n ? 2 * n : 64;
        if (resize(&g->found, (size_t)cap * sizeof(int64_t)) != RCM_OK)
            return RCM_NO_MEMORY;
        g->found_cap = cap;
    }
    g->found[n] = i;
    return RCM_OK;
}

/*
 * The points in `state` within the radius of q. A state that holds no
 * point returns 0 at once. An unfiled grid tests its points in id order;
 * a filed one walks the cells that meet the box of half-width
 * radius * RCM_REACH around q: two per axis, three only when the box
 * ends on a cell face, and a covered query only each cell's covered
 * chain. With collect == 0 it returns 1 at the first such point and 0 if
 * there is none. Otherwise it leaves their ids in g->found, ascending,
 * and returns their count, or -1 when memory runs out.
 */
static int64_t grid_scan(grid *g, const double *q, uint8_t state, int collect)
{
    int dim = g->dim;
    int64_t *first = g->scan, *last = first + dim, *cell = last + dim, n = 0;
    int covered = state == RCM_COVERED;
    uint64_t h = 0;
    if (!g->in_state[state])
        return 0;
    if (!filed(g)) {
        for (int64_t i = 0; i < g->n; i++) {
            if (g->state[i] != state || !within(g, q, i))
                continue;
            if (!collect)
                return 1;
            if (found_push(g, n++, i) != RCM_OK)
                return -1;
        }
        return n;
    }
    for (int k = 0; k < dim; k++) {
        first[k] = cell_index(0.5 * q[k] - g->half_reach, g->radius);
        last[k] = cell_index(0.5 * q[k] + g->half_reach, g->radius);
        cell[k] = first[k];
        h += (uint64_t)cell[k] * g->mult[k];
    }
    for (;;) {
        int64_t s = find_slot(g, h, cell), i = -1;
        if (s >= 0)
            i = covered ? g->slot[s].chead : g->slot[s].head;
        for (; i >= 0; i = covered ? g->link[i].cnext : g->link[i].next) {
            if (g->state[i] != state || !within(g, q, i))
                continue;
            if (!collect)
                return 1;
            if (found_push(g, n++, i) != RCM_OK)
                return -1;
        }
        /* the next cell: count the indices up from first to last, axis 0 fastest */
        int k = 0;
        while (k < dim && cell[k] == last[k]) {
            h -= (uint64_t)(last[k] - first[k]) * g->mult[k];
            cell[k] = first[k];
            k++;
        }
        if (k == dim)
            break;
        cell[k]++;
        h += g->mult[k];
    }
    if (n > 1)
        qsort(g->found, (size_t)n, sizeof(int64_t), cmp_id);
    return n;
}

/* ------------------------------------------------------------------ */
/* Placement: place_candidates in sampling.py.                         */

/* One point uniform in the closed ball B(center, radius), into p. */
static void ball_point(bitgen_t *bg, int dim, const double *center, double radius,
                       double *gauss, double *p)
{
    double length;
    do {
        random_standard_normal_fill(bg, dim, gauss);
        length = norm_of(gauss, dim);
    } while (!(length > 0.0));
    double dist = radius * pow(next_double(bg), 1.0 / dim);
    double scale = dist / length;
    for (int k = 0; k < dim; k++)
        p[k] = center[k] + scale * gauss[k];
}

/*
 * `count` placements in B(center, radius); each one not within the radius
 * of a covered point joins the grid as unattached, and with mark_max > 0
 * draws its mark, mark_max times a uniform, before the next placement. A
 * hint >= 0 names a covered point, tested before the grid is scanned:
 * thinning asks whether any covered point is near, so the order of the
 * tests cannot change its answer. center must not point into the grid,
 * which may move as it grows.
 */
static int place(bitgen_t *bg, grid *g, const double *center, int64_t hint, int64_t count,
                 double mark_max)
{
    for (int64_t c = 0; c < count; c++) {
        ball_point(bg, g->dim, center, g->radius, g->gauss, g->point);
        if ((hint >= 0 && within(g, g->point, hint)) || grid_scan(g, g->point, RCM_COVERED, 0))
            continue;
        double mark = mark_max > 0.0 ? mark_max * next_double(bg) : 0.0;
        if (grid_insert(g, g->point, mark, RCM_UNATTACHED) < 0)
            return RCM_NO_MEMORY;
    }
    return RCM_OK;
}

/*
 * The kept placements of `count` candidates in B(center, radius), thinned
 * against balls of the same radius around the n_covered covered centres:
 * writes them to out (room for count points) and returns how many, or
 * RCM_NO_MEMORY.
 */
int64_t rcm_place(bitgen_t *bg, int dim, const double *center, double radius,
                  const double *covered, int64_t n_covered, int64_t count, double *out)
{
    grid g;
    if (grid_init(&g, radius, dim) != RCM_OK)
        return RCM_NO_MEMORY;
    int64_t kept = RCM_NO_MEMORY;
    for (int64_t c = 0; c < n_covered; c++)
        if (grid_insert(&g, covered + c * dim, 0.0, RCM_COVERED) < 0)
            goto done;
    if (place(bg, &g, center, -1, count, 0.0) != RCM_OK)
        goto done;
    kept = g.n - n_covered;
    if (kept > 0)
        memcpy(out, g.coords + n_covered * dim, (size_t)(kept * dim) * sizeof(double));
done:
    grid_free(&g);
    return kept;
}

/*
 * One grid query, for tests: stores the n points in their states, then
 * writes the ids of those in `state` within radius of q to ids (room for
 * n), ascending, sets *any to the early-exit answer of the same question
 * and returns the count. RCM_BAD_GRID for a radius that is not finite and
 * positive, a dimension below 1 or a state that is not a point state.
 */
int64_t rcm_grid_query(double radius, int dim, const double *points, const uint8_t *states,
                       int64_t n, const double *q, int state, int64_t *ids, int *any)
{
    if (!(isfinite(radius) && radius > 0.0) || dim < 1 || state < 0 || state > RCM_COVERED)
        return RCM_BAD_GRID;
    for (int64_t i = 0; i < n; i++)
        if (states[i] > RCM_COVERED)
            return RCM_BAD_GRID;
    grid g;
    if (grid_init(&g, radius, dim) != RCM_OK)
        return RCM_NO_MEMORY;
    int64_t count = RCM_NO_MEMORY;
    for (int64_t i = 0; i < n; i++)
        if (grid_insert(&g, points + i * dim, 0.0, states[i]) < 0)
            goto done;
    *any = (int)grid_scan(&g, q, (uint8_t)state, 0);
    count = grid_scan(&g, q, (uint8_t)state, 1);
    if (count > 0)
        memcpy(ids, g.found, (size_t)count * sizeof(int64_t));
done:
    grid_free(&g);
    return count;
}

/* ------------------------------------------------------------------ */
/* Exploration: explore_cluster in exploration.py.                     */

/* A frontier entry (32 bytes): point id with its bottleneck key and its
 * distance norm from the origin, and `from`, the point that adopted it
 * (-1 for the origin), which thinning tests first. */
typedef struct {
    double key, norm;
    int64_t id, from;
} heap_entry;
_Static_assert(sizeof(heap_entry) == 32, "heap_entry must stay 32 bytes");

/* A trial's view of its batch's cutoff: its bound (see rcm_cutoff) from
 * the escape keys of the trials before it that have finished, recomputed
 * when the version moves. */
typedef struct {
    rcm_cutoff *shared;     /* NULL: the trial is never cut */
    int64_t trial, version;
    double bound;
} trial_cutoff;

/* An exploration's workspace: set up once, emptied before each trial. */
typedef struct {
    grid g;
    /* the frontier: a binary heap, smallest key first, then farthest from
     * the origin, then smaller id */
    heap_entry *heap;
    int64_t heap_n, heap_cap;
    double *x;              /* dim: the frontier point being processed */
    double system_size;
    double max_norm;
    double escape_key;      /* the smallest key of a point that joined beyond the system size */
    int64_t n_extras;       /* points 1..n_extras are the extras */
    int64_t extras_out;     /* the extras not yet joined */
} explorer;

static void explorer_free(explorer *e)
{
    free(e->x);
    free(e->heap);
    grid_free(&e->g);
}

/* Allocates e for runs of p under m; frees what it took when memory runs out. */
static int explorer_init(explorer *e, const rcm_model *m, const rcm_params *p)
{
    memset(e, 0, sizeof *e);
    if (grid_init(&e->g, m->radius, p->dim) != RCM_OK)
        return RCM_NO_MEMORY;
    e->g.marked = p->mark_max > 0.0;
    e->system_size = p->system_size;
    e->n_extras = p->n_extras;
    e->x = malloc((size_t)p->dim * sizeof(double));
    if (!e->x) {
        explorer_free(e);
        return RCM_NO_MEMORY;
    }
    return RCM_OK;
}

/* Empties e for the next trial in time proportional to the last one. */
static void explorer_reset(explorer *e)
{
    grid_reset(&e->g);
    memset(e->x, 0, (size_t)e->g.dim * sizeof(double));
    e->heap_n = 0;
    e->max_norm = 0.0;
    e->escape_key = INFINITY;
    e->extras_out = e->n_extras;
}

static int heap_before(const heap_entry *a, const heap_entry *b)
{
    if (a->key != b->key)
        return a->key < b->key;
    return a->norm > b->norm || (a->norm == b->norm && a->id < b->id);
}

static void heap_swap(explorer *e, int64_t a, int64_t b)
{
    heap_entry t = e->heap[a];
    e->heap[a] = e->heap[b];
    e->heap[b] = t;
}

/* Puts entry h on the frontier, whose room doubles from 64. */
static int heap_push(explorer *e, heap_entry h)
{
    if (e->heap_n == e->heap_cap) {
        int64_t cap = e->heap_cap ? 2 * e->heap_cap : 64;
        if (resize(&e->heap, (size_t)cap * sizeof(heap_entry)) != RCM_OK)
            return RCM_NO_MEMORY;
        e->heap_cap = cap;
    }
    int64_t c = e->heap_n++;
    e->heap[c] = h;
    while (c > 0 && heap_before(&e->heap[c], &e->heap[(c - 1) / 2])) {
        heap_swap(e, c, (c - 1) / 2);
        c = (c - 1) / 2;
    }
    return RCM_OK;
}

/* Takes the first frontier entry off the heap. */
static heap_entry heap_pop(explorer *e)
{
    heap_entry top = e->heap[0];
    int64_t c = 0;
    e->heap[0] = e->heap[--e->heap_n];
    for (;;) {
        int64_t l = 2 * c + 1, r = l + 1, best = c;
        if (l < e->heap_n && heap_before(&e->heap[l], &e->heap[best]))
            best = l;
        if (r < e->heap_n && heap_before(&e->heap[r], &e->heap[best]))
            best = r;
        if (best == c)
            return top;
        heap_swap(e, c, best);
        c = best;
    }
}

/* Moves point j, adopted by the frontier point whose entry is x, into the
 * cluster and the frontier. Its key is the larger of x's key and its mark,
 * final in Prim order; escape and joined extras are recorded here. */
static int adopt(explorer *e, int64_t j, const heap_entry *x)
{
    double r = norm_of(e->g.coords + j * e->g.dim, e->g.dim);
    double key = e->g.marked ? fmax(x->key, e->g.mark[j]) : x->key;
    grid_move(&e->g, j, RCM_CLUSTER);
    if (j <= e->n_extras)
        e->extras_out--;
    if (r > e->max_norm)
        e->max_norm = r;
    if (r > e->system_size && key < e->escape_key)
        e->escape_key = key;
    return heap_push(e, (heap_entry){key, r, j, x->id});
}

static int log_pair(rcm_pair_log *log, int64_t i, int64_t j)
{
    if (log->n == log->cap) {
        int64_t cap = log->cap ? 2 * log->cap : 1024;
        if (resize(&log->ids, 2 * (size_t)cap * sizeof(int64_t)) != RCM_OK)
            return RCM_NO_MEMORY;
        log->cap = cap;
    }
    log->ids[2 * log->n] = i;
    log->ids[2 * log->n + 1] = j;
    log->n++;
    return RCM_OK;
}

/* The largest key a trial may pop while the smallest escape key before it
 * is `key`: the largest level below key, -1 if none, or with no levels the
 * largest double below key. */
static double bound_below(const rcm_cutoff *c, double key)
{
    if (!c->levels)
        return nextafter(key, -INFINITY);
    int64_t lo = 0, hi = c->n_levels;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (c->levels[mid] < key)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo > 0 ? c->levels[lo - 1] : -1.0;
}

/* A view of trial t's cutoff before any trial has escaped. */
static trial_cutoff cutoff_of(rcm_cutoff *shared, int64_t t)
{
    return (trial_cutoff){shared, t, 0, shared ? bound_below(shared, INFINITY) : INFINITY};
}

/* The bound of c's trial; a NULL c, or a batch that is not cut, gives +inf. */
static double pop_bound(trial_cutoff *c)
{
    if (!c || !c->shared)
        return INFINITY;
    int64_t version = __atomic_load_n(&c->shared->version, __ATOMIC_ACQUIRE);
    if (version != c->version) {
        double key = INFINITY;
        for (int64_t s = 0; s < c->trial; s++) {
            double k;
            __atomic_load(c->shared->keys + s, &k, __ATOMIC_RELAXED);
            if (k < key)
                key = k;
        }
        c->version = version;
        c->bound = bound_below(c->shared, key);
    }
    return c->bound;
}

/* The one exploration loop: empties e, then explores the origin's
 * cluster in Prim order, drawing from bg. It stops when the escape key is
 * settled (no key left to pop lies below it), when the next key passes
 * the trial's bound (NULL cut: none), when the frontier empties, when a
 * work cap fires or, with p->stop_joined, after step (a) of the step in
 * which the last extra point joined. extras_in (room for n_extras)
 * receives whether each extra point joined, and a non-NULL log every
 * connection test. Returns
 * RCM_OK or RCM_NO_MEMORY. */
static int explore(explorer *e, bitgen_t *bg, const rcm_model *m, const rcm_params *p,
                   trial_cutoff *cut, rcm_outcome *out, uint8_t *extras_in, rcm_pair_log *log)
{
    int dim = p->dim;
    int64_t n_extras = p->n_extras;
    double ball_mean = p->ball_mean, cap_key = INFINITY, *x = e->x;
    grid *g = &e->g;
    int capped = 0;
    int64_t steps = 0, generated = 0, candidates = 0;
    explorer_reset(e);

    /* x is all zeros here: the origin is point 0, then the extras */
    if (grid_insert(g, x, 0.0, RCM_CLUSTER) < 0
        || heap_push(e, (heap_entry){0.0, 0.0, 0, -1}) != RCM_OK)
        return RCM_NO_MEMORY;
    for (int64_t k = 0; k < n_extras; k++)
        if (grid_insert(g, p->extras + k * dim, 0.0, RCM_UNATTACHED) < 0)
            return RCM_NO_MEMORY;

    while (e->heap_n > 0) {
        double next = e->heap[0].key;
        if (e->escape_key <= next || next > pop_bound(cut))
            break;
        if (steps >= p->max_steps) {
            capped = 1;
            cap_key = next;
            break;
        }
        heap_entry at = heap_pop(e);
        int64_t i = at.id;
        memcpy(x, g->coords + i * dim, (size_t)dim * sizeof(double));
        steps++;

        /* (a) the unattached points within range, ascending id */
        int64_t found = grid_scan(g, x, RCM_UNATTACHED, 1);
        if (found < 0)
            return RCM_NO_MEMORY;
        for (int64_t f = 0; f < found && e->escape_key > at.key; f++) {
            int64_t j = g->found[f];
            double u = next_double(bg);
            if (log && log_pair(log, i, j) != RCM_OK)
                return RCM_NO_MEMORY;
            if (connects(m, x, g->coords + j * dim, dim, u) && adopt(e, j, &at) != RCM_OK)
                return RCM_NO_MEMORY;
        }
        if (e->escape_key <= at.key)
            break;
        /* extras join only here, in step (a), never as new points */
        if (p->stop_joined && e->n_extras > 0 && e->extras_out == 0)
            break;

        /* (b) the Poisson intake of the ball, clamped to the remaining
         * budget before any candidate materializes; beyond the clamp's
         * threshold capping is certain and the count is not drawn */
        int64_t budget = p->max_generated - candidates, count;
        if (ball_mean > fmax(2.0 * (double)budget, 1000.0)) {
            capped = 1;
            count = budget;
        } else {
            count = random_poisson(bg, ball_mean);
            if (count > budget) {
                capped = 1;
                count = budget;
            }
        }
        if (capped)
            cap_key = at.key;
        candidates += count;
        int64_t first = g->n;
        /* the adopter was covered at the end of its own step */
        if (place(bg, g, x, at.from, count, p->mark_max) != RCM_OK)
            return RCM_NO_MEMORY;

        /* (c) the new points, in generation order */
        for (int64_t j = first; j < g->n; j++) {
            generated++;
            double u = next_double(bg);
            if (log && log_pair(log, i, j) != RCM_OK)
                return RCM_NO_MEMORY;
            if (connects(m, x, g->coords + j * dim, dim, u)) {
                if (adopt(e, j, &at) != RCM_OK)
                    return RCM_NO_MEMORY;
                if (e->escape_key <= at.key)
                    break;
            }
        }
        grid_cover(g, i);
        if (e->escape_key <= at.key || capped)
            break;
    }

    out->escaped = e->escape_key < INFINITY;
    out->capped = capped;
    out->cluster_size = steps + e->heap_n;
    out->generated_points = generated;
    out->steps = steps;
    out->max_norm = e->max_norm;
    out->escape_key = e->escape_key;
    out->cap_key = cap_key;
    for (int64_t k = 0; k < n_extras; k++)
        extras_in[k] = g->state[1 + k] != RCM_UNATTACHED;
    return RCM_OK;
}

/* One exploration in a workspace of its own, freed before it returns; a
 * non-NULL log is grown here, and the caller frees it with
 * rcm_free(log->ids). */
int rcm_explore(bitgen_t *bg, const rcm_model *m, const rcm_params *p,
                rcm_outcome *out, uint8_t *extras_in, rcm_pair_log *log)
{
    explorer e;
    if (explorer_init(&e, m, p) != RCM_OK)
        return RCM_NO_MEMORY;
    int status = explore(&e, bg, m, p, NULL, out, extras_in, log);
    explorer_free(&e);
    return status;
}

/*
 * One thread's share of a batch of n_trials explorations; rcm_run_batch
 * makes one such call per thread. Trial t draws from the stream seeded by
 * the n_words entropy words followed by the words of t (one, or two from
 * 2^32 on); the call works out the entropy words' part of the seed once
 * and finishes each trial's seed with the words of t. Its results go to
 * outs[t] and to extras_in from t * n_extras. Every call of a batch may
 * run at once in its own thread: each takes the next trial from the
 * shared counter *next_trial until the counter passes n_trials. With a
 * non-NULL cut, trial t pops only keys at
 * most its bound, from the escape keys of the trials s < t that have
 * finished (see rcm_cutoff), re-read at every pop; a finished trial
 * publishes its escape key in cut->keys[t]. A bound below 0 cuts a trial
 * before its first pop, so the call stops taking trials at one. The call sets up one
 * explorer, which every trial it runs reuses after emptying it, and frees
 * it before it returns. Returns the number of trials this call ran, or
 * RCM_NO_MEMORY.
 */
int64_t rcm_run_trials(const uint32_t *entropy, int64_t n_words, int64_t n_trials,
                       int64_t *next_trial, rcm_cutoff *cut,
                       const rcm_model *m, const rcm_params *p,
                       rcm_outcome *outs, uint8_t *extras_in)
{
    explorer e;
    if (explorer_init(&e, m, p) != RCM_OK)
        return RCM_NO_MEMORY;
    /* what the words every trial shares fix of its seed, worked out once */
    seed_prefix prefix = seed_prefix_of(entropy, n_words);
    int64_t ran = 0;
    for (;;) {
        int64_t t = __atomic_fetch_add(next_trial, 1, __ATOMIC_RELAXED);
        trial_cutoff c = cutoff_of(cut, t);
        if (t >= n_trials || pop_bound(&c) < 0.0)
            break;
        uint32_t words[2] = {(uint32_t)t, (uint32_t)((uint64_t)t >> 32)};
        uint64_t w[4];
        seed_finish(&prefix, words, words[1] ? 2 : 1, w);
        rcm_stream s;
        if (explore(&e, stream_seed_state(&s, w), m, p, &c, outs + t,
                    extras_in + t * p->n_extras, NULL) != RCM_OK) {
            ran = RCM_NO_MEMORY;
            break;
        }
        ran++;
        if (cut) {
            __atomic_store(cut->keys + t, &outs[t].escape_key, __ATOMIC_RELAXED);
            if (outs[t].escaped)
                __atomic_fetch_add(&cut->version, 1, __ATOMIC_RELEASE);
        }
    }
    explorer_free(&e);
    return ran;
}

/* A batch's arguments and the counters its threads share. */
typedef struct {
    const uint32_t *entropy;
    int64_t n_words, n_trials, next_trial;
    rcm_cutoff *cut;
    const rcm_model *m;
    const rcm_params *p;
    rcm_outcome *outs;
    uint8_t *extras_in;
} batch;

/* One thread's part of a batch, and what its rcm_run_trials call returned. */
typedef struct {
    batch *b;
    pthread_t thread;
    int64_t ran;
} share;

static void *run_share(void *arg)
{
    share *sh = arg;
    batch *b = sh->b;
    sh->ran = rcm_run_trials(b->entropy, b->n_words, b->n_trials, &b->next_trial, b->cut,
                             b->m, b->p, b->outs, b->extras_in);
    return NULL;
}

/*
 * A batch of n_trials explorations in `threads` threads: it starts
 * threads - 1 of them, runs one share in the calling thread and joins
 * the others before it returns, each making one rcm_run_trials call on
 * the batch's shared counters. A thread that cannot start leaves its
 * share to the others. With cut, earlier escapes cut later trials through
 * the n_levels ascending levels (NULL: none; see rcm_cutoff), and the rows
 * end at the first trial whose escape key leaves a bound below 0, after
 * which no trial pops: at one intensity, the first that escaped. Returns
 * the number of rows to keep, that trial + 1 or n_trials, or RCM_NO_MEMORY.
 */
int64_t rcm_run_batch(const uint32_t *entropy, int64_t n_words, int64_t n_trials,
                      int threads, int cut, const double *levels, int64_t n_levels,
                      const rcm_model *m, const rcm_params *p, rcm_outcome *outs,
                      uint8_t *extras_in)
{
    rcm_cutoff shared = {0, NULL, levels, n_levels};
    batch b = {entropy, n_words, n_trials, 0, cut ? &shared : NULL, m, p, outs, extras_in};
    share *shares = malloc((size_t)(threads > 1 ? threads : 1) * sizeof(share));
    if (cut)
        shared.keys = malloc((size_t)(n_trials > 1 ? n_trials : 1) * sizeof(double));
    if (!shares || (cut && !shared.keys)) {
        free(shares);
        free(shared.keys);
        return RCM_NO_MEMORY;
    }
    for (int64_t t = 0; cut && t < n_trials; t++)
        shared.keys[t] = INFINITY;
    int started = 1;
    for (int k = 1; k < threads; k++) {
        shares[started].b = &b;
        if (pthread_create(&shares[started].thread, NULL, run_share, &shares[started]) == 0)
            started++;
    }
    shares[0].b = &b;
    run_share(&shares[0]);
    int failed = shares[0].ran < 0;
    for (int k = 1; k < started; k++) {
        pthread_join(shares[k].thread, NULL);
        failed |= shares[k].ran < 0;
    }
    free(shares);
    int64_t rows = n_trials;
    for (int64_t t = 0; cut && t < n_trials; t++)
        if (bound_below(&shared, shared.keys[t]) < 0.0) {
            rows = t + 1;
            break;
        }
    free(shared.keys);
    return failed ? RCM_NO_MEMORY : rows;
}

void rcm_free(void *p)
{
    free(p);
}
