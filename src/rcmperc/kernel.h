/*
 * The kernel's interface, declared once. kernel.c includes this file
 * after numpy's distributions.h, which defines bitgen_t, and kernel.py
 * passes its text to cffi, so it holds only what cffi's cdef parses:
 * comments, integer #defines, typedefs and prototypes.
 */

/* The state of a point in an exploration's grid; tests read them from
 * here. A point changes state in place, never leaving the grid: it is
 * generated unattached, joins the cluster when a connection succeeds and
 * becomes covered once its ball has been processed. */
#define RCM_UNATTACHED 0
#define RCM_CLUSTER 1
#define RCM_COVERED 2

/* A grid files its points in cells only once it holds more than this
 * many; until then a query is one pass over its points. Tests read it. */
#define RCM_LINEAR_POINTS 64

/* Model kinds; kernel.py reads them from here. */
#define RCM_GILBERT 0
#define RCM_PENETRABLE 1
#define RCM_SOFT_SPHERE 2
#define RCM_TABULATED 3

/* Entry point status codes. */
#define RCM_OK 0
#define RCM_NO_MEMORY -1
#define RCM_BAD_GRID -2

typedef struct {
    int kind;
    double radius;
    double prob;          /* penetrable */
    double hardness;      /* soft sphere */
    double energy;        /* soft sphere */
    int64_t n_knots;      /* tabulated */
    double knots[];       /* tabulated: n_knots radii, then n_knots values */
} rcm_model;

/* A trial's outcome, declared only here: kernel.OUTCOME and ClusterOutcome read it by name. */
typedef struct {
    _Bool escaped;
    _Bool capped;
    int64_t cluster_size;
    int64_t generated_points;
    int64_t steps;
    double max_norm;
} rcm_outcome;

/* The parameters of a batch of explorations; ball_mean is gamma times the
 * volume of a connection ball, and the n_extras points in `extras` start
 * every run unattached. */
typedef struct {
    int dim;
    double system_size;
    double ball_mean;
    int64_t max_steps;
    int64_t max_generated;
    int64_t n_extras;
    double extras[];
} rcm_params;

/* Connection tests as (frontier id, tested id) pairs, grown by the kernel. */
typedef struct {
    int64_t *ids;
    int64_t n;
    int64_t cap;
} rcm_pair_log;

void rcm_seed_sequence(const uint32_t *entropy, int64_t n_words, uint64_t *state);
double rcm_phi(const rcm_model *m, double r);
int64_t rcm_place(bitgen_t *bg, int dim, const double *center, double radius,
                  const double *covered, int64_t n_covered, int64_t count, double *out);
int64_t rcm_grid_query(double radius, int dim, const double *points, const uint8_t *states,
                       int64_t n, const double *q, int state, int64_t *ids, int *any);
int rcm_explore(bitgen_t *bg, const rcm_model *m, const rcm_params *p,
                rcm_outcome *out, uint8_t *extras_in, rcm_pair_log *log);
int64_t rcm_run_trials(const uint32_t *entropy, int64_t n_words, int64_t n_trials,
                       int64_t *next_trial, int64_t *first_escape,
                       const rcm_model *m, const rcm_params *p,
                       rcm_outcome *outs, uint8_t *extras_in);
int64_t rcm_run_batch(const uint32_t *entropy, int64_t n_words, int64_t n_trials,
                      int threads, int stop_at_escape, const rcm_model *m,
                      const rcm_params *p, rcm_outcome *outs, uint8_t *extras_in);
void rcm_free(void *p);
