/* A test harness compiled with _kernel.c into one shared library, for
 * what the kernel keeps static: the layout of its job record, which
 * simulate._Job mirrors, and ppoly, the table sampler's evaluation.
 *
 *     cc -O2 -fPIC -shared -ffp-contract=off -pthread -I src/jumplm \
 *         -o harness.so tests/kernel_harness.c -lm
 */
#include <stddef.h>

#include "_kernel.c"

/* every field of job, in its order */
#define JOB_FIELDS                                                       \
    X(key0) X(start) X(first) X(count) X(x0) X(t_end) X(lam) X(delta)   \
    X(cap) X(max_events) X(explosive) X(threads) X(breaks) X(coefs) X(m) \
    X(eps) X(inv_pow) X(beta) X(end) X(t) X(x) X(n) X(terminal)         \
    X(events)

#define X(f) #f,
const char *const harness_fields[] = {JOB_FIELDS};
#undef X
#define X(f) (int64_t)offsetof(job, f),
const int64_t harness_offsets[] = {JOB_FIELDS};
#undef X
const int64_t harness_count = sizeof harness_offsets / sizeof(int64_t);
const int64_t harness_size = sizeof(job);

/* out[i] = ppoly(x, c, m, u[i]) for i < n */
void harness_ppoly(const double *x, const double *c, int64_t m,
                   const double *u, double *out, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = ppoly(x, c, m, u[i]);
}
