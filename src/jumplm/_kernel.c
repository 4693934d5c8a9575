/* The event loop of jumplm's simulation, compiled, for a block of paths.
 *
 * Every path repeats the operations of one scalar loop in its order (the
 * reference loop the tests hold in Python), but for an exp whose value
 * only a comparison reads, where a bound settles that comparison (see
 * below_horizon and below_exp): +, -, * and / round as Python floats do,
 * and exp, log and pow are the libm functions behind math.exp, math.log
 * and float **, so each path's end state is that loop's to the bit.
 * Build without -ffast-math and with -ffp-contract=off, which keeps
 * a*b + c from becoming an FMA:
 *
 *     cc -O2 -fPIC -shared -ffp-contract=off -pthread -o kernel.so \
 *         _kernel.c -lm
 *
 * Where the scalar loop would raise (a log of a non-positive number, an
 * overflowing exp, a division by zero), and where a recording path's event
 * buffer cannot grow, the path stops with an end code above END_MAX_EVENTS,
 * and the caller raises a typed error that names the path.
 *
 * jumplm_run_paths takes one job record, which simulate._Job mirrors: a
 * block of paths, the engine's inputs, the jump sampler and the six
 * columns it writes.  A call runs paths first .. count-1 of the block and
 * returns the next first; the caller calls again until that is count.
 *
 * A call runs its paths on up to `threads` threads, the calling one and
 * threads - 1 it starts.  Each thread claims the next path index, one at
 * a time, and runs that path alone: event counts are heavy-tailed, so a
 * fixed split would leave threads idle.  Path i draws from its own
 * stream, so which thread runs it, and when, changes no bit of its
 * results.  A path that records its events writes them into a buffer of
 * its own, which it grows as it runs, so recording paths run on threads
 * too, each in one pass whatever its length; jumplm_take then moves the
 * block's events into one array and frees the buffers.
 *
 * The threads of a call share one budget of EVENT_BUDGET events.  A
 * thread claims no more paths once the call has spent it, and finishes
 * the path it holds, so a call that returns k has written paths first ..
 * k-1 and none after them, k > first.  A long block takes
 * several calls, and Python can act on Ctrl-C between them.
 *
 * jumplm_format_block writes the CSV rows of a recorded block's paths as
 * Python's "%.17g,%.17g\n" % event does, byte for byte, by exact integer
 * arithmetic, for the events its range covers (see format_g17), on
 * threads that claim paths as jumplm_run_paths's do.
 */
#include <math.h>
#include <pthread.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>

/* end codes, mirrored in simulate.py */
enum { END_HORIZON, END_CAP, END_MAX_EVENTS, END_LOG_DOMAIN, END_EXP_RANGE,
       END_ZERO_DIVISION, END_NO_MEMORY };

#define EVENT_BUDGET ((int64_t)1 << 22)
/* the jumps a recording path's buffer first holds; it doubles when full */
#define FIRST_ROOM 64
/* the most jumps a buffer from malloc holds; a longer path maps its own */
#define MALLOC_ROOM 1024
/* the most threads a call runs on, mirrored in simulate.py */
#define MAX_THREADS 64
/* run_path needs little stack; a size below the platform's minimum
 * leaves the default */
#define THREAD_STACK ((size_t)1 << 16)

/* Philox-4x64-10 (Salmon et al., SC'11) as numpy's Philox(key=[k0, k1])
 * draws it: the counter goes up by one before each block of four words,
 * and word w gives the uniform (w >> 11) * 2^-53.  The counter's upper
 * three words stay 0 for the first 2^64 blocks of a path. */
typedef struct { uint64_t ctr, k0, k1, word[4]; int next; } stream;

static double uniform(stream *s)
{
    if (s->next == 4) {
        uint64_t c0 = ++s->ctr, c1 = 0, c2 = 0, c3 = 0, k0 = s->k0, k1 = s->k1;
        for (int r = 0; r < 10; r++) {
            if (r) {
                k0 += 0x9E3779B97F4A7C15ULL;
                k1 += 0xBB67AE8584CAA73BULL;
            }
            unsigned __int128 p0 = (unsigned __int128)0xD2E7470EE14C6C93ULL * c0;
            unsigned __int128 p1 = (unsigned __int128)0xCA5A826395121157ULL * c2;
            c0 = (uint64_t)(p1 >> 64) ^ c1 ^ k0;
            c1 = (uint64_t)p1;
            c2 = (uint64_t)(p0 >> 64) ^ c3 ^ k1;
            c3 = (uint64_t)p0;
        }
        s->word[0] = c0, s->word[1] = c1, s->word[2] = c2, s->word[3] = c3;
        s->next = 0;
    }
    return (double)(s->word[s->next++] >> 11) * 0x1p-53;
}

/* scipy's PPoly evaluation (_ppoly.evaluate at dx = 0, extrapolating) of
 * the cubic pieces on breakpoints x[0..m] with coefficients c[4][m]: the
 * piece i with x[i] <= u < x[i+1], piece 0 below x[0] and piece m-1 from
 * x[m-1] on, then the sum c[3] + c[2] s + c[1] s^2 + c[0] s^3 in scipy's
 * order (its prefactor 1.0 is exact and left out). */
static double ppoly(const double *x, const double *c, int64_t m, double u)
{
    int64_t lo = 0, hi = m - 1;
    while (lo < hi) {
        int64_t mid = (lo + hi + 1) / 2;
        if (u >= x[mid])
            lo = mid;
        else
            hi = mid - 1;
    }
    double s = u - x[lo], res = 0.0, z = 1.0;
    for (int k = 0; k < 4; k++) {
        res = res + c[(3 - k) * m + lo] * z;
        if (k < 3)
            z *= s;
    }
    return res;
}

/* A recording path's buffer: jump k's t and xi at at[2k] and at[2k+1].
 * One of up to MALLOC_ROOM jumps comes from malloc; a longer one is
 * mapped on its own, so that freeing it gives its pages back at once, and
 * long paths neither grow malloc's heap nor raise its mmap threshold. */
typedef struct { int64_t room; double at[]; } record;

static size_t record_size(int64_t room)
{
    return sizeof(record) + 2 * sizeof(double) * (size_t)room;
}

static void drop(record *r)
{
    if (r && r->room > MALLOC_ROOM)
        munmap(r, record_size(r->room));
    else
        free(r);
}

/* Gives *r, full or NULL, twice its room (FIRST_ROOM when NULL); returns
 * 0, leaving *r as it was, when the memory is not to be had. */
static int grow(record **r)
{
    int64_t room = *r ? 2 * (*r)->room : FIRST_ROOM;
    record *g;
    if (room <= MALLOC_ROOM) {
        g = realloc(*r, record_size(room));
        if (!g)
            return 0;
    } else {
        g = mmap(NULL, record_size(room), PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (g == MAP_FAILED)
            return 0;
        memcpy(g->at, (*r)->at, 2 * sizeof(double) * (size_t)(*r)->room);
        drop(*r);
    }
    g->room = room;
    *r = g;
    return 1;
}

/* Paths first .. count-1 of the block start .. start+count-1 of seed
 * key0 (the seed mod 2^64), on up to threads threads; simulate._Job
 * mirrors it field for field. */
typedef struct {
    uint64_t key0;
    int64_t start, first, count;
    double x0, t_end, lam, delta, cap;
    int64_t max_events;
    int32_t explosive, threads;
    /* measure._TableSampler, ppoly's m pieces on breaks with coefs, when
     * m > 0; otherwise measure._RejectionSampler */
    const double *breaks, *coefs;
    int64_t m;
    double eps, inv_pow, beta;
    /* the columns, entry i for path i (see jumplm_run_paths) */
    int8_t *end;
    double *t, *x;
    int64_t *n;
    double *terminal;
    record **events;
} job;

/* Whether v < exp(a), settled without exp where a lies in [-1/2, 0]:
 * there 1 + a <= e^a <= 1 + a + a^2/2, and a guard of 2^-49, 16 ulps near
 * 1, covers the rounding of both bounds and of libm's exp (under 1 ulp).
 * Returns 1 or 0, or -1 where the bounds leave it open. */
static int below_exp(double v, double a)
{
    if (!(a >= -0.5 && a <= 0.0))
        return -1;
    if (v < (1.0 + a) - 0x1p-49)
        return 1;
    if (v >= (1.0 + a + a * a / 2.0) + 0x1p-49)
        return 0;
    return -1;
}

static double jump(const job *j, stream *s)
{
    if (j->m > 0)
        return ppoly(j->breaks, j->coefs, j->m, uniform(s));
    for (;;) {
        /* pow is +inf at u = 0 and on overflow: the scalar rule */
        double xi = j->eps * pow(uniform(s), j->inv_pow);
        if (j->beta == 0.0)
            return xi;
        double v = uniform(s), a = -j->beta * (xi - j->eps);
        int below = below_exp(v, a);
        if (below < 0 ? v < exp(a) : below)
            return xi;
    }
}

/* Whether e_draw < xl (1 - exp(-z)) / delta, the horizon mass as run_path
 * rounds it (xl = x lam, z = delta (t_end - t)), settled without exp: 1
 * where e_draw lies below xl (1 - (1/(1+z) + 2^-49)) / delta.  That is a
 * lower bound of the rounded mass, since exp(-z) <= 1/(1+z), the guard
 * 2^-49 covers the rounding of 1/(1+z) and of libm's exp, and rounding
 * keeps the order of the products and quotients that follow.  Returns 0,
 * and run_path computes exp, where the bound settles nothing or where the
 * inputs leave the range the argument holds on: delta > 0, z in
 * (2^-30, 1e300), and xl and the bound positive normal floats. */
static int below_horizon(double e_draw, double xl, double z, double delta)
{
    if (!(delta > 0.0 && z > 0x1p-30 && z < 1e300 && xl > 0.0
          && isnormal(xl)))
        return 0;
    double bound = xl * (1.0 - (1.0 / (1.0 + z) + 0x1p-49)) / delta;
    return isnormal(bound) && e_draw < bound;
}

/* exp as math.exp: a finite argument with an infinite result raises */
#define EXP_OR_STOP(var, arg)                   \
    do {                                        \
        double a_ = (arg);                      \
        var = exp(a_);                          \
        if (isinf(var) && isfinite(a_))         \
            return END_EXP_RANGE;               \
    } while (0)

/* log as math.log: 0, negative numbers and -inf raise */
#define LOG_OR_STOP(var, arg)                   \
    do {                                        \
        double a_ = (arg);                      \
        if (a_ <= 0.0)                          \
            return END_LOG_DOMAIN;              \
        var = log(a_);                          \
    } while (0)

/* Runs path i of the job and returns its end code.  At an end up to
 * END_MAX_EVENTS it writes the path's t, x and n, and at END_HORIZON its
 * terminal value; where it stops on an error it writes none of them.  A
 * recording path grows events[i], NULL on entry, as its jumps come; the
 * caller drops it, also when the path stops on an error. */
static int run_path(const job *j, int64_t i)
{
    stream s = {0, j->key0, (uint64_t)(j->start + i), {0, 0, 0, 0}, 4};
    record **events = j->events ? &j->events[i] : NULL;
    const double t_end = j->t_end, lam = j->lam, delta = j->delta,
                 cap = j->cap;
    const int64_t max_events = j->max_events;
    const int explosive = j->explosive;
    double t = 0.0, x = j->x0, decay, e_draw, dt, shrink;
    int64_t n = 0, room = 0;
    int end;
    if (delta == 0.0)
        return END_ZERO_DIVISION;
    for (;;) {
        /* log(1 - u) for u in [0, 1) cannot stop, so drawing it first
         * moves no stop and no uniform */
        LOG_OR_STOP(e_draw, 1.0 - uniform(&s));
        e_draw = -e_draw;
        double z = delta * (t_end - t), xl = x * lam;
        if (!below_horizon(e_draw, xl, z, delta)) {
            EXP_OR_STOP(decay, -z);
            double horizon_mass = xl * (1.0 - decay) / delta;
            if (e_draw >= horizon_mass) {
                /* the terminal x * exp(-delta * (t_end - t)) */
                j->terminal[i] = x * decay;
                end = END_HORIZON;
                break;
            }
        }
        if (xl == 0.0)
            return END_ZERO_DIVISION;
        LOG_OR_STOP(dt, 1.0 - e_draw * delta / xl);
        dt = -dt / delta;
        t += dt;
        EXP_OR_STOP(shrink, -delta * dt);
        x *= shrink;
        double xi = jump(j, &s);
        x += xi;
        if (events) {
            if (n == room) {
                if (!grow(events))
                    return END_NO_MEMORY;
                room = (*events)->room;
            }
            (*events)->at[2 * n] = t;
            (*events)->at[2 * n + 1] = xi;
        }
        n += 1;
        if (explosive && (x > cap || !isfinite(x))) {
            end = END_CAP;
            break;
        }
        if (n >= max_events) {
            end = END_MAX_EVENTS;
            break;
        }
    }
    j->t[i] = t, j->x[i] = x, j->n[i] = n;
    return end;
}

/* one call's job, the path to claim and the events spent, shared by its
 * threads */
typedef struct { const job *j; atomic_int_fast64_t next, spent; } block;

/* Claims and runs paths of the job until none is left or the budget is
 * spent; a claimed path always runs to its end. */
static void *run_block(void *arg)
{
    block *b = arg;
    const job *j = b->j;
    while (atomic_load(&b->spent) < EVENT_BUDGET) {
        int64_t i = atomic_fetch_add(&b->next, 1);
        if (i >= j->count)
            break;
        j->t[i] = j->x[i] = j->terminal[i] = NAN;
        j->n[i] = -1;
        j->end[i] = (int8_t)run_path(j, i);
        atomic_fetch_add(&b->spent, 1 + (j->n[i] > 0 ? j->n[i] : 0));
    }
    return NULL;
}

/* Runs work(arg) on the calling thread and on the threads it starts, up
 * to threads in all (at most MAX_THREADS and count), and returns once
 * every one has returned; where a thread cannot be started, on those
 * that were. */
static void on_threads(void *(*work)(void *), void *arg, int64_t count,
                       int threads)
{
    pthread_t helper[MAX_THREADS - 1];
    int started = 0;
    if (threads > count)
        threads = (int)count;
    if (threads > MAX_THREADS)
        threads = MAX_THREADS;
    if (threads > 1) {
        pthread_attr_t attr;
        pthread_attr_init(&attr);
        pthread_attr_setstacksize(&attr, THREAD_STACK);
        while (started < threads - 1
               && pthread_create(&helper[started], &attr, work, arg) == 0)
            started++;
        pthread_attr_destroy(&attr);
    }
    work(arg);
    for (int k = 0; k < started; k++)
        pthread_join(helper[k], NULL);
}

/* Runs paths first .. count-1 of the job; path i draws from
 * Philox(key=[key0, start + i]) and writes entry i of each column: its
 * end code, the loop's last t, x and jump count (NaN and -1 where it
 * stops on an error), and its terminal value (NaN but at END_HORIZON).
 * Unless events is NULL, events[i], NULL on entry, takes the buffer path i
 * records its jumps in, for jumplm_take to move and free.  Returns the
 * next first: count, or less once EVENT_BUDGET events are spent. */
int64_t jumplm_run_paths(const job *j)
{
    block b = {j, j->first, 0};
    on_threads(run_block, &b, j->count - j->first, j->threads);
    int64_t claimed = atomic_load(&b.next);
    return claimed < j->count ? claimed : j->count;
}

/* Moves the jumps that jumplm_run_paths recorded in held[0 .. count-1]
 * to events: path i's n_i = offsets[i+1] - offsets[i] of them as one
 * (2, n_i) array at events + 2 offsets[i], times then sizes.  Then frees
 * every buffer and sets its pointer to NULL.  With events NULL it only
 * frees. */
void jumplm_take(record **held, const int64_t *offsets, int64_t count,
                 double *events)
{
    for (int64_t i = 0; i < count; i++) {
        if (events) {
            int64_t n = offsets[i + 1] - offsets[i];
            double *to = events + 2 * offsets[i];
            for (int64_t k = 0; k < n; k++) {
                to[k] = held[i]->at[2 * k];
                to[n + k] = held[i]->at[2 * k + 1];
            }
        }
        drop(held[i]);
        held[i] = NULL;
    }
}

/* 5^k for k = 0 .. 27, the powers below 2^63 */
static const uint64_t POW5[28] = {
    1ULL, 5ULL, 25ULL, 125ULL, 625ULL, 3125ULL, 15625ULL, 78125ULL,
    390625ULL, 1953125ULL, 9765625ULL, 48828125ULL, 244140625ULL,
    1220703125ULL, 6103515625ULL, 30517578125ULL, 152587890625ULL,
    762939453125ULL, 3814697265625ULL, 19073486328125ULL,
    95367431640625ULL, 476837158203125ULL, 2384185791015625ULL,
    11920928955078125ULL, 59604644775390625ULL, 298023223876953125ULL,
    1490116119384765625ULL, 7450580596923828125ULL};

#define TEN16 10000000000000000ULL

/* the two digits of 0 .. 99 */
static const char PAIRS[] =
    "0001020304050607080910111213141516171819"
    "2021222324252627282930313233343536373839"
    "4041424344454647484950515253545556575859"
    "6061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* the last len decimal digits of v, zero-padded, to d[0 .. len-1] */
static void put_digits(char *d, uint32_t v, int len)
{
    for (; len >= 2; len -= 2, v /= 100)
        memcpy(d + len - 2, PAIRS + 2 * (v % 100), 2);
    if (len)
        d[0] = (char)('0' + v % 10);
}

/* Python's "%.17g" % v, for finite v with 1e-16 <= |v| < 1e17, without
 * snprintf (which follows LC_NUMERIC, and Python's % does not).
 *
 * v = m 2^e exactly, so for the decade k of |v| (10^k <= |v| < 10^(k+1))
 * and p = 16 - k, |v| 10^p = m 5^p 2^(e+p): m 5^p fits 128 bits for
 * p <= 32, and the integer part N of |v| 10^p holds the 17 significant
 * digits of v.  The decade is the one that puts the truncated N in
 * [10^16, 10^17), before rounding; N then rounds half to even on the exact
 * remainder, as Python's correctly rounded conversion does.  %g prints
 * k < -4 (and k = 17, after rounding up) in exponential notation, the rest
 * in fixed notation, and drops trailing zeros.  Writes at most 23
 * characters and returns their number; returns -1 for v outside that
 * range, and for the double 1e-16, which lies below 10^-16 (p = 33). */
static int format_g17(double v, char *out)
{
    double a = fabs(v);
    if (!(a >= 1e-16 && a < 1e17))         /* also NaN */
        return -1;
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    uint64_t m = (bits & ((1ULL << 52) - 1)) | 1ULL << 52;
    int e = (int)(bits >> 52 & 0x7ff) - 1075;
    /* |v| lies in [2^(e+52), 2^(e+53)), so k is floor((e+52) log10 2) or
     * one more; the integer form is that floor for |e+52| <= 1100 */
    int k = ((e + 52) * 78913) >> 18;
    if (k < -16)
        k = -16;
    uint64_t N;
    unsigned __int128 rem, half;
    for (;;) {
        int p = 16 - k;                     /* 0 <= p: |v| < 1e17 */
        if (p > 32)
            return -1;
        unsigned __int128 X = (unsigned __int128)m * POW5[p < 27 ? p : 27];
        if (p > 27)
            X *= POW5[p - 27];
        int s = e + p;                      /* -74 <= s <= 5 */
        if (s >= 0) {
            N = (uint64_t)(X << s);
            rem = half = 0;
        } else {
            N = (uint64_t)(X >> -s);
            rem = X & (((unsigned __int128)1 << -s) - 1);
            half = (unsigned __int128)1 << (-s - 1);
        }
        if (N >= 10 * TEN16)
            k++;
        else if (N < TEN16)
            k--;
        else
            break;
    }
    if (rem > half || (rem == half && rem != 0 && (N & 1))) {
        if (++N == 10 * TEN16) {
            N = TEN16;
            k++;
        }
    }
    char d[17];     /* N < 10^17: nine digits above 10^8, eight below */
    put_digits(d, (uint32_t)(N / 100000000), 9);
    put_digits(d + 9, (uint32_t)(N % 100000000), 8);
    int len = 17;
    while (d[len - 1] == '0')
        len--;
    char *o = out;
    if (bits >> 63)
        *o++ = '-';
    if (k < -4 || k > 16) {
        *o++ = d[0];
        if (len > 1) {
            *o++ = '.';
            memcpy(o, d + 1, len - 1);
            o += len - 1;
        }
        *o++ = 'e';
        *o++ = k < 0 ? '-' : '+';
        *o++ = (char)('0' + (k < 0 ? -k : k) / 10);
        *o++ = (char)('0' + (k < 0 ? -k : k) % 10);
    } else if (k < 0) {
        *o++ = '0';
        *o++ = '.';
        for (int i = -1; i > k; i--)
            *o++ = '0';
        memcpy(o, d, len);
        o += len;
    } else {
        memcpy(o, d, k + 1);
        o += k + 1;
        if (len > k + 1) {
            *o++ = '.';
            memcpy(o, d + k + 1, len - k - 1);
            o += len - k - 1;
        }
    }
    return (int)(o - out);
}

/* The rows "%.17g,%.17g\n" of a recorded path's n events, times in
 * events[0 .. n-1] and sizes in events[n .. 2n-1], into text, which has
 * room for 48 n characters.  Returns the number written, or -1 when a
 * value is outside format_g17's range. */
static int64_t format_rows(const double *events, int64_t n, char *text)
{
    char *o = text;
    for (int64_t i = 0; i < n; i++) {
        int w = format_g17(events[i], o);
        if (w < 0)
            return -1;
        o += w;
        *o++ = ',';
        w = format_g17(events[n + i], o);
        if (w < 0)
            return -1;
        o += w;
        *o++ = '\n';
    }
    return o - text;
}

/* one call's recorded block to format, shared by its threads */
typedef struct {
    const double *events;
    const int64_t *offsets;
    int64_t count;
    char *text;
    int64_t *lengths;
    atomic_int_fast64_t next;           /* path to claim */
} rows_block;

static void *format_paths(void *arg)
{
    rows_block *b = arg;
    for (;;) {
        int64_t i = atomic_fetch_add(&b->next, 1);
        if (i >= b->count)
            break;
        int64_t lo = b->offsets[i];
        b->lengths[i] = format_rows(b->events + 2 * lo,
                                    b->offsets[i + 1] - lo,
                                    b->text + 48 * lo);
    }
    return NULL;
}

/* The rows of paths 0 .. count-1 of a block recorded with exact rooms:
 * path i's offsets[i+1] - offsets[i] events at events + 2 offsets[i], as
 * jumplm_run_paths records them.  Path i's rows go to text + 48
 * offsets[i], and their length, or -1 when a value is outside
 * format_g17's range, to lengths[i].  Runs on up to threads threads (see
 * on_threads). */
void jumplm_format_block(const double *events, const int64_t *offsets,
                         int64_t count, char *text, int64_t *lengths,
                         int threads)
{
    rows_block b = {events, offsets, count, text, lengths, 0};
    on_threads(format_paths, &b, count, threads);
}
