/* dklab._kernels: the compiled hot loops of dklab.
 *
 *   advance_verlet(x, y, f, eps, rho, dt, n_steps)
 *       velocity-Verlet steps of the periodic Klein-Gordon chain
 *       x_j'' = eps (x_{j+1} + x_{j-1}) - x_j - rho x_j^3, in place;
 *       the compiled form of dklab.integrators._advance_verlet_numpy.
 *   flow(a, out, c0, c1, c2, g)
 *       out = -i [c0 a + c1 (a_+ + a_-) + c2 (a_++ + a_--) + g |a|^2 a],
 *       the dNLS stencil of dklab.dnls_models.rhs.
 *   rk4(a, out, h, c0, c1, c2, g)
 *       one classical RK4 step of that stencil, the compiled form of
 *       dklab.integrators._rk4_step_numpy.
 *   ansatz(a, adot, X, Xdot, e1, e3, rho, eps)
 *       the two-harmonic ansatz X and its t-derivative Xdot of
 *       dklab.approximation.leading_order, with e1 = e^{it}, e3 = e^{3it}.
 *   energy_density(y, ydot, X, out, eps, rho)
 *       the summand of dklab.approximation.error_energy, which sums it.
 *   sup_abs(v, complex_ok)
 *       max |v_j| of a float64 vector, or of a complex128 one when
 *       complex_ok is true, NaN when an entry is NaN; None when declined.
 *   float_text(values, sep)
 *       sep.join(map(float.__repr__, values.tolist())) of a float64 vector,
 *       byte for byte, for dklab.lattice_core.FloatText and the CSV and
 *       JSON writers; values may also be a tuple of float64 or int64
 *       vectors of one length, whose entries at each index make one
 *       comma-joined CSV row.  None when declined: other buffers, a
 *       non-ASCII sep, or a compiler without unsigned __int128.
 *
 * Every other entry point returns True when it did the work and False,
 * with nothing written, when its arrays are not 1-D C-contiguous native
 * float64 ("d") or complex128 ("Zd") buffers of one length of at least 3
 * sites, or an output is read-only or overlaps another argument; the
 * caller then runs its numpy form.  Every ring dklab builds has 3 or
 * more sites, so the loops need no case for rings whose neighbours
 * coincide.
 *
 * advance_verlet makes two passes over the ring per step, as numpy does
 * (verlet): every site's half-kick and drift, then every site's force and
 * second half-kick.  A ring of a few hundred sites or more, in a call of
 * several steps, advances instead block by block in time tiles of several
 * steps each, so its work stays in L1 (verlet_tiled).  With AVX-512 or
 * AVX2, a tile's step is one pass over vectors of 8 or 4 sites, each
 * half-kicked and drifted in registers ahead of its force, so x, y and f
 * are stored once per step; the width is chosen once, when the module
 * loads.  Elsewhere a tile's step makes the two passes.  A long call on a
 * process that may run on two CPUs splits the ring into two ranges and
 * advances the second on a helper thread, started and joined within the
 * call, with the GIL released, so no thread outlives a call.
 * The inner loops, the stencil's site loop and the loops of sup_abs are
 * written for gcc to vectorise at -O3: |a| (magnitude()) is a chain of
 * selects, and the stencil's site loop is inlined once for each case of
 * the terms numpy skips.  With GCC on x86-64 ELF, the two-pass Verlet loop
 * is also built as AVX-512 and AVX2 clones, the stencil, the RK4 step and
 * the complex sup_abs as AVX-512 and FMA clones, and the float sup_abs as
 * an AVX2 clone, that the dynamic loader picks on CPUs that have them
 * (target_clones); the library is built without -mavx2, so it runs on any
 * x86-64 CPU.
 *
 * Every floating-point operation is the one numpy performs, in the same
 * order, so finite results and the positions of NaNs agree with numpy bit
 * for bit, signs of zeros included, when built without FMA contraction
 * (-ffp-contract=off) and without -ffast-math; vectorising keeps each
 * site's operations as they are.  A NaN's sign can differ: an operation on
 * two NaNs returns one of them by operand order, which C and numpy's loops
 * need not share (rk4 on a = [1e300-1e-323i, -5e-324+5e-324i,
 * -1e-323+1e-323i] with zero coefficients and h = 0.0625 returns 0x7ff8...
 * in all six parts, numpy 0xfff8... in four).  No output byte shows it, as
 * the writers spell every NaN alike.  The
 * build's -fno-math-errno changes no result either: sqrt() never sets
 * errno here, as its argument is at least 1 or NaN.  Real
 * arithmetic (advance_verlet, energy_density, a float sup_abs) is IEEE
 * arithmetic and needs nothing more.  Complex arithmetic follows what
 * numpy's CPU dispatch runs on x86-64 with FMA: its |a| is
 * hi sqrt(fma(q, q, 1)) with q = lo/hi, its complex products are fused
 * (mul()), those by a real scalar or array too, which numpy promotes to
 * s + 0i (scale()), and a**3 is the unfused product (cube()).  Those depend
 * on the CPU and on the numpy build, so dklab._native compares every
 * complex entry point with numpy on a probe vector before any caller uses
 * one, and callers run numpy when the probe fails.  fma() comes from libm
 * (-lm), which rounds it once on every CPU.  Nothing here writes to stdout
 * or stderr.
 *
 * float_text is integer arithmetic only, so it agrees with Python on every
 * CPU and needs no probe: the shortest decimal that rounds back to each
 * double, the closest such one, ties to even (Ryu: Adams, "Ryu: fast
 * float-to-string conversion", PLDI 2018, in unsigned __int128), laid out
 * as repr lays it out (float_repr).  Its power-of-five tables are computed
 * exactly, with multi-word integers, when the module loads.  It takes
 * 38-47 ns per float (in chunks of 2048, on the 2-vCPU x86-64 host of the
 * Verlet timings), against 550-780 ns for float.__repr__ and join.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <stdint.h>
#include <string.h>

/* The AVX-512 and AVX2 clones of the two-pass Verlet loop, the AVX2 clone of
 * largest_abs() and the AVX-512 and FMA clones of the complex loops are
 * picked by the dynamic loader (an ifunc) on the CPU that runs them, so the
 * library suits every x86-64 machine.  The complex loops' second clone is
 * "fma", not "avx2", as gcc's avx2 target does not enable FMA; the AVX-512
 * and FMA clones compute fma() in one instruction where the plain loop
 * calls libm's, which rounds the same.  gcc vectorises the loops of |a|
 * (the stencil's site loop and the complex sup_abs) only in the AVX-512
 * clones: it divides and takes square roots under magnitude()'s selects
 * only with masked lanes, since either may trap; the FMA clone runs them
 * one site at a time.  The same builds carry the AVX-512 and AVX2 forms of
 * the fused tile step (VECTOR_TILES), of which PyInit__kernels keeps the
 * one this CPU runs.  Other compilers and platforms build the plain loops. */
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && defined(__ELF__)
#define CLONES(...) __attribute__((target_clones(__VA_ARGS__, "default")))
#endif
#ifdef CLONES
#define VECTOR_TILES
#else
#define CLONES(...)
#endif

typedef struct {
    double re, im;
} cplx;

static inline cplx
add(cplx u, cplx v)
{
    cplx r = {u.re + v.re, u.im + v.im};
    return r;
}

/* numpy's u * v of complex arrays, or of a complex array and a complex
 * scalar: its SIMD loop fuses each part's second product into the first */
static inline cplx
mul(cplx u, cplx v)
{
    cplx r = {fma(u.re, v.re, -(u.im * v.im)), fma(u.re, v.im, u.im * v.re)};
    return r;
}

/* numpy's s * v for a real scalar or array s, which it promotes to s + 0i */
static inline cplx
scale(double s, cplx v)
{
    const cplx u = {s, 0.0};
    return mul(u, v);
}

/* numpy's a**3: the unfused products a (a a), and +0 + 0i for a zero a */
static inline cplx
cube(cplx a)
{
    cplx s = {a.re * a.re - a.im * a.im, a.re * a.im + a.im * a.re};
    cplx r = {a.re * s.re - a.im * s.im, a.re * s.im + a.im * s.re};

    if (a.re == 0.0 && a.im == 0.0)
        r.re = r.im = 0.0;
    return r;
}

/* numpy's |v|: inf when a part is infinite, else NaN when a part is NaN,
 * else hi sqrt(1 + q^2) with q = lo/hi (0 when hi is 0) and 1 + q^2 fused.
 * Written as selects, without branches, so that a loop of it vectorises;
 * sqrt's argument is at least 1 or NaN, so it never sets errno. */
static inline double
magnitude(cplx v)
{
    const double re = fabs(v.re), im = fabs(v.im);
    const double hi = re > im ? re : im, lo = re > im ? im : re;
    const double q = lo / (hi == 0.0 ? 1.0 : hi), m = hi * sqrt(fma(q, q, 1.0));

    return re == INFINITY || im == INFINITY ? INFINITY : re != re || im != im ? NAN : m;
}

/* -- argument handling --------------------------------------------------- */

#define MAX_ARRAYS 6

/* Take a C-contiguous 1-D buffer of the given struct format from obj.
 * Returns 1 on success, 0 (no exception set) when obj is not such a
 * buffer, -1 on any other error. */
static int
vector(PyObject *obj, const char *format, int writable, Py_buffer *view)
{
    int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | (writable ? PyBUF_WRITABLE : 0);

    if (PyObject_GetBuffer(obj, view, flags) < 0) {
        if (PyErr_ExceptionMatches(PyExc_BufferError)
            || PyErr_ExceptionMatches(PyExc_ValueError)
            || PyErr_ExceptionMatches(PyExc_TypeError)) {
            PyErr_Clear();
            return 0;
        }
        return -1;
    }
    if (view->ndim != 1 || strcmp(view->format, format) != 0) {
        PyBuffer_Release(view);
        return 0;
    }
    return 1;
}

static void
release(Py_buffer *views, int count)
{
    for (int i = 0; i < count; i++)
        PyBuffer_Release(&views[i]);
}

static int
overlap(const Py_buffer *u, const Py_buffer *v)
{
    uintptr_t a = (uintptr_t)u->buf, b = (uintptr_t)v->buf;

    return a < b + (uintptr_t)v->len && b < a + (uintptr_t)u->len;
}

/* Take args[0..count-1] as vectors of one length, at least 3.  formats[i]
 * names the struct format of argument i; a leading 'w' marks an output,
 * which must be writeable and overlap no other argument.  Returns 1 with
 * every view held, 0 (nothing held, no exception) when the arrays do not
 * suit, -1 on error. */
static int
vectors(PyObject *const *args, int count, const char *const *formats,
        Py_buffer *views)
{
    for (int i = 0; i < count; i++) {
        int writable = formats[i][0] == 'w';
        int got = vector(args[i], formats[i] + writable, writable, &views[i]);

        if (got == 1 && (views[i].shape[0] != views[0].shape[0]
                         || views[i].shape[0] < 3)) {
            PyBuffer_Release(&views[i]);
            got = 0;
        }
        if (got != 1) {
            release(views, i);
            return got;
        }
    }
    for (int i = 0; i < count; i++) {
        if (formats[i][0] != 'w')
            continue;
        for (int j = 0; j < count; j++) {
            if (j != i && overlap(&views[i], &views[j])) {
                release(views, count);
                return 0;
            }
        }
    }
    return 1;
}

/* Check the argument count; -1 with TypeError set when it is wrong. */
static int
arity(Py_ssize_t nargs, Py_ssize_t expected, const char *name)
{
    if (nargs == expected)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s expects %zd arguments, got %zd",
                 name, expected, nargs);
    return -1;
}

/* Convert count Python numbers to doubles; -1 with an exception set when
 * one is not a number. */
static int
doubles(PyObject *const *args, int count, double *out)
{
    for (int i = 0; i < count; i++) {
        out[i] = PyFloat_AsDouble(args[i]);
        if (out[i] == -1.0 && PyErr_Occurred())
            return -1;
    }
    return 0;
}

/* The value of a kernel whose arrays did not suit (got == 0) or that
 * failed (got < 0). */
static PyObject *
declined(int got)
{
    if (got < 0)
        return NULL;
    Py_RETURN_FALSE;
}

/* -- Verlet ----------------------------------------------------------------- */

static inline double
force(double left, double centre, double right, double eps, double rho)
{
    /* numpy: f = (neighbor_sum(x) * eps - x) - x * x * x * rho, where
     * neighbor_sum(x)[j] = x[j+1] + x[j-1] */
    return ((right + left) * eps - centre) - ((centre * centre) * centre) * rho;
}

/* First half-kick and drift of sites lo..hi-1. */
static inline void
kick_drift(double *restrict x, double *restrict y, const double *restrict f,
           Py_ssize_t lo, Py_ssize_t hi, double half, double dt)
{
    for (Py_ssize_t i = lo; i < hi; i++) {
        y[i] += half * f[i];
        x[i] += dt * y[i];
    }
}

/* Force and second half-kick of the interior sites lo..hi-1 (0 < lo,
 * hi < n), whose neighbours have drifted. */
static inline void
force_kick(const double *restrict x, double *restrict y, double *restrict f,
           Py_ssize_t lo, Py_ssize_t hi, double eps, double rho, double half)
{
    for (Py_ssize_t i = lo; i < hi; i++) {
        f[i] = force(x[i - 1], x[i], x[i + 1], eps, rho);
        y[i] += half * f[i];
    }
}

/* Two passes over the ring per step, as in _advance_verlet_numpy: every
 * site's half-kick and drift, then every site's force and second
 * half-kick, sites 0 and n-1 with their periodic neighbours. */
static CLONES("avx512f", "avx2") void
verlet(double *x, double *y, double *f, Py_ssize_t n, double eps, double rho,
       double dt, long long n_steps)
{
    const double half = 0.5 * dt;

    for (long long step = 0; step < n_steps; step++) {
        kick_drift(x, y, f, 0, n, half, dt);
        f[0] = force(x[n - 1], x[0], x[1], eps, rho);
        y[0] += half * f[0];
        force_kick(x, y, f, 1, n - 1, eps, rho, half);
        f[n - 1] = force(x[n - 2], x[n - 1], x[0], eps, rho);
        y[n - 1] += half * f[n - 1];
    }
}

/* Calls of TILED_STEPS steps or more on rings of TILED_FROM sites or more,
 * and calls of WIDE_STEPS steps or more on rings of WIDE_FROM sites or
 * more, advance in time tiles of up to HALO steps, of equal length.  Each
 * block of BLOCK sites is copied, with HALO ghost sites on either side,
 * into a buffer that stays in L1 (26 KiB) and advanced there; after s
 * steps its sites s..span-s-1 are those of the whole ring, so after the
 * tile its centre is written back.  The blocks run in ring order and write
 * back as they go: block b takes its left halo from the original end of
 * block b-1, carried forward, and a block whose right halo wraps takes the
 * ring's head, saved before the first block.  Calls of THREADED_WORK
 * site-steps or more split each tile's blocks into two ranges of about n/2
 * sites, each with its own carried halo and head, the second range run by
 * a helper thread (see tiles).  Every site sees the operations of the
 * two-pass loop on the same operands, so the result is the same to the
 * bit.  The AVX-512 and AVX2 clones step a tile in one pass per step
 * (fused_step_8, fused_step_4), the plain build in two (two_pass_step).
 *
 * The numbers below were measured on a 2-vCPU x86-64 host with AVX-512
 * and a 48 KiB L1d (gcc 12.2), timing interleaved calls of builds that
 * always run two passes, one-thread tiles or two-thread tiles (the 8-wide
 * fused pass).  Blocks of 512 to 1536 sites with halos of 32 or 64 ran
 * within 5% of each other, halos of 16 5% slower.  The two-pass loop runs
 * a site-step in 0.6-0.8 ns up to 2049 sites, where x, y and f fit L1, and
 * in 1.1-1.3 ns from 2305 sites up, where they outgrow it.  There the
 * tiles win from 2 steps per call (0.96-1.10 ns; 0.8 ns in 3-step calls,
 * 0.41-0.45 ns in 100-step calls).  On rings of 513 to 2049 sites the
 * tiles lose up to 4 steps per call (1.0-1.5 ns against 0.8-0.9), tie at
 * 8 to 12 and win beyond (0.49-0.59 ns against 0.63-0.65 in 100-step
 * calls).  At 257 sites they win by under 10% in 1000-step calls and at
 * 129 sites they lose in calls of every length, so such rings keep two
 * passes.  Each tile copies its blocks in and out, so 1-step calls take
 * 1.6-2.5 ns per site-step in tiles, slower than two passes at every ring
 * size.  Starting, handing halos to and joining the
 * helper costs about 30-40 us per call: it loses below about 2e5
 * site-steps per call and wins by 25-35% at 2^19 = 524288 (8193 sites in
 * 64-step calls: 175-209 us against 262-360), except on rings of 513
 * sites, whose tiles hand over halos most often per site (225-271 us
 * against 260-263).  16385 sites in 1000-step calls take 4.2-4.4 ms on two
 * threads, 7.8-8.2 ms on one. */
#define BLOCK 1024
#define HALO 32
#define TILED_FROM 512
#define TILED_STEPS 12
#define WIDE_FROM 2304
#define WIDE_STEPS 2
#define THREADED_WORK 524288
_Static_assert(TILED_FROM >= 2 * HALO, "each of two ranges must span a halo");
/* pause instructions a range spins through, waiting for the other range,
 * before it yields its CPU at every further check */
#define SPINS 4096
/* A vector of the widest width on either side of a block buffer, which a
 * tile step's first and last vectors read as neighbours; zeros, as is every
 * buffer site until a block is copied in. */
#define PAD 8

/* One step of a tile: the sites lo..hi-1 of a block buffer take their new
 * x, y and f, from sites lo-1..hi whose x, y and f are current; sites
 * outside lo..hi-1 may take values that are thrown away. */
typedef void tile_step(double *x, double *y, double *f, Py_ssize_t lo, Py_ssize_t hi,
                       double eps, double rho, double half, double dt);

/* The two passes of verlet over the sites of a tile step. */
static void
two_pass_step(double *x, double *y, double *f, Py_ssize_t lo, Py_ssize_t hi, double eps,
              double rho, double half, double dt)
{
    kick_drift(x, y, f, lo - 1, hi + 1, half, dt);
    force_kick(x, y, f, lo, hi, eps, rho, half);
}

#ifdef VECTOR_TILES
/* The half-kick and drift of the W sites from i, into registers xv and yv. */
#define KICK_DRIFT(xv, yv, i)                                                    \
    do {                                                                         \
        vec f_;                                                                  \
        memcpy(&(xv), x + (i), sizeof(vec));                                     \
        memcpy(&(yv), y + (i), sizeof(vec));                                     \
        memcpy(&f_, f + (i), sizeof(vec));                                       \
        yv += half * f_;                                                         \
        xv += dt * yv;                                                           \
    } while (0)

/* A tile step in one pass over vectors of W sites, from the vector that
 * holds site lo, W-aligned, up to the one that holds site hi-1.  Each
 * vector is half-kicked and drifted in registers one vector ahead of its
 * force, whose neighbours x_{j-1} and x_{j+1} are lanes of the vectors on
 * either side, shuffled in; then x, y and f are stored once.  Lanes are
 * sites, so each site sees the operations of two_pass_step in the same
 * order.  iota lists the lanes 0..W-1. */
#define FUSED_STEP(name, isa, W, ...)                                            \
    static __attribute__((target(isa))) void                                     \
    name(double *x, double *y, double *f, Py_ssize_t lo, Py_ssize_t hi,          \
         double eps, double rho, double half, double dt)                         \
    {                                                                            \
        typedef double vec __attribute__((vector_size(8 * W)));                  \
        typedef int64_t lanes __attribute__((vector_size(8 * W)));               \
        const lanes iota = {__VA_ARGS__};                                        \
        vec x_prev, y_prev, x_cur, y_cur, x_next, y_next;                        \
        Py_ssize_t i = lo / W * W;                                               \
                                                                                 \
        KICK_DRIFT(x_prev, y_prev, i - W);                                       \
        KICK_DRIFT(x_cur, y_cur, i);                                             \
        for (; i < hi; i += W) {                                                 \
            KICK_DRIFT(x_next, y_next, i + W);                                   \
            const vec left = __builtin_shuffle(x_prev, x_cur, iota + (W - 1));   \
            const vec right = __builtin_shuffle(x_cur, x_next, iota + 1);        \
            const vec f_cur = ((right + left) * eps - x_cur)                     \
                              - ((x_cur * x_cur) * x_cur) * rho;                 \
            y_cur += half * f_cur;                                               \
            memcpy(x + i, &x_cur, sizeof(vec));                                  \
            memcpy(y + i, &y_cur, sizeof(vec));                                  \
            memcpy(f + i, &f_cur, sizeof(vec));                                  \
            x_prev = x_cur;                                                      \
            x_cur = x_next;                                                      \
            y_cur = y_next;                                                      \
        }                                                                        \
    }

FUSED_STEP(fused_step_8, "avx512f", 8, 0, 1, 2, 3, 4, 5, 6, 7)
FUSED_STEP(fused_step_4, "avx2", 4, 0, 1, 2, 3)
#endif

/* The tile step of this CPU, set when the module loads: the fused pass of
 * its vector width, or two passes. */
static tile_step *tile_step_of_cpu = two_pass_step;

/* The time tiles of one call, advanced as one range of sites or as two,
 * the second on a helper thread.  Range r is sites bound[r]..bound[r+1]-1,
 * of HALO sites or more; its halos in tile k are halo[k % 2][r]: the HALO
 * sites before the range (side 0) and after it (side 1), wrapped, at the
 * tile's start.  The first tile's are saved before any range runs; after
 * tile k each range publishes its first and last HALO sites as the halos
 * of its neighbours in tile k + 1 and then counts the tile in done[r],
 * which they wait for before they begin tile k + 1.  A range reads the ring
 * only inside itself, and it publishes the halos of tile k + 2 only after
 * its neighbours have finished tile k + 1, whose halos share their parity,
 * so two parities suffice. */
typedef struct {
    double *ring[3];
    Py_ssize_t n, bound[3];
    int ranges;
    double eps, rho, dt;
    long long n_steps;
    double halo[2][2][2][3][HALO];
    long long done[2];
} tiles;

/* The HALO sites of each ring array from site from (-n <= from < 2n),
 * wrapped, into out. */
static void
save_halo(double (*out)[HALO], double *const *ring, Py_ssize_t n, Py_ssize_t from)
{
    from = from < 0 ? from + n : from >= n ? from - n : from;
    const Py_ssize_t first = n - from < HALO ? n - from : HALO;

    for (int a = 0; a < 3; a++) {
        memcpy(out[a], ring[a] + from, first * sizeof(double));
        memcpy(out[a] + first, ring[a], (HALO - first) * sizeof(double));
    }
}

/* A hint to the CPU that this thread spins. */
static inline void
relax(void)
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

/* Wait until every other range has finished tile k. */
static void
await_tile(tiles *t, int r, long long k)
{
    for (int q = 0; q < t->ranges; q++) {
        if (q == r)
            continue;
        for (unsigned spins = 0; __atomic_load_n(&t->done[q], __ATOMIC_ACQUIRE) < k; spins++) {
            if (spins < SPINS)
                relax();
            else
                sched_yield();
        }
    }
}

/* Advance range r of t through every tile of the call. */
static void
advance_range(tiles *t, int r)
{
    /* site k of a block's span is b[a][PAD + k]; sites past a short block's
     * span keep what they held, which its last vectors read */
    _Alignas(64) double b[3][PAD + BLOCK + 2 * HALO + PAD] = {{0.0}};
    double carry[3][HALO];
    double *const *ring = t->ring;
    const Py_ssize_t start = t->bound[r], end = t->bound[r + 1];
    const double eps = t->eps, rho = t->rho, dt = t->dt, half = 0.5 * dt;
    const size_t halo_bytes = HALO * sizeof(double);
    tile_step *const step = tile_step_of_cpu;
    long long k = 0;

    for (long long left = t->n_steps, steps; left > 0; left -= steps, k++) {
        /* tiles of equal length, so that no short tile trails */
        steps = left / ((left + HALO - 1) / HALO);
        double (*const halo)[3][HALO] = t->halo[k % 2][r];

        await_tile(t, r, k);
        memcpy(carry, halo[0], sizeof carry);
        for (Py_ssize_t lo = start; lo < end; lo += BLOCK) {
            const Py_ssize_t len = end - lo < BLOCK ? end - lo : BLOCK;
            /* right-halo sites inside the range; the rest are its halo */
            const Py_ssize_t ahead = end - lo - len < HALO ? end - lo - len : HALO;
            const Py_ssize_t span = len + 2 * HALO;

            for (int a = 0; a < 3; a++) {
                double *const buf = b[a] + PAD;

                memcpy(buf, carry[a], halo_bytes);
                memcpy(buf + HALO, ring[a] + lo, (len + ahead) * sizeof(double));
                memcpy(buf + HALO + len + ahead, halo[1][a], (HALO - ahead) * sizeof(double));
                /* this block's last HALO sites: the next block's left halo */
                memcpy(carry[a], buf + len, halo_bytes);
            }
            for (Py_ssize_t s = 1; s <= steps; s++)
                step(b[0] + PAD, b[1] + PAD, b[2] + PAD, s, span - s, eps, rho, half, dt);
            for (int a = 0; a < 3; a++)
                memcpy(ring[a] + lo, b[a] + PAD + HALO, len * sizeof(double));
        }
        if (left > steps) {
            const int before = r == 0 ? t->ranges - 1 : r - 1;
            const int after = r == t->ranges - 1 ? 0 : r + 1;

            save_halo(t->halo[(k + 1) % 2][before][1], ring, t->n, start);
            save_halo(t->halo[(k + 1) % 2][after][0], ring, t->n, end - HALO);
            __atomic_store_n(&t->done[r], k + 1, __ATOMIC_RELEASE);
        }
    }
}

static void *
advance_second_range(void *t)
{
    advance_range(t, 1);
    return NULL;
}

/* Split t into the given number of ranges (1 or 2) and save their halos
 * for the first tile. */
static void
split(tiles *t, int ranges)
{
    t->ranges = ranges;
    t->bound[1] = t->n / ranges;
    t->bound[ranges] = t->n;
    for (int r = 0; r < ranges; r++) {
        t->done[r] = 0;
        save_halo(t->halo[0][r][0], t->ring, t->n, t->bound[r] - HALO);
        save_halo(t->halo[0][r][1], t->ring, t->n, t->bound[r + 1]);
    }
}

/* Whether this process may run on two CPUs or more; never on systems
 * without Linux's sched_getaffinity. */
static int
two_cpus(void)
{
#ifdef __linux__
    cpu_set_t cpus;

    return sched_getaffinity(0, sizeof cpus, &cpus) == 0 && CPU_COUNT(&cpus) >= 2;
#else
    return 0;
#endif
}

/* Advance in time tiles, on a helper thread too when threaded is true and
 * the process may run on two CPUs.  The helper blocks every signal, so that
 * they reach the caller's thread, and is joined before return; when it
 * cannot start, the caller's thread advances the whole ring. */
static void
verlet_tiled(double *x, double *y, double *f, Py_ssize_t n, double eps, double rho,
             double dt, long long n_steps, int threaded)
{
    tiles t = {.ring = {x, y, f}, .n = n, .eps = eps, .rho = rho, .dt = dt,
               .n_steps = n_steps};
    pthread_t helper;
    sigset_t all, old;

    if (threaded && two_cpus()) {
        split(&t, 2);
        sigfillset(&all);
        pthread_sigmask(SIG_SETMASK, &all, &old);
        threaded = pthread_create(&helper, NULL, advance_second_range, &t) == 0;
        pthread_sigmask(SIG_SETMASK, &old, NULL);
        if (threaded) {
            advance_range(&t, 0);
            pthread_join(helper, NULL);
            return;
        }
    }
    split(&t, 1);
    advance_range(&t, 0);
}

static PyObject *
advance_verlet(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    static const char *const formats[] = {"wd", "wd", "wd"};
    Py_buffer v[MAX_ARRAYS];
    double p[3];
    long long n_steps;
    Py_ssize_t n;
    int got;

    if (arity(nargs, 7, "advance_verlet") < 0 || doubles(args + 3, 3, p) < 0)
        return NULL;
    n_steps = PyLong_AsLongLong(args[6]);
    if (n_steps == -1 && PyErr_Occurred())
        return NULL;
    got = vectors(args, 3, formats, v);
    if (got <= 0)
        return declined(got);
    n = v[0].shape[0];
    if (n < TILED_FROM || n_steps < (n < WIDE_FROM ? TILED_STEPS : WIDE_STEPS)) {
        verlet(v[0].buf, v[1].buf, v[2].buf, n, p[0], p[1], p[2], n_steps);
    }
    else {
        Py_BEGIN_ALLOW_THREADS
        verlet_tiled(v[0].buf, v[1].buf, v[2].buf, n, p[0], p[1], p[2], n_steps,
                     n_steps >= (THREADED_WORK + n - 1) / n);
        Py_END_ALLOW_THREADS
    }
    release(v, 3);
    Py_RETURN_TRUE;
}

/* -- dNLS stencil and RK4 step ------------------------------------------- */

/* The stencil at site j, whose neighbours j-2, j-1, j+1 and j+2 on the
 * ring are dn2, dn1, up1 and up2; numpy's _flow skips the c0 term unless
 * with_c0 and the c2 term unless with_c2, the coefficients that are not
 * zero. */
static inline cplx
stencil_site(const cplx *a, Py_ssize_t j, Py_ssize_t dn2, Py_ssize_t dn1, Py_ssize_t up1,
             Py_ssize_t up2, const double *c, int with_c0, int with_c2)
{
    const cplx minus_i = {-0.0, -1.0}; /* numpy's -1j */
    /* neighbor_sum(a, k) is a[j+k] + a[j-k] on the ring */
    cplx grad = scale(c[1], add(a[up1], a[dn1]));
    double m = magnitude(a[j]);

    if (with_c0)
        grad = add(grad, scale(c[0], a[j]));
    if (with_c2)
        grad = add(grad, scale(c[2], add(a[up2], a[dn2])));
    /* g * |a|**2 is a real array, promoted to complex to multiply a */
    grad = add(grad, scale(c[3] * (m * m), a[j]));
    return mul(minus_i, grad);
}

/* The stencil of every site.  Only sites 0, 1, n-2 and n-1 wrap their
 * neighbours (site 1 twice when n is 3).  Inlined with constant flags, so
 * that the site loop has no branch and vectorises. */
static inline __attribute__((always_inline)) void
stencil_sites(const cplx *a, cplx *out, Py_ssize_t n, const double *c, int with_c0,
              int with_c2)
{
    for (Py_ssize_t j = 2; j < n - 2; j++)
        out[j] = stencil_site(a, j, j - 2, j - 1, j + 1, j + 2, c, with_c0, with_c2);
    for (Py_ssize_t e = 0; e < 4; e++) {
        const Py_ssize_t j = e < 2 ? e : n - 4 + e;

        out[j] = stencil_site(a, j, (j - 2 + n) % n, (j - 1 + n) % n, (j + 1) % n,
                              (j + 2) % n, c, with_c0, with_c2);
    }
}

/* The loop of flow, and each stage of rk4. */
static CLONES("avx512f", "fma") void
stencil(const cplx *a, cplx *out, Py_ssize_t n, const double *coefficients)
{
    /* a copy, which out cannot alias, so the loop need not reload it */
    const double c[4] = {coefficients[0], coefficients[1], coefficients[2],
                         coefficients[3]};

    if (c[0] != 0.0 && c[2] != 0.0)
        stencil_sites(a, out, n, c, 1, 1);
    else if (c[0] != 0.0)
        stencil_sites(a, out, n, c, 1, 0);
    else if (c[2] != 0.0)
        stencil_sites(a, out, n, c, 0, 1);
    else
        stencil_sites(a, out, n, c, 0, 0);
}

static PyObject *
flow(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    static const char *const formats[] = {"Zd", "wZd"};
    Py_buffer v[MAX_ARRAYS];
    double c[4];
    int got;

    if (arity(nargs, 6, "flow") < 0 || doubles(args + 2, 4, c) < 0)
        return NULL;
    got = vectors(args, 2, formats, v);
    if (got <= 0)
        return declined(got);

    stencil(v[0].buf, v[1].buf, v[0].shape[0], c);
    release(v, 2);
    Py_RETURN_TRUE;
}

/* numpy: k1 = f(a), k2 = f(a + (0.5*h)*k1), k3 = f(a + (0.5*h)*k2),
 * k4 = f(a + h*k3), out = a + (h/6.0)*(k1 + 2.0*k2 + 2.0*k3 + k4).  out
 * holds the running sum of the k's, s a stage and k its stencil. */
static CLONES("avx512f", "fma") void
rk4_step(const cplx *a, cplx *out, cplx *s, cplx *k, Py_ssize_t n, double h,
         const double *c)
{
    const double half = 0.5 * h, sixth = h / 6.0;

    stencil(a, out, n, c);
    for (Py_ssize_t j = 0; j < n; j++)
        s[j] = add(a[j], scale(half, out[j]));
    for (int stage = 2; stage <= 3; stage++) {
        stencil(s, k, n, c);
        for (Py_ssize_t j = 0; j < n; j++) {
            out[j] = add(out[j], scale(2.0, k[j]));
            s[j] = add(a[j], scale(stage == 2 ? half : h, k[j]));
        }
    }
    stencil(s, k, n, c);
    for (Py_ssize_t j = 0; j < n; j++)
        out[j] = add(a[j], scale(sixth, add(out[j], k[j])));
}

static PyObject *
rk4(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    static const char *const formats[] = {"Zd", "wZd"};
    Py_buffer v[MAX_ARRAYS];
    double p[5];
    int got;

    if (arity(nargs, 7, "rk4") < 0 || doubles(args + 2, 5, p) < 0)
        return NULL;
    got = vectors(args, 2, formats, v);
    if (got <= 0)
        return declined(got);

    const Py_ssize_t n = v[0].shape[0];
    cplx *scratch = PyMem_New(cplx, 2 * n);

    if (scratch == NULL) {
        release(v, 2);
        return PyErr_NoMemory();
    }
    rk4_step(v[0].buf, v[1].buf, scratch, scratch + n, n, p[0], p + 1);
    PyMem_Free(scratch);
    release(v, 2);
    Py_RETURN_TRUE;
}

/* -- ansatz, error energy and the blow-up guard ------------------------- */

/* Convert count Python numbers to complex values; -1 with an exception set
 * when one is not a number. */
static int
complexes(PyObject *const *args, int count, cplx *out)
{
    for (int i = 0; i < count; i++) {
        out[i].re = PyComplex_RealAsDouble(args[i]);
        if (out[i].re == -1.0 && PyErr_Occurred())
            return -1;
        out[i].im = PyComplex_ImagAsDouble(args[i]);
        if (out[i].im == -1.0 && PyErr_Occurred())
            return -1;
    }
    return 0;
}

/* The loop of ansatz. */
static CLONES("fma") void
two_harmonics(const cplx *a, const cplx *adot, double *x, double *xdot, Py_ssize_t n,
              cplx e1, cplx e3, double rho, double eps)
{
    /* 1j, eps and 3.0 as numpy's complex factors; 0.25 * rho is a float */
    const cplx i1 = {0.0, 1.0}, eps1 = {eps, 0.0}, three = {3.0, 0.0};
    const double quarter_rho = 0.25 * rho;

    for (Py_ssize_t j = 0; j < n; j++) {
        /* numpy: x = 2.0 * real(a * e1) + 0.25 * rho * real(a**3 * e3) */
        cplx a3 = cube(a[j]);

        x[j] = 2.0 * mul(a[j], e1).re + quarter_rho * mul(a3, e3).re;
        /* numpy: xdot = 2.0 * real((1j * a + eps * adot) * e1)
         *   + 0.25 * rho * real(3.0 * (1j * a**3 + eps * a**2 * adot) * e3) */
        cplx g1 = add(mul(i1, a[j]), mul(eps1, adot[j]));
        cplx g3 = mul(three, add(mul(i1, a3), mul(mul(eps1, mul(a[j], a[j])), adot[j])));

        xdot[j] = 2.0 * mul(g1, e1).re + quarter_rho * mul(g3, e3).re;
    }
}

static PyObject *
ansatz(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    static const char *const formats[] = {"Zd", "Zd", "wd", "wd"};
    Py_buffer v[MAX_ARRAYS];
    cplx e[2];
    double p[2];
    int got;

    if (arity(nargs, 8, "ansatz") < 0 || complexes(args + 4, 2, e) < 0
        || doubles(args + 6, 2, p) < 0)
        return NULL;
    got = vectors(args, 4, formats, v);
    if (got <= 0)
        return declined(got);

    two_harmonics(v[0].buf, v[1].buf, v[2].buf, v[3].buf, v[0].shape[0], e[0], e[1],
                  p[0], p[1]);
    release(v, 4);
    Py_RETURN_TRUE;
}

static PyObject *
energy_density(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    static const char *const formats[] = {"d", "d", "d", "wd"};
    Py_buffer v[MAX_ARRAYS];
    double p[2];
    int got;

    if (arity(nargs, 6, "energy_density") < 0 || doubles(args + 4, 2, p) < 0)
        return NULL;
    got = vectors(args, 4, formats, v);
    if (got <= 0)
        return declined(got);

    const double *y = v[0].buf, *ydot = v[1].buf, *x = v[2].buf;
    double *out = v[3].buf;
    const Py_ssize_t n = v[0].shape[0];
    const double two_eps = 2.0 * p[0], three_rho = 3.0 * p[1];

    for (Py_ssize_t j = 0; j < n; j++) {
        /* numpy: ydot*ydot + y*y + 3.0*rho*X*X*y*y
         *        - 2.0*epsilon*y*np.roll(y, -1) */
        double next = y[j + 1 < n ? j + 1 : 0];

        out[j] = ((ydot[j] * ydot[j] + y[j] * y[j])
                  + (((three_rho * x[j]) * x[j]) * y[j]) * y[j])
                 - (two_eps * y[j]) * next;
    }
    release(v, 4);
    Py_RETURN_TRUE;
}

/* The larger of m and v, or NaN when either is NaN, as np.max takes it;
 * written without branches, so that a loop of it vectorises. */
static inline double
widest(double m, double v)
{
    return !(v <= m) & (m == m) ? v : m;
}

/* np.max(np.abs(x)) of a float vector.  Each of the LANES running maxima
 * turns NaN at its first NaN and stays NaN, so gcc vectorises the loop; a
 * maximum does not depend on the order it is taken in. */
#define LANES 8

static CLONES("avx2") double
largest_abs(const double *x, Py_ssize_t n)
{
    double m[LANES] = {0.0};
    Py_ssize_t j = 0;

    for (; j + LANES <= n; j += LANES)
        for (int l = 0; l < LANES; l++)
            m[l] = widest(m[l], fabs(x[j + l]));
    for (; j < n; j++)
        m[0] = widest(m[0], fabs(x[j]));
    for (int l = 1; l < LANES; l++)
        m[0] = widest(m[0], m[l]);
    return m[0];
}

/* np.max(np.abs(a)) of a complex vector: the |a_j| of each block of BLOCK
 * entries, in a loop that vectorises as the stencil's does, then their
 * largest_abs. */
static CLONES("avx512f", "fma") double
largest_magnitude(const cplx *a, Py_ssize_t n)
{
    double mags[BLOCK], m = 0.0;

    for (Py_ssize_t lo = 0; lo < n; lo += BLOCK) {
        const Py_ssize_t len = n - lo < BLOCK ? n - lo : BLOCK;

        for (Py_ssize_t j = 0; j < len; j++)
            mags[j] = magnitude(a[lo + j]);
        m = widest(m, largest_abs(mags, len));
    }
    return m;
}

static PyObject *
sup_abs(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    static const char *const real_format[] = {"d"}, *const complex_format[] = {"Zd"};
    Py_buffer v[1];
    int complex_ok, got;
    double m = 0.0;

    if (arity(nargs, 2, "sup_abs") < 0 || (complex_ok = PyObject_IsTrue(args[1])) < 0)
        return NULL;
    got = vectors(args, 1, real_format, v);
    if (got == 1)
        m = largest_abs(v[0].buf, v[0].shape[0]);
    else if (got == 0 && complex_ok && (got = vectors(args, 1, complex_format, v)) == 1)
        m = largest_magnitude(v[0].buf, v[0].shape[0]);
    if (got < 0)
        return NULL;
    if (got == 0)
        Py_RETURN_NONE;
    release(v, 1);
    return PyFloat_FromDouble(m);
}

/* -- shortest round-trip float text ----------------------------------------- */

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

/* Ryu's tables (Adams, "Ryu: fast float-to-string conversion", PLDI 2018),
 * computed when the module loads: pow5[i] is 5^i scaled to its top
 * POW5_BITS bits, 5^i >> (bits(5^i) - POW5_BITS) (a left shift while 5^i is
 * shorter), for the i < POW5_COUNT that doubles below 1 need, and
 * pow5_inv[q] is floor(2^(bits(5^q) - 1 + POW5_BITS) / 5^q) + 1, for the
 * q < POW5_INV_COUNT that doubles from 1 up need; bits(v) is v's bit
 * length.  5^325 has 755 bits, so 5^i fits in POW5_WORDS 64-bit words. */
#define POW5_BITS 125
#define POW5_COUNT 326
#define POW5_INV_COUNT 291
#define POW5_WORDS 13

static u128 pow5[POW5_COUNT], pow5_inv[POW5_INV_COUNT];
/* "00", "01", ..., "99" */
static char digit_pairs[200];

/* The 128 bits of the little-endian words p[0..words-1] from bit s up. */
static u128
bits_from(const uint64_t *p, int words, int s)
{
    const int w = s / 64, b = s % 64;
    const uint64_t at0 = p[w], at1 = w + 1 < words ? p[w + 1] : 0,
                   at2 = w + 2 < words ? p[w + 2] : 0;
    u128 r = ((u128)at1 << 64 | at0) >> b;

    return b ? r | (u128)at2 << (128 - b) : r;
}

/* r -= d when r >= d, both of POW5_WORDS words; returns whether it did. */
static int
subtract_if_above(uint64_t *r, const uint64_t *d)
{
    for (int w = POW5_WORDS - 1; w >= 0; w--) {
        if (r[w] != d[w]) {
            if (r[w] < d[w])
                return 0;
            break;
        }
    }
    for (int w = 0, borrow = 0; w < POW5_WORDS; w++) {
        const uint64_t diff = r[w] - d[w] - borrow;

        borrow = r[w] < d[w] || (r[w] == d[w] && borrow);
        r[w] = diff;
    }
    return 1;
}

/* Fill pow5, pow5_inv and digit_pairs, from 5^i in words, exactly. */
static void
float_text_tables(void)
{
    uint64_t p[POW5_WORDS] = {1};
    int words = 1;

    for (int i = 0; i < 100; i++) {
        digit_pairs[2 * i] = (char)('0' + i / 10);
        digit_pairs[2 * i + 1] = (char)('0' + i % 10);
    }
    for (int i = 0; i < POW5_COUNT; i++) {
        const int bits = 64 * words - __builtin_clzll(p[words - 1]);

        pow5[i] = bits <= POW5_BITS ? bits_from(p, words, 0) << (POW5_BITS - bits)
                                    : bits_from(p, words, bits - POW5_BITS);
        if (i < POW5_INV_COUNT) {
            /* long division of 2^(bits - 1 + POW5_BITS) by 5^i, one
             * quotient bit per step from r = 2^(bits - 1) */
            uint64_t r[POW5_WORDS] = {0};
            u128 q;

            r[(bits - 1) / 64] = 1ULL << (bits - 1) % 64;
            q = subtract_if_above(r, p);
            for (int s = 0; s < POW5_BITS; s++) {
                for (int w = POW5_WORDS - 1; w > 0; w--)
                    r[w] = r[w] << 1 | r[w - 1] >> 63;
                r[0] <<= 1;
                q = q << 1 | subtract_if_above(r, p);
            }
            pow5_inv[i] = q + 1;
        }
        uint64_t carry = 0;
        for (int w = 0; w < words; w++) {
            const u128 t = (u128)p[w] * 5 + carry;

            p[w] = (uint64_t)t;
            carry = (uint64_t)(t >> 64);
        }
        if (carry)
            p[words++] = carry;
    }
}

/* The bit length of 5^e (1 for e = 0), floor(log10(2^e)) and
 * floor(log10(5^e)), exact for the exponents of doubles. */
static inline int
pow5_bits(int e)
{
    return (int)(((uint32_t)e * 1217359) >> 19) + 1;
}

static inline int
log10_pow2(int e)
{
    return (int)(((uint32_t)e * 78913) >> 18);
}

static inline int
log10_pow5(int e)
{
    return (int)(((uint32_t)e * 732923) >> 20);
}

static inline int
pow5_factor(uint64_t v)
{
    int count = 0;

    for (; v % 5 == 0; v /= 5)
        count++;
    return count;
}

/* (m * mul) >> j, for j >= 64 */
static inline uint64_t
mul_shift(uint64_t m, u128 mul, int j)
{
    const u128 low = (u128)m * (uint64_t)mul, high = (u128)m * (uint64_t)(mul >> 64);

    return (uint64_t)(((low >> 64) + high) >> (j - 64));
}

/* The number of decimal digits of v < 10^17. */
static inline int
decimal_length(uint64_t v)
{
    int n = 17;

    for (uint64_t p = 10000000000000000ULL; n > 1 && v < p; p /= 10)
        n--;
    return n;
}

/* The shortest decimal m * 10^e that rounds to the positive finite double
 * of the given fields, the closest of them to it, ties to an even m: Ryu's
 * d2d, step by step. */
static void
shortest(uint64_t fraction, int biased, uint64_t *m, int *e)
{
    /* the double is m2 * 2^e2 with 2 spare bits for its interval's bounds */
    const int e2 = (biased ? biased : 1) - 1023 - 52 - 2;
    const uint64_t m2 = biased ? 1ULL << 52 | fraction : fraction;
    const int even = (m2 & 1) == 0;
    const uint64_t mv = 4 * m2;
    /* the lower bound is closer at a power of two, except the smallest */
    const int mm_shift = fraction != 0 || biased <= 1;
    uint64_t vr, vp, vm;
    int e10, vm_zeros = 0, vr_zeros = 0;

    /* the bounds and the double in base 10, scaled down by 10^e10 */
    if (e2 >= 0) {
        const int q = log10_pow2(e2) - (e2 > 3);
        const int j = -e2 + q + POW5_BITS + pow5_bits(q) - 1;

        e10 = q;
        vr = mul_shift(mv, pow5_inv[q], j);
        vp = mul_shift(mv + 2, pow5_inv[q], j);
        vm = mul_shift(mv - 1 - mm_shift, pow5_inv[q], j);
        if (q <= 21) {
            /* only one of mv, mp and mm can be a multiple of 5 */
            if (mv % 5 == 0)
                vr_zeros = pow5_factor(mv) >= q;
            else if (even)
                vm_zeros = pow5_factor(mv - 1 - mm_shift) >= q;
            else
                vp -= pow5_factor(mv + 2) >= q;
        }
    }
    else {
        const int q = log10_pow5(-e2) - (-e2 > 1), i = -e2 - q;
        const int j = q - (pow5_bits(i) - POW5_BITS);

        e10 = q + e2;
        vr = mul_shift(mv, pow5[i], j);
        vp = mul_shift(mv + 2, pow5[i], j);
        vm = mul_shift(mv - 1 - mm_shift, pow5[i], j);
        if (q <= 1) {
            vr_zeros = 1;
            if (even)
                vm_zeros = mm_shift == 1;
            else
                vp--;
        }
        else if (q < 63)
            vr_zeros = (mv & ((1ULL << q) - 1)) == 0;
    }

    /* drop digits while the bounds still differ */
    int removed = 0, last = 0;

    if (vm_zeros || vr_zeros) {
        for (; vp / 10 > vm / 10; removed++) {
            vm_zeros &= vm % 10 == 0;
            vr_zeros &= last == 0;
            last = (int)(vr % 10);
            vr /= 10;
            vp /= 10;
            vm /= 10;
        }
        if (vm_zeros) {
            for (; vm % 10 == 0; removed++) {
                vr_zeros &= last == 0;
                last = (int)(vr % 10);
                vr /= 10;
                vp /= 10;
                vm /= 10;
            }
        }
        if (vr_zeros && last == 5 && vr % 2 == 0)
            last = 4; /* exactly halfway: round to even */
        *m = vr + ((vr == vm && (!even || !vm_zeros)) || last >= 5);
    }
    else {
        int round_up = 0;

        /* two digits at once first, as most doubles drop two or more */
        if (vp / 100 > vm / 100) {
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed = 2;
        }
        for (; vp / 10 > vm / 10; removed++) {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
        }
        *m = vr + (vr == vm || round_up);
    }
    *e = e10 + removed;
}

/* The eight decimal digits of g < 10^8 into d[0..7]. */
static inline void
eight_digits(char *d, uint32_t g)
{
    const uint32_t hi = g / 10000, lo = g % 10000;

    memcpy(d, digit_pairs + 2 * (hi / 100), 2);
    memcpy(d + 2, digit_pairs + 2 * (hi % 100), 2);
    memcpy(d + 4, digit_pairs + 2 * (lo / 100), 2);
    memcpy(d + 6, digit_pairs + 2 * (lo % 100), 2);
}

/* The n decimal digits of v < 10^17 into s[0..n-1], and '0' into
 * s[n..16].  The digits are taken in independent groups of eight, not one
 * pair after another, and copied with a fixed length. */
static inline void
put_digits(char *s, uint64_t v, int n)
{
    char d[34];
    const uint64_t hi = v / 100000000;

    memset(d + 17, '0', 17);
    d[0] = (char)('0' + hi / 100000000);
    eight_digits(d + 1, (uint32_t)(hi % 100000000));
    eight_digits(d + 9, (uint32_t)(v - hi * 100000000));
    memcpy(s, d + 17 - n, 17);
}

/* The longest float_repr, "-", 17 digits, ".", "e-324"; no float_repr
 * writes more than 22 bytes past its start, fixed-length copies included. */
#define REPR_MAX 24

/* float.__repr__(x) into s, without a terminating NUL; returns its length.
 * Python writes d.ddde+XX, with two or more exponent digits, when the
 * decimal point falls 4 or more places before the first digit or more than
 * 16 after it, else fixed notation, with ".0" on integral values. */
static int
float_repr(double x, char *s)
{
    uint64_t bits, m;
    int e;
    char *p = s;

    memcpy(&bits, &x, sizeof bits);
    const uint64_t fraction = bits & ((1ULL << 52) - 1);
    const int biased = (int)(bits >> 52 & 0x7ff);

    if (biased == 0x7ff && fraction != 0) {
        memcpy(s, "nan", 3);
        return 3;
    }
    if (bits >> 63)
        *p++ = '-';
    if (biased == 0x7ff) {
        memcpy(p, "inf", 3);
        return (int)(p - s) + 3;
    }
    if (biased == 0 && fraction == 0) {
        memcpy(p, "0.0", 3);
        return (int)(p - s) + 3;
    }
    shortest(fraction, biased, &m, &e);
    const int n = decimal_length(m), point = n + e;

    if (point <= -4 || point > 16) {
        int exp10 = point - 1;

        put_digits(p + 1, m, n);
        p[0] = p[1];
        p[1] = '.';
        p += n > 1 ? n + 1 : 1;
        *p++ = 'e';
        *p++ = exp10 < 0 ? '-' : '+';
        exp10 = exp10 < 0 ? -exp10 : exp10;
        if (exp10 >= 100) {
            *p++ = (char)('0' + exp10 / 100);
            exp10 %= 100;
        }
        memcpy(p, digit_pairs + 2 * exp10, 2);
        p += 2;
    }
    else if (point <= 0) {
        /* "0." and -point zeros; the digits overwrite the zeros after them */
        memcpy(p, "0.000", 5);
        put_digits(p + 2 - point, m, n);
        p += 2 - point + n;
    }
    else if (point < n) {
        /* the digits, then the point moved in before digit point + 1 */
        put_digits(p + 1, m, n);
        for (int k = 0; k < point; k++)
            p[k] = p[k + 1];
        p[point] = '.';
        p += n + 1;
    }
    else {
        put_digits(p, m, n); /* with the zeros up to the point */
        memcpy(p + point, ".0", 2);
        p += point + 2;
    }
    return (int)(p - s);
}

/* The decimal digits of k, after a '-' when k is negative, into s; returns
 * their count, at most 20. */
static int
int_repr(int64_t k, char *s)
{
    char d[20];
    uint64_t u = k < 0 ? 0 - (uint64_t)k : (uint64_t)k;
    int n = 0, len = 0;

    do {
        d[19 - n++] = (char)('0' + u % 10);
        u /= 10;
    } while (u != 0);
    if (k < 0)
        s[len++] = '-';
    memcpy(s + len, d + 20 - n, n);
    return len + n;
}

/* The columns float_text takes at most: a CSV file's. */
#define MAX_COLUMNS 8

/* Take obj as one column of float_text: a 1-D buffer of native float64
 * ("d") or int64 ("l" or "q" of 8 bytes), strided or not, read-only or
 * not; is_int tells which.  Returns 1 with the view held, 0 (no
 * exception) when obj is not such a buffer, -1 on any other error. */
static int
text_column(PyObject *obj, Py_buffer *view, int *is_int)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_STRIDES | PyBUF_FORMAT) < 0) {
        if (!PyErr_ExceptionMatches(PyExc_BufferError)
            && !PyErr_ExceptionMatches(PyExc_TypeError))
            return -1;
        PyErr_Clear();
        return 0;
    }
    *is_int = view->itemsize == 8
              && (strcmp(view->format, "l") == 0 || strcmp(view->format, "q") == 0);
    if (view->ndim != 1 || !(*is_int || strcmp(view->format, "d") == 0)) {
        PyBuffer_Release(view);
        return 0;
    }
    return 1;
}

/* Take values as float_text's columns: one vector, or a tuple of 1 to
 * MAX_COLUMNS vectors of one length.  Returns their count with every view
 * held, 0 (nothing held, no exception) when they do not suit, -1 on
 * error. */
static int
text_columns(PyObject *values, Py_buffer *views, int *is_int)
{
    const int count = PyTuple_Check(values) ? (int)PyTuple_GET_SIZE(values) : 1;

    if (count < 1 || count > MAX_COLUMNS)
        return 0;
    for (int c = 0; c < count; c++) {
        PyObject *column = PyTuple_Check(values) ? PyTuple_GET_ITEM(values, c) : values;
        int got = text_column(column, &views[c], &is_int[c]);

        if (got == 1 && views[c].shape[0] != views[0].shape[0]) {
            PyBuffer_Release(&views[c]);
            got = 0;
        }
        if (got != 1) {
            release(views, c);
            return got;
        }
    }
    return count;
}

static PyObject *
float_text(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer views[MAX_COLUMNS];
    int is_int[MAX_COLUMNS], count;
    Py_ssize_t sep_len, len = 0;
    const char *sep;

    if (arity(nargs, 2, "float_text") < 0)
        return NULL;
    if (!PyUnicode_Check(args[1])) {
        PyErr_SetString(PyExc_TypeError, "float_text expects a str separator");
        return NULL;
    }
    if (!PyUnicode_IS_ASCII(args[1]))
        Py_RETURN_NONE;
    sep = PyUnicode_AsUTF8AndSize(args[1], &sep_len);
    if (sep == NULL)
        return NULL;
    count = text_columns(args[0], views, is_int);
    if (count < 0)
        return NULL;
    if (count == 0)
        Py_RETURN_NONE;

    /* a row: its entries, a comma before each but the first, and sep */
    const Py_ssize_t n = views[0].shape[0], row_max = count * (REPR_MAX + 1) + sep_len;
    char *text = NULL;
    PyObject *result = NULL;

    if (n <= (PY_SSIZE_T_MAX - 1) / row_max)
        text = PyMem_Malloc(n * row_max + 1);
    if (text == NULL) {
        release(views, count);
        return PyErr_NoMemory();
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        if (i > 0) {
            memcpy(text + len, sep, sep_len);
            len += sep_len;
        }
        for (int c = 0; c < count; c++) {
            const char *at = (const char *)views[c].buf + i * views[c].strides[0];

            if (c > 0)
                text[len++] = ',';
            if (is_int[c]) {
                int64_t k;

                memcpy(&k, at, sizeof k);
                len += int_repr(k, text + len);
            }
            else {
                double x;

                memcpy(&x, at, sizeof x);
                len += float_repr(x, text + len);
            }
        }
    }
    result = PyUnicode_New(len, 127);
    if (result != NULL)
        memcpy(PyUnicode_1BYTE_DATA(result), text, len);
    PyMem_Free(text);
    release(views, count);
    return result;
}
#else
/* Without a 128-bit integer type, callers format floats with repr. */
static PyObject *
float_text(PyObject *Py_UNUSED(module), PyObject *const *Py_UNUSED(args),
           Py_ssize_t Py_UNUSED(nargs))
{
    Py_RETURN_NONE;
}
#endif

/* -- module ----------------------------------------------------------------- */

static PyMethodDef methods[] = {
    {"advance_verlet", (PyCFunction)(void (*)(void))advance_verlet, METH_FASTCALL,
     "advance_verlet(x, y, f, eps, rho, dt, n_steps) -> bool"},
    {"flow", (PyCFunction)(void (*)(void))flow, METH_FASTCALL,
     "flow(a, out, c0, c1, c2, g) -> bool"},
    {"rk4", (PyCFunction)(void (*)(void))rk4, METH_FASTCALL,
     "rk4(a, out, h, c0, c1, c2, g) -> bool"},
    {"ansatz", (PyCFunction)(void (*)(void))ansatz, METH_FASTCALL,
     "ansatz(a, adot, X, Xdot, e1, e3, rho, eps) -> bool"},
    {"energy_density", (PyCFunction)(void (*)(void))energy_density, METH_FASTCALL,
     "energy_density(y, ydot, X, out, eps, rho) -> bool"},
    {"sup_abs", (PyCFunction)(void (*)(void))sup_abs, METH_FASTCALL,
     "sup_abs(v, complex_ok) -> float or None"},
    {"float_text", (PyCFunction)(void (*)(void))float_text, METH_FASTCALL,
     "float_text(values, sep) -> str or None"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernels_module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "dklab._kernels",
    .m_doc = "Compiled Verlet loop, dNLS stencil, RK4 step, ansatz and "
              "error energy of dklab.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__kernels(void)
{
#ifdef __SIZEOF_INT128__
    float_text_tables();
#endif
#ifdef VECTOR_TILES
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f"))
        tile_step_of_cpu = fused_step_8;
    else if (__builtin_cpu_supports("avx2"))
        tile_step_of_cpu = fused_step_4;
#endif
    return PyModule_Create(&kernels_module);
}
