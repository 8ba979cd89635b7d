/* Velocity-Verlet steps of the periodic Klein-Gordon chain
 *
 *     x_j'' = F_j = eps (x_{j+1} + x_{j-1}) - x_j - rho x_j^3,
 *
 * the compiled form of dklab.integrators._advance_verlet_numpy.  Every
 * floating-point operation is the one the numpy loop performs, in the same
 * order, so x, y and f agree with it bit for bit when built without FMA
 * contraction (-ffp-contract=off) and without -ffast-math.
 *
 * Each step makes two passes over the ring: the first half-kick and the
 * drift, then the force at the new x and the second half-kick.  Sites 0 and
 * n-1 are handled outside the inner loop, so it has no modulo.
 */

#include <stdint.h>

static inline double force(double left, double centre, double right,
                           double eps, double rho)
{
    /* numpy: f = x[up]; f += x[dn]; f *= eps; f -= x; f -= ((x*x)*x)*rho */
    return ((right + left) * eps - centre) - ((centre * centre) * centre) * rho;
}

void dklab_advance_verlet(double *x, double *y, double *f, int64_t n,
                          double eps, double rho, double dt, int64_t n_steps)
{
    const double half = 0.5 * dt;
    int64_t i, step;

    if (n < 1)
        return;
    for (step = 0; step < n_steps; step++) {
        for (i = 0; i < n; i++) {
            y[i] += half * f[i];
            x[i] += dt * y[i];
        }
        if (n == 1) {
            f[0] = force(x[0], x[0], x[0], eps, rho);
            y[0] += half * f[0];
            continue;
        }
        f[0] = force(x[n - 1], x[0], x[1], eps, rho);
        y[0] += half * f[0];
        for (i = 1; i < n - 1; i++) {
            f[i] = force(x[i - 1], x[i], x[i + 1], eps, rho);
            y[i] += half * f[i];
        }
        f[n - 1] = force(x[n - 2], x[n - 1], x[0], eps, rho);
        y[n - 1] += half * f[n - 1];
    }
}
