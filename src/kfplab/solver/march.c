/* Compiled kernels of kfplab.solver.march, loaded through ctypes.
 *
 * Each kernel performs the numpy reference's operations (_transport,
 * _v_solver) in the same order on a velocity-major (nv, nx) C-order
 * state, one rounding per multiply, add and divide.  Built with
 * -ffp-contract=off, so no multiply-add is fused, the results are
 * bitwise those of numpy.  The caller checks every shape.
 */

#include <stdint.h>

static int64_t wrap(int64_t i, int64_t n)
{
    int64_t r = i % n;
    return r < 0 ? r + n : r;
}

/* One transport substep: for each velocity row j, with k = k[j],
 * out[j, i] = ((w0 f[i-k-2] + w1 f[i-k-1]) + w2 f[i-k]) + w3 f[i-k+1],
 * the x indices taken mod nx (any k, any nx >= 1). */
void kfp_transport(int64_t nv, int64_t nx, const int64_t *k,
                   const double *w0, const double *w1, const double *w2,
                   const double *w3, const double *restrict f,
                   double *restrict out)
{
    for (int64_t j = 0; j < nv; ++j) {
        const double *row = f + j * nx;
        double *o = out + j * nx;
        const double a0 = w0[j], a1 = w1[j], a2 = w2[j], a3 = w3[j];
        const int64_t s = wrap(-2 - k[j] % nx, nx);  /* f[i-k-2] at i = 0 */
        for (int64_t i = 0; i < nx;) {
            const int64_t a = s + i < nx ? s + i : s + i - nx;
            /* cells from i on whose four stencil points a.. stay in the row */
            int64_t run = nx - 3 - a;
            if (run > nx - i)
                run = nx - i;
            if (run <= 0) {
                o[i] = ((a0 * row[a] + a1 * row[wrap(a + 1, nx)])
                        + a2 * row[wrap(a + 2, nx)])
                       + a3 * row[wrap(a + 3, nx)];
                ++i;
                continue;
            }
            const double *p = row + a;
            double *q = o + i;
            for (int64_t r = 0; r < run; ++r)
                q[r] = ((a0 * p[r] + a1 * p[r + 1]) + a2 * p[r + 2])
                       + a3 * p[r + 3];
            i += run;
        }
    }
}

/* One backward-Euler v-step on factors _v_factors has forward-eliminated:
 * u = f + ds, u[0] /= denom[0], then u[j] = (u[j] - lower[j] u[j-1]) /
 * denom[j] for j = 1 .. nv-1, then u[j] -= cp[j] u[j+1] for j = nv-2 .. 0. */
void kfp_v_solve(int64_t nv, int64_t nx, const double *lower,
                 const double *denom, const double *cp, const double *ds,
                 const double *restrict f, double *restrict u)
{
    for (int64_t i = 0; i < nv * nx; ++i)
        u[i] = f[i] + ds[i];
    for (int64_t i = 0; i < nx; ++i)
        u[i] /= denom[i];
    for (int64_t j = 1; j < nv; ++j) {
        double *restrict row = u + j * nx;
        const double *prev = row - nx, *lo = lower + j * nx,
                     *d = denom + j * nx;
        for (int64_t i = 0; i < nx; ++i)
            row[i] = (row[i] - lo[i] * prev[i]) / d[i];
    }
    for (int64_t j = nv - 2; j >= 0; --j) {
        double *restrict row = u + j * nx;
        const double *next = row + nx, *c = cp + j * nx;
        for (int64_t i = 0; i < nx; ++i)
            row[i] -= c[i] * next[i];
    }
}
