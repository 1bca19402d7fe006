/* Compiled kernels of kfplab.solver.weak, built into one library with
 * march.c and loaded through ctypes.
 *
 * Each kernel performs the operations of the numpy reference
 * (HingeProfile.value_and_deriv, velocity_gradient, _hinge_sums and
 * BumpProfiles) in the same order, one rounding per multiply, add and
 * divide.  Built with -ffp-contract=off, so no multiply-add is fused,
 * the results are bitwise those of numpy.  numpy's logaddexp and exp,
 * and the sums over each pair, run between the kernels.  Every window
 * array is C-order (t, x, v); the caller checks every shape.
 */

#include <stdint.h>

/* numpy's maximum(z, 0) and minimum(z, 0): a NaN z propagates */
static double max0(double z) { return z < 0.0 ? 0.0 : z; }
static double min0(double z) { return z > 0.0 ? 0.0 : z; }

/* z = (s - c) / eta, or ((-c) - s) / eta if negate, and l = -|z|, for
 * s read from f with element strides st, sx, sv. */
void kfp_hinge_z(int64_t nt, int64_t nx, int64_t nv, int64_t st,
                 int64_t sx, int64_t sv, const double *f, int64_t negate,
                 double c, double eta, double *restrict z,
                 double *restrict l)
{
    const double nc = -c;
    for (int64_t i = 0; i < nt; ++i)
        for (int64_t j = 0; j < nx; ++j) {
            const double *s = f + i * st + j * sx;
            double *zr = z + (i * nx + j) * nv, *lr = l + (i * nx + j) * nv;
            for (int64_t k = 0; k < nv; ++k) {
                const double d = negate ? nc - s[k * sv] : s[k * sv] - c;
                zr[k] = d / eta;
                lr[k] = __builtin_copysign(zr[k], -1.0);
            }
        }
}

/* With l = logaddexp(0, -|z|): value = (max(z, 0) + l) eta, and
 * z = min(z, 0) - l, whose exp is the hinge's derivative. */
void kfp_hinge_value(int64_t n, double eta, double *restrict z,
                     const double *restrict l, double *restrict value)
{
    for (int64_t i = 0; i < n; ++i) {
        value[i] = (max0(z[i]) + l[i]) * eta;
        z[i] = min0(z[i]) - l[i];
    }
}

/* One run of nt slices in one coefficient time cell, over rows of nv
 * cells: g = velocity_gradient(bf), then d = S d + B g and g = g A,
 * with A, B and S (nx, nv) arrays shared by every slice of the run. */
void kfp_hinge_fields(int64_t nt, int64_t nx, int64_t nv, double dv,
                      const double *A, const double *B, const double *S,
                      const double *restrict bf, double *restrict d,
                      double *restrict g)
{
    const double h = 2.0 * dv;
    for (int64_t i = 0; i < nt; ++i)
        for (int64_t j = 0; j < nx; ++j) {
            const int64_t r = (i * nx + j) * nv;
            const double *b = bf + r, *a = A + j * nv, *bb = B + j * nv,
                         *s = S + j * nv;
            double *gr = g + r, *dr = d + r;
            gr[0] = (b[1] - b[0]) / dv;
            for (int64_t k = 1; k < nv - 1; ++k)
                gr[k] = (b[k + 1] - b[k - 1]) / h;
            gr[nv - 1] = (b[nv - 1] - b[nv - 2]) / dv;
            for (int64_t k = 0; k < nv; ++k) {
                dr[k] = s[k] * dr[k] + bb[k] * gr[k];
                gr[k] = gr[k] * a[k];
            }
        }
}

/* One (hinge, bump) pair on the bump's (nt, nx, nv) window, read from
 * the hinge fields bf, g (A grad_v beta) and d (S beta' + B grad_v
 * beta) with element strides st and sx: out = (bf (-T phi) +
 * g grad_v phi) - phi d, where, from the bump's 1-D profiles,
 *     -T phi    = -(((dpt px) pv) + (((v pt) dpx) pv)),
 *     grad_v phi = ((pt px) dpv) / wv,
 *     phi       = (pt px) pv. */
void kfp_pair(int64_t nt, int64_t nx, int64_t nv, int64_t st, int64_t sx,
              const double *pt, const double *dpt, const double *px,
              const double *dpx, const double *pv, const double *dpv,
              const double *v, double wv, const double *bf,
              const double *g, const double *d, double *restrict out)
{
    for (int64_t i = 0; i < nt; ++i)
        for (int64_t j = 0; j < nx; ++j) {
            const double tx = pt[i] * px[j], dtx = dpt[i] * px[j];
            const double p = pt[i], q = dpx[j];
            const int64_t r = i * st + j * sx;
            const double *b = bf + r, *gr = g + r, *dr = d + r;
            double *o = out + (i * nx + j) * nv;
            for (int64_t k = 0; k < nv; ++k) {
                const double ntphi = -(dtx * pv[k] + ((v[k] * p) * q) * pv[k]);
                const double gphi = (tx * dpv[k]) / wv;
                o[k] = (b[k] * ntphi + gr[k] * gphi) - (tx * pv[k]) * dr[k];
            }
        }
}
