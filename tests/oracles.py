"""Independent slow-path oracles used to cross-check the production code.

Kept free of the implementation routes they validate: hull membership is
decided by LP feasibility over the explicit orbit, SL(2) projections by the
closed form of the top minor, gradient ascents by one scalar projection per
trial, branch-tracking ratios by one product and one strided elimination per
grid matrix, and the tracked branch by a fixed fine grid along a polyline or,
where the path is cone-safe, by the Cauchy-Binet sums of the leading minors.
"""

import itertools

import numpy as np
import scipy.linalg
from scipy.optimize import linprog

from crown import f_a_lambda, grad_f, weyl_orbit
from crown.convexity import (
    ARMIJO_SHRINK,
    ARMIJO_SLOPE,
    GRAD_TOL,
    STEP_CAP,
    STEP_FLOOR,
    CriticalRun,
    metric_inner,
    weyl_values,
)
from crown.iwasawa import PIVOT_FLOOR
from crown.sampling import k_project


def lp_hull_membership(ctx, x, y, tol=1e-9):
    """Feasibility of y = sum_w c_w (w.x), c >= 0, sum c = 1 over the explicit orbit."""
    orbit = weyl_orbit(ctx, x)
    count = orbit.shape[0]
    a_eq = np.vstack([orbit.T, np.ones(count)])
    b_eq = np.concatenate([np.asarray(y, dtype=float), [1.0]])
    res = linprog(np.zeros(count), A_eq=a_eq, b_eq=b_eq,
                  bounds=[(0.0, None)] * count, method="highs")
    if res.status == 0:
        return True
    # retry with slack to separate genuine infeasibility from the tolerance band
    res = linprog(np.zeros(count), A_ub=np.vstack([a_eq, -a_eq]),
                  b_ub=np.concatenate([b_eq + tol, tol - b_eq]),
                  bounds=[(0.0, None)] * count, method="highs")
    return res.status == 0


def sl2_rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def sl2_top_ratio_complex(theta, t):
    """(z z^T)_11 for z = rotation(theta) exp(i t H), H = diag(1, -1)."""
    return np.cos(2 * t) + 1j * np.sin(2 * t) * np.cos(2 * theta)


def sl2_im_log_a(theta, t):
    """Imaginary part of log a_1 on the principal branch (valid for |t| < pi/4)."""
    return 0.5 * np.angle(sl2_top_ratio_complex(theta, t))


def sl2_real_log_a(theta, s):
    """log a_1 of rotation(theta) exp(s H)."""
    return 0.5 * np.log(np.cosh(2 * s) + np.sinh(2 * s) * np.cos(2 * theta))


# Frozen scalar samplers: one QR (and one eigh) per sample, the draw order that
# the batch-first samplers of crown.sampling must keep bit for bit.

def _haar_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diagonal(r))
    if np.linalg.det(q) < 0.0:
        q = q.copy()
        q[:, 0] = -q[:, 0]
    return q


def _haar_unitary(rng, n):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d.conj() / np.abs(d))


def _unitary_embed(ctx, u):
    n = ctx.n
    g = np.zeros((2 * n, 2 * n))
    g[:n, :n] = u.real
    g[:n, n:] = u.imag
    g[n:, :n] = -u.imag
    g[n:, n:] = u.real
    return ctx.to_sorted_frame(g)


def _sample_p(ctx, rng, radius):
    n = ctx.n
    if ctx.family.value == "sl":
        a = rng.standard_normal((n, n))
        s = 0.5 * (a + a.T)
        s -= np.trace(s) / n * np.eye(n)
    else:
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        a = 0.5 * (a + a.T)
        b = 0.5 * (b + b.T)
        s = ctx.to_sorted_frame(np.block([[a, b], [b, -a]]))
    norm = np.linalg.norm(s)
    if norm > radius:
        s = s * (radius / norm)
    return s


def _exp_symmetric(s):
    w, v = np.linalg.eigh(s)
    return (v * np.exp(w)[None, :]) @ v.T


def reference_haar_k(ctx, rng):
    """Haar element of K from one generator, one sample at a time."""
    if ctx.family.value == "sl":
        return _haar_orthogonal(rng, ctx.n)
    return _unitary_embed(ctx, _haar_unitary(rng, ctx.n))


def reference_group_element(ctx, rng, mode, radius):
    """Haar k ("k") or k exp(S) with |S| capped at radius ("full-g"), one sample."""
    k = reference_haar_k(ctx, rng)
    if mode == "k":
        return k
    return k @ _exp_symmetric(_sample_p(ctx, rng, radius))


# Frozen scalar gradient ascent: one projection per Armijo trial and one more
# for each gradient, the trail that the batched ladder of
# crown.convexity.ascend_critical must keep bit for bit.

def reference_ascend_critical(ctx, a_point, k0, lam, max_iter=1000, tol=GRAD_TOL,
                              trials=None):
    """Scalar Armijo ascent of f_{a,lam}; appends every step size tried to trials."""
    a_point = np.asarray(a_point, dtype=complex)
    x_im = a_point.imag
    k = np.asarray(k0, dtype=float)
    f_cur = f_a_lambda(ctx, a_point, k, lam)
    f_values = [f_cur]
    grad_norm = np.inf
    iterations = 0
    converged = False
    for iterations in range(max_iter + 1):
        grad = grad_f(ctx, a_point, k, lam)
        sq_norm = metric_inner(ctx, grad, grad)
        grad_norm = np.sqrt(max(sq_norm, 0.0))
        if grad_norm < tol:
            converged = True
            break
        if iterations == max_iter:
            break

        def trial(eta):
            if trials is not None:
                trials.append(eta)
            k_t = k_project(ctx, scipy.linalg.expm(eta * grad) @ k)
            return k_t, f_a_lambda(ctx, a_point, k_t, lam)

        eta = 1.0
        k_trial, f_trial = trial(eta)
        if f_trial >= f_cur + ARMIJO_SLOPE * eta * sq_norm:
            while eta < STEP_CAP:
                k_next, f_next = trial(2.0 * eta)
                if f_next < f_cur + ARMIJO_SLOPE * 2.0 * eta * sq_norm or f_next <= f_trial:
                    break
                eta *= 2.0
                k_trial, f_trial = k_next, f_next
        else:
            stalled = True
            while eta >= STEP_FLOOR:
                eta *= ARMIJO_SHRINK
                k_trial, f_trial = trial(eta)
                if f_trial >= f_cur + ARMIJO_SLOPE * eta * sq_norm:
                    stalled = False
                    break
            if stalled:
                break
        k, f_cur = k_trial, f_trial
        f_values.append(f_cur)
    matched = float(np.max(weyl_values(ctx, x_im, lam)))
    return CriticalRun(
        end_k=k, f_values=np.array(f_values),
        grad_norm_final=float(grad_norm), matched_weyl_value=matched,
        iterations=iterations, converged=converged, gap=abs(f_values[-1] - matched))


# Frozen tracking kernel: the strided LDL^T elimination on (..., m, m) slices and
# one m x m product per grid matrix, whose bits the batch-last crown.iwasawa._ldl
# and the stacked product of crown.iwasawa._path_ratios must keep.

def reference_ldl(mat):
    """(ratios, unit_lower, normalized minors) of a stack, eliminated in place."""
    mat = np.asarray(mat)
    m = mat.shape[-1]
    work = np.array(mat, dtype=np.promote_types(mat.dtype, np.float64))
    lower = np.zeros_like(work)
    lower[..., range(m), range(m)] = 1.0
    ratios = np.empty(work.shape[:-2] + (m,), dtype=work.dtype)
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(m):
            piv = work[..., j, j].copy()
            ratios[..., j] = piv
            if j + 1 < m:
                col = work[..., j + 1:, j] / piv[..., None]
                lower[..., j + 1:, j] = col
                work[..., j + 1:, j + 1:] -= col[..., :, None] * work[..., j, j + 1:][..., None, :]
    with np.errstate(invalid="ignore"):
        row_norms = np.sqrt(np.sum(np.abs(mat) ** 2, axis=-1))
        hadamard = np.maximum(np.cumprod(row_norms, axis=-1), np.finfo(float).tiny)
        minors = np.abs(np.cumprod(ratios, axis=-1)) / hadamard
    return ratios, lower, minors


def reference_path_ratios(ctx, g, coords):
    """(ratios, unit_lower, floor) of g exp(2i diag(x_t)) g^T, one product per t."""
    g = np.asarray(g)
    diag = np.exp(2j * ctx.full_diag(coords))
    tmp = g[..., None, :, :] * diag[..., None, :]
    mats = tmp @ np.swapaxes(g, -1, -2)[..., None, :, :]
    ratios, lower, minors = reference_ldl(mats)
    return ratios, lower, np.min(minors, axis=-1)


def reference_polyline_log_a(ctx, g, waypoints, steps=256):
    """Cartan coordinates of log a(g exp(iX)) tracked along 0 -> waypoints[0] -> ... -> X.

    Every leg runs on a fixed grid of steps segments, with no bisection.  The
    continuous branch is certified on the grid only as far as every step moves
    every argument by less than pi/2 and no minor drops below PIVOT_FLOOR; both
    are asserted.
    """
    prev = np.zeros(ctx.n)
    arg = np.zeros(ctx.ambient_size)
    ts = np.linspace(0.0, 1.0, steps + 1)[:, None]
    for end in np.asarray(waypoints, dtype=float):
        ratios, _, floor = reference_path_ratios(ctx, g, prev + ts * (end - prev))
        assert np.all(floor >= PIVOT_FLOOR)
        dphi = np.angle(ratios[1:] / ratios[:-1])
        assert np.max(np.abs(dphi)) < np.pi / 2
        arg += dphi.sum(axis=0)
        prev = end
    return (0.5 * (np.log(np.abs(ratios[-1])) + 1j * arg))[: ctx.n]


def cauchy_binet_log_a(ctx, g, x):
    """Full diagonal of log a(g exp(iX)) from the Cauchy-Binet sums of the leading minors.

    Delta_j(1) = sum over |S| = j of det(g[:j, S])^2 exp(2i x_S), where x_S sums
    the entries of full_diag(X) indexed by S, and log a_j = (Log Delta_j -
    Log Delta_{j-1}) / 2 with principal logarithms.  That is the tracked branch
    when 2 max_j s_j(X) < pi, s_j the sum of the j largest entries of
    full_diag(X) minus the sum of the j smallest: then every term of
    Delta_j(t), t <= 1, has argument in (-pi/2, pi/2).  g and x may be stacks.
    """
    g = np.asarray(g, dtype=float)
    d = ctx.full_diag(np.asarray(x, dtype=float))
    m = g.shape[-1]
    logs = [np.zeros(g.shape[:-2], dtype=complex)]
    for j in range(1, m + 1):
        delta = sum(np.linalg.det(g[..., :j, s]) ** 2 * np.exp(2j * d[..., s].sum(axis=-1))
                    for s in map(list, itertools.combinations(range(m), j)))
        logs.append(np.log(delta))
    return 0.5 * np.diff(np.stack(logs, axis=-1), axis=-1)
