"""Independent slow-path oracles used to cross-check the production code.

Kept free of the implementation routes they validate: hull membership is
decided by LP feasibility over the explicit orbit (or, for a batch, by the
least L1 slack of one block-diagonal LP), SL(2) projections by the
closed form of the top minor, gradient ascents by one scalar projection per
value and one more per gradient, Siegel points by one draw and one fractional
action per index, branch-tracking ratios by one product and one strided
elimination per grid matrix, and the tracked branch by a fixed fine grid along
a polyline or, where the path is cone-safe, by the Cauchy-Binet sums of the
leading minors.
"""

import itertools

import numpy as np
import scipy.sparse
from scipy.optimize import linprog

from crown import Family, GroupSpec, build_group, f_a_lambda, grad_f, substream, weyl_orbit
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
from crown.sampling import P_RADIUS
from crown.siegel import DIRECT_EPS
from crown.weyl import DEDUP_TOL


def reference_weyl_orbit(ctx, x, tol=DEDUP_TOL):
    """Lexsorted orbit of x without the points within tol of an earlier point.

    Compares every pair at once: a (|W|, |W|, n) temporary, for small groups only.
    """
    pts = ctx.weyl @ np.asarray(x)
    pts = pts[np.lexsort(pts.T[::-1])]
    near = np.abs(pts[:, None] - pts[None]).max(-1) <= tol
    return pts[~np.tril(near, -1).any(1)]


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


def lp_hull_slacks(ctx, xs, ys):
    """Least L1 distance of each y_i to conv(W.x_i) over the explicit orbits, in one LP.

    Block i holds the weights c >= 0 of the orbit of x_i with sum c = 1 and the
    slacks u+, u- >= 0 of y_i = sum_w c_w (w.x_i) + u+ - u-.  The total slack
    separates by block, so each block's optimal slack is its own point's distance.
    """
    eye = np.eye(ctx.n)
    blocks, costs, rhs = [], [], []
    for x, y in zip(xs, ys):
        orbit = weyl_orbit(ctx, x)
        count = orbit.shape[0]
        blocks.append(np.block([[orbit.T, eye, -eye], [np.ones(count), np.zeros(2 * ctx.n)]]))
        costs.append(np.concatenate([np.zeros(count), np.ones(2 * ctx.n)]))
        rhs.append(np.append(y, 1.0))
    res = linprog(np.concatenate(costs), A_eq=scipy.sparse.block_diag(blocks, format="csr"),
                  b_eq=np.concatenate(rhs), bounds=(0.0, None), method="highs")
    assert res.status == 0, res.message
    ends = np.cumsum([len(c) for c in costs])
    return np.array([res.x[end - 2 * ctx.n:end].sum() for end in ends])


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


# Frozen Siegel sampler: one draw per index and one fractional action per orbit
# point, the rows that the chunked crown.siegel.sample_siegel must keep bit for bit.

def reference_fractional_action(g_std, w):
    """(A w + B)(C w + D)^{-1} for one standard-frame symplectic matrix."""
    n = w.shape[0]
    a, b = g_std[:n, :n], g_std[:n, n:]
    c, d = g_std[n:, :n], g_std[n:, n:]
    out = np.linalg.solve((c @ w + d).T, (a @ w + b).T).T
    return 0.5 * (out + out.T)


def reference_sample_siegel(n, count, seed):
    """(count, n, n) points: x + i(L L^T + DIRECT_EPS I) at even indices, g.(iI) at odd."""
    ctx = build_group(GroupSpec(Family.SYMPLECTIC, n))
    eye = np.eye(n)
    points = []
    for i in range(count):
        rng = substream(seed, i)
        if i % 2:
            g = reference_group_element(ctx, rng, "full-g", P_RADIUS)
            points.append(reference_fractional_action(ctx.to_standard_frame(g), 1j * eye))
            continue
        x = rng.standard_normal((n, n))
        x = 0.5 * (x + x.T)
        low = rng.standard_normal((n, n))
        points.append(x + 1j * (low @ low.T + DIRECT_EPS * eye))
    return np.array(points)


# Frozen scalar gradient ascent: one projection for each value and one more for
# each gradient, the trail that crown.convexity.ascend_critical, which projects
# each accepted trial once for both, must keep bit for bit.

def reference_ascend_critical(ctx, a_point, k0, lam, max_iter=1000, tol=GRAD_TOL,
                              trials=None, starts=None):
    """Scalar short Barzilai-Borwein ascent of f_{a,lam} on the Cayley retraction.

    Appends every step size tried to trials, and to starts, for each step, the
    pair (rule, eta) of its first trial: rule is "initial" for the first step,
    "bb" for a short Barzilai-Borwein size <s,y>/<y,y>, "clamped" for one cut
    to STEP_CAP, and "restart" for STEP_CAP after <s,y> <= 0.
    """
    a_point = np.asarray(a_point, dtype=complex)
    k = np.asarray(k0, dtype=float)
    eye = np.eye(ctx.ambient_size)
    f_cur = f_a_lambda(ctx, a_point, k, lam)
    grad = grad_f(ctx, a_point, k, lam)
    f_values = [f_cur]
    eta, rule = 1.0, "initial"
    converged = False
    for iterations in range(max_iter + 1):
        sq_norm = metric_inner(ctx, grad, grad)
        grad_norm = np.sqrt(max(sq_norm, 0.0))
        if grad_norm < tol:
            converged = True
            break
        if iterations == max_iter:
            break
        if starts is not None:
            starts.append((rule, eta))
        accepted = False
        while not accepted and eta >= STEP_FLOOR:
            if trials is not None:
                trials.append(eta)
            half = 0.5 * eta * grad
            k_trial = np.linalg.solve(eye - half, (eye + half) @ k)
            f_trial = f_a_lambda(ctx, a_point, k_trial, lam)
            accepted = f_trial >= f_cur + ARMIJO_SLOPE * eta * sq_norm
            if not accepted:
                eta *= ARMIJO_SHRINK
        if not accepted:
            break
        grad_next = grad_f(ctx, a_point, k_trial, lam)
        s, y = eta * grad, grad - grad_next
        s_y = metric_inner(ctx, s, y)
        if s_y > 0.0:
            eta = s_y / metric_inner(ctx, y, y)
            rule = "bb" if eta <= STEP_CAP else "clamped"
            eta = min(eta, STEP_CAP)
        else:
            eta, rule = STEP_CAP, "restart"
        k, f_cur, grad = k_trial, f_trial, grad_next
        f_values.append(f_cur)
    matched = float(np.max(weyl_values(ctx, a_point.imag, lam)))
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
    """(ratios, unit_lower, normalized minors) of g exp(2i diag(x_t)) g^T, one product per t."""
    g = np.asarray(g)
    diag = np.exp(2j * ctx.full_diag(coords))
    tmp = g[..., None, :, :] * diag[..., None, :]
    mats = tmp @ np.swapaxes(g, -1, -2)[..., None, :, :]
    return reference_ldl(mats)


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
        ratios, _, minors = reference_path_ratios(ctx, g, prev + ts * (end - prev))
        assert np.all(minors >= PIVOT_FLOOR)
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
