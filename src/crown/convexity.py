"""Log-projection functionals on K, their critical points, and the convexity verifiers.

For a point a of the abelian tube and k in the maximal compact subgroup set
``f_a(k) = log a(k a)`` (tracked branch) and ``f_{a,lam}(k) = lam(f_a(k))`` for
a covector lam vanishing on the real Cartan subspace, given as the plain array
m of the coordinates of M with H_lam = i M.  The derivative of
f_{a,lam} along exp(tX)k is ``kappa_R(X, Ad(n(ka)) H_lam)``, equivalently
``lam(p_a(Ad(b(ka))^{-1} X))`` through the triangular part; both routes are
implemented and cross-checked.  Critical points of f_{a,lam} for regular data
lie in the normalizer of the Cartan subspace, so seeded gradient ascents must
terminate at one of the finitely many values lam(i wX).  The ascent takes
short Barzilai-Borwein steps on the Cayley retraction, which keeps K without a
matrix exponential or a polar step; in this module only the finite differences
of gradient_check load scipy, for expm.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from .errors import NumericalBreakdown
from .groups import (
    GROUP_TOL,
    Family,
    GroupContext,
    h_lambda,
    is_regular,
    pair_ia,
    project_a,
)
from .iwasawa import (
    batch_reconstruction_residual,
    grid_tolerances,
    project_complex,
    project_real_batch,
    track_batch,
    triangular_part,
    GRID_STEPS,
)
from .parallel import chunk_part, chunk_ranges, fold_report, map_chunks
from .report import VerificationReport
from .rng import NS_AUX, substream
# k_project stays imported: bench/tracer.py wraps crown.convexity.k_project by name
from .sampling import (
    P_RADIUS,
    haar_k,
    k_project,
    sample_group_element,
)
from .weyl import (
    FULL_OMEGA,
    MEMBERSHIP_TOL,
    REJECTION_MIN_RATE,
    OmegaSpec,
    draw_omega_point,
    helmert,
    hull_margins_batch,
    omega_margin,
    weyl_orbit,
)

REGULARITY_FLOOR = 1e-3
ARMIJO_SLOPE = 0.1
ARMIJO_SHRINK = 0.5
STEP_FLOOR = 1e-12
STEP_CAP = 2.0 ** 12
IM_N_FLOOR = 1e-10
NORMALIZER_GAP = 0.1
GRAD_TOL = 1e-6
KOSTANT_BOX = 1.0
VERTEX_TOL = 1e-10
FD_STEP = 1e-5
MEDIAN_REL_TOL = 1e-7
MAX_REL_TOL = 1e-5
ROUTE_TOL = 1e-10
# the polytope scaled by 0.9: gradient-check, critical-points and lemma24 draw X from it
INNER_OMEGA = OmegaSpec("scale", scale=0.9)


@dataclasses.dataclass
class CriticalRun:
    """One gradient ascent on K with its diagnostic trail."""

    end_k: np.ndarray
    f_values: np.ndarray
    grad_norm_final: float
    matched_weyl_value: float
    iterations: int
    converged: bool
    gap: float


def normalizer_elements(ctx: GroupContext) -> np.ndarray:
    """All elements of the normalizer of the Cartan subspace in K, shape (count, m, m).

    Each Weyl representative ctx.weyl_k[i] times each element of the
    centralizer, the diagonal sign matrices (of determinant 1 for sl, embedded
    from U(n) for sp), representatives outer.
    """
    n = ctx.n
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=n)))
    centr = np.where(np.eye(n, dtype=bool), signs[:, None, :], 0.0)
    if ctx.family is Family.SPECIAL_LINEAR:
        centr = centr[np.prod(signs, axis=1) > 0.0]
    else:
        centr = ctx.unitary_embed(centr)
    m = ctx.ambient_size
    return (ctx.weyl_k[:, None] @ centr[None]).reshape(-1, m, m)


def metric_inner(ctx: GroupContext, x, y) -> float:
    """Riemannian metric on the compact subalgebra: -kappa_R(X, Y)."""
    # the ndarray method has np.trace's bits without its Python-level dispatch
    return float(-2.0 * ctx.killing_scale * (np.asarray(x) @ np.asarray(y)).trace().real)


def _k_combination(ctx: GroupContext, coeff) -> np.ndarray:
    """The element sum_i coeff[i] basis_k[i] of the compact subalgebra.

    The one dot that np.tensordot(coeff, ctx.basis_k, axes=1) makes, with its
    bits, without tensordot's Python layer.
    """
    m = ctx.ambient_size
    return np.dot(coeff.reshape(1, -1), ctx.basis_k.reshape(len(coeff), -1)).reshape(m, m)


def _project(ctx: GroupContext, a_point, k):
    """Factors of k exp(a_point), with the imaginary part of a_point tracked, for rows."""
    a_point = np.asarray(a_point, dtype=complex)
    g = np.asarray(k) @ ctx.a_exp(a_point.real)
    return project_complex(ctx, g, a_point.imag)


def f_a(ctx: GroupContext, a_point, k) -> np.ndarray:
    """log a(k exp(a_point)) on the branch tracked from k, as Cartan coordinates, for rows."""
    return _project(ctx, a_point, k).log_a


def f_a_lambda(ctx: GroupContext, a_point, k, m):
    """lam(f_a(k)) through the kappa_R pairing, one value per row; a float for one row."""
    return _checked_value(ctx, _project(ctx, a_point, k), m)


def _checked_value(ctx: GroupContext, factors, m):
    """lam(log a) of the factors of k exp(a_point), one value per row; a float for one row.

    The pairing of a Cartan-space value with i*M is real by construction; a
    broken branch surfaces as a non-finite value, and any one is rejected.
    """
    value = pair_ia(ctx, factors.log_a, m)
    if not np.isfinite(value).all():
        raise NumericalBreakdown("functional evaluation is not a finite real number")
    return value if value.ndim else float(value)


def grad_f(ctx: GroupContext, a_point, k, m, factors=None) -> np.ndarray:
    """Riemannian gradient of f_{a,lam} at k, as an element of the compact subalgebra.

    Built from the unipotent factor of k exp(a_point): the directional
    derivative along X is kappa_R(X, Ad(n) H_lam), so the gradient is minus the
    metric projection of Ad(n) H_lam onto the compact subalgebra.  factors, when
    given, are the factors of k exp(a_point), which are then not projected again.
    """
    if factors is None:
        factors = _project(ctx, a_point, k)
    return _grad_from_n(ctx, factors.n_part, h_lambda(ctx, m))


def _grad_from_n(ctx: GroupContext, n_part, h) -> np.ndarray:
    """The gradient of grad_f from the unipotent factor n of k exp(a_point) and H_lam."""
    ad_n_h = n_part @ np.linalg.solve(n_part.T, h.T).T
    rhs = -2.0 * ctx.killing_scale * np.einsum("kij,ji->k", ctx.basis_k, ad_n_h).real
    r = ctx.k_gram_rsqrt
    coeff = (-rhs * r) * r
    return _k_combination(ctx, coeff)


def directional_derivative_triangular(ctx: GroupContext, factors, m, x_dir) -> float:
    """Derivative of f_{a,lam} along exp(tX)k evaluated through the triangular part.

    Independent route used to cross-check grad_f: lam(p_a(Ad(b)^{-1} X)), with b
    the triangular part of the factors of k exp(a_point).
    """
    b = triangular_part(ctx, factors)
    ad_b_inv = np.linalg.solve(b, np.asarray(x_dir, dtype=complex) @ b)
    return float(pair_ia(ctx, project_a(ctx, ad_b_inv), m))


def weyl_values(ctx: GroupContext, x, m) -> np.ndarray:
    """Values lam(i wX) over the Weyl orbit of x, for the covector with M-coordinates m."""
    orbit = weyl_orbit(ctx, x)
    return -2.0 * ctx.coord_weight * (orbit @ m)


def ascend_critical(ctx: GroupContext, a_point, k0, m,
                    max_iter: int = 1000, tol: float = GRAD_TOL) -> CriticalRun:
    """Riemannian gradient ascent of f_{a,lam}: Barzilai-Borwein steps on a Cayley retraction.

    Requires regular m and regular imaginary direction.  Non-converged runs
    are returned with converged=False.

    The trial point for step eta is the Cayley transform
    (I - eta X/2)^{-1} (I + eta X/2) k of the gradient X, which stays in K
    without a polar step; the group membership check that project_complex
    makes on every trial guards against drift.
    Each step starts from the short Barzilai-Borwein size <s,y>/<y,y> of the
    last accepted step (s = eta X, y = X - X_next), clamped at STEP_CAP, or
    from STEP_CAP when <s,y> <= 0, and halves it until the monotone Armijo
    test holds; below STEP_FLOOR the run stalls.  The accepted trial's
    projection supplies the next gradient.
    """
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    a_point = np.asarray(a_point, dtype=complex)
    x_im = a_point.imag
    if not is_regular(ctx, m):
        raise ValueError("covector must be regular")
    if not is_regular(ctx, x_im):
        raise ValueError("imaginary direction must be regular")
    if omega_margin(ctx, FULL_OMEGA, x_im) <= 0.0:
        raise ValueError("direction lies outside the admissible polytope")
    m = np.asarray(m, dtype=float)
    k = np.asarray(k0, dtype=float)
    eye = np.eye(ctx.ambient_size)
    base, h = ctx.a_exp(a_point.real), h_lambda(ctx, m)
    factors = project_complex(ctx, k @ base, x_im)
    f_cur = _checked_value(ctx, factors, m)
    grad = _grad_from_n(ctx, factors.n_part, h)
    f_values = [f_cur]
    eta = 1.0
    converged = False
    for iterations in range(max_iter + 1):
        sq_norm = metric_inner(ctx, grad, grad)
        grad_norm = np.sqrt(max(sq_norm, 0.0))
        if grad_norm < tol:
            converged = True
            break
        if iterations == max_iter:
            break
        while eta >= STEP_FLOOR:
            half = 0.5 * eta * grad
            k_trial = np.linalg.solve(eye - half, (eye + half) @ k)
            factors = project_complex(ctx, k_trial @ base, x_im)
            f_trial = _checked_value(ctx, factors, m)
            if f_trial >= f_cur + ARMIJO_SLOPE * eta * sq_norm:
                break
            eta *= ARMIJO_SHRINK
        else:
            # no step size down to STEP_FLOOR passed the Armijo test: the run stalls
            break
        grad_next = _grad_from_n(ctx, factors.n_part, h)
        s, y = eta * grad, grad - grad_next
        sy = metric_inner(ctx, s, y)
        eta = min(sy / metric_inner(ctx, y, y), STEP_CAP) if sy > 0.0 else STEP_CAP
        k, f_cur, grad = k_trial, f_trial, grad_next
        f_values.append(f_cur)
    matched = float(np.max(weyl_values(ctx, x_im, m)))
    return CriticalRun(
        end_k=k,
        f_values=np.array(f_values),
        grad_norm_final=float(grad_norm),
        matched_weyl_value=matched,
        iterations=iterations,
        converged=converged,
        gap=abs(f_values[-1] - matched),
    )


def sample_covector(ctx: GroupContext, rng) -> np.ndarray:
    """M-coordinates m of a unit-norm regular covector, rejection-sampled to REGULARITY_FLOOR."""
    while True:
        m = rng.standard_normal(ctx.n)
        if ctx.family is Family.SPECIAL_LINEAR:
            m -= m.mean()
        m /= np.linalg.norm(m)
        if is_regular(ctx, m, floor=REGULARITY_FLOOR):
            return m


def sample_regular_direction(ctx: GroupContext, omega: OmegaSpec, rng) -> np.ndarray:
    """Point of omega with all root values bounded away from zero.

    Rejection-sampled to REGULARITY_FLOOR under the acceptance-rate floor of
    draw_omega_point; an omega too small to hold a regular point stalls.
    """
    for _ in range(int(1.0 / REJECTION_MIN_RATE) + 1):
        x = draw_omega_point(ctx, omega, rng)
        if is_regular(ctx, x, floor=REGULARITY_FLOOR):
            return x
    raise NumericalBreakdown(
        f"acceptance rate below {REJECTION_MIN_RATE} for regular directions in {omega.label}")


def verify_complex_convexity(ctx: GroupContext, omega: OmegaSpec, samples: int,
                             seed: int, tol: float = MEMBERSHIP_TOL,
                             mode: str = "k", steps_hint: int = GRID_STEPS) -> VerificationReport:
    """Monte-Carlo check that Im log a(g exp(iX)) stays in conv(WX).

    Per sample: X uniform in omega, g Haar in K ("k" mode) or k exp(S) with a
    bounded symmetric part ("full-g" mode).  A sample is a violation when the
    hull margin of the imaginary part drops below -tol.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    nn = ctx.n

    def run_chunk(lo, hi):
        rngs = [substream(seed, i) for i in range(lo, hi)]
        xs = np.array([draw_omega_point(ctx, omega, rng) for rng in rngs])
        gs = sample_group_element(ctx, rngs, mode)
        log_full, lower, max_steps, _, bad = track_batch(ctx, gs, xs, steps_hint)
        ok = ~bad
        ys = log_full[:, :nn].imag
        margins = hull_margins_batch(ctx, xs, ys, tol)
        zs = gs[ok] * np.exp(1j * ctx.full_diag(xs[ok]))[:, None, :]
        resid = batch_reconstruction_residual(ctx, zs, log_full[ok], lower[ok])
        return chunk_part(
            margins, bad, max_steps, margins < -tol,
            lambda i: {"sample_index": lo + i, "margin": margins[i],
                       "x": xs[i], "y": ys[i], "g": gs[i]},
            max_reconstruction_residual=np.max(resid, initial=0.0))

    parts = map_chunks(run_chunk, chunk_ranges(samples))
    return _fold_report(
        parts, command="verify-convexity", ctx=ctx, omega=omega, seed=seed,
        requested=samples, tolerances={"membership_tol": tol, **grid_tolerances(steps_hint)},
        extras={"mode": mode, "p_radius": P_RADIUS if mode == "full-g" else 0.0},
    )


# bench/tracer.py wraps this name to time the fold of the convexity sweeps
_fold_report = fold_report


def verify_kostant_real(ctx: GroupContext, samples: int, seed: int,
                        tol: float = MEMBERSHIP_TOL) -> VerificationReport:
    """Containment and vertex sharpness of the real convexity statement.

    Containment: log a(k exp X) lies in conv(WX) for Haar k and X from a
    bounded box.  Sharpness: for every Weyl representative k_w the projection
    of k_w exp(X) equals wX to VERTEX_TOL, so every vertex is attained.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    nn = ctx.n
    helm = helmert(nn) if ctx.family is Family.SPECIAL_LINEAR else None

    def run_chunk(lo, hi):
        count = hi - lo
        rngs = [substream(seed, i) for i in range(lo, hi)]
        if helm is not None:
            xs = np.array([helm @ rng.uniform(-KOSTANT_BOX, KOSTANT_BOX, nn - 1) for rng in rngs])
        else:
            xs = np.array([rng.uniform(-KOSTANT_BOX, KOSTANT_BOX, nn) for rng in rngs])
        ks = haar_k(ctx, rngs)
        a_exps = ctx.a_exp(xs)
        gs = ks @ a_exps
        log_full, lower = project_real_batch(gs)
        ys = log_full[:, :nn]
        margins = hull_margins_batch(ctx, xs, ys, tol)
        resid = batch_reconstruction_residual(ctx, gs, log_full, lower)
        vertex_err = 0.0
        for w, kw in zip(ctx.weyl, ctx.weyl_k):
            gw = np.einsum("ij,bjk->bik", kw, a_exps)
            got = project_real_batch(gw)[0][:, :nn]
            want = xs @ w.T
            vertex_err = max(vertex_err, np.max(np.abs(got - want)))
        return chunk_part(
            margins, np.zeros(count, dtype=bool), None, margins < -tol,
            lambda i: {"sample_index": lo + i, "margin": margins[i], "x": xs[i], "y": ys[i]},
            max_reconstruction_residual=resid.max(), max_vertex_error=vertex_err)

    parts = map_chunks(run_chunk, chunk_ranges(samples))
    report = _fold_report(
        parts, command="verify-kostant", ctx=ctx, omega=None, seed=seed,
        requested=samples, tolerances={"membership_tol": tol, "vertex_tol": VERTEX_TOL},
        extras={"box_halfwidth": KOSTANT_BOX, "weyl_order": len(ctx.weyl)},
    )
    vertex_miss = int(report.extras["max_vertex_error"] > VERTEX_TOL)
    report.violations = min(report.violations + vertex_miss, report.samples_completed)
    return report


def random_k_direction(ctx: GroupContext, rng) -> np.ndarray:
    """Unit tangent direction in the compact subalgebra."""
    t = _k_combination(ctx, rng.standard_normal(len(ctx.basis_k)))
    return t / np.sqrt(metric_inner(ctx, t, t))


def gradient_check(ctx: GroupContext, configs: int, seed: int) -> VerificationReport:
    """Finite-difference and triangular-route validation of grad_f.

    Per configuration: random tube point, Haar k, random covector and tangent
    direction, each drawn from the configuration's own stream.  The pairing of
    the gradient with the direction is compared against a central difference
    of f_{a,lam} and against the independent evaluation through the triangular
    part.  The base points, the +h points and the -h points are each projected
    in one call on all configurations, whose rows keep the bits of one-row
    calls; the gradient and the triangular route are taken row by row.  The
    margin of a configuration is MAX_REL_TOL minus its relative error, so
    min_margin is the slack of the worst one.  A median relative error above
    MEDIAN_REL_TOL adds one violation.
    """
    import scipy.linalg

    if configs < 1:
        raise ValueError("configs must be >= 1")

    def tube_point(rng):
        x = draw_omega_point(ctx, INNER_OMEGA, rng)
        re = 0.3 * rng.standard_normal(ctx.n)
        if ctx.family is Family.SPECIAL_LINEAR:
            re -= re.mean()
        return re + 1j * x

    rngs = [substream(seed, i) for i in range(configs)]
    a_points = np.array([tube_point(rng) for rng in rngs])
    ks = haar_k(ctx, rngs)
    ms = np.array([sample_covector(ctx, rng) for rng in rngs])
    directions = np.array([random_k_direction(ctx, rng) for rng in rngs])
    factors = _project(ctx, a_points, ks)
    exacts, route_gaps = np.empty((2, configs))
    for i in range(configs):
        row = factors[i]
        grad = grad_f(ctx, a_points[i], ks[i], ms[i], row)
        exacts[i] = metric_inner(ctx, directions[i], grad)
        route_gaps[i] = abs(exacts[i] - directional_derivative_triangular(
            ctx, row, ms[i], directions[i]))
    f_plus = f_a_lambda(ctx, a_points, scipy.linalg.expm(FD_STEP * directions) @ ks, ms)
    f_minus = f_a_lambda(ctx, a_points, scipy.linalg.expm(-FD_STEP * directions) @ ks, ms)
    fds = (f_plus - f_minus) / (2.0 * FD_STEP)
    rel_errs = np.abs(exacts - fds) / (1.0 + np.abs(exacts))
    part = chunk_part(
        MAX_REL_TOL - rel_errs, np.zeros(configs, dtype=bool), None,
        (rel_errs > MAX_REL_TOL) | (route_gaps > ROUTE_TOL),
        lambda i: {"sample_index": i, "rel_err": rel_errs[i], "exact": exacts[i], "fd": fds[i]},
        max_rel_err=np.max(rel_errs), max_route_gap=np.max(route_gaps))
    report = _fold_report(
        [part], command="gradient-check", ctx=ctx, omega=INNER_OMEGA, seed=seed,
        requested=configs,
        tolerances={"fd_step": FD_STEP, "median_rel_tol": MEDIAN_REL_TOL,
                    "max_rel_tol": MAX_REL_TOL, "route_agreement_tol": ROUTE_TOL,
                    "group_tol": GROUP_TOL, **grid_tolerances()},
        extras={"median_rel_err": np.median(rel_errs)},
    )
    median_miss = int(report.extras["median_rel_err"] > MEDIAN_REL_TOL)
    report.violations = min(report.violations + median_miss, report.samples_completed)
    return report


def critical_point_scan(ctx: GroupContext, runs: int, seed: int,
                        gap_tol: float = 1e-6, max_iter: int = 1000) -> VerificationReport:
    """Seeded gradient ascents checked against the enumerated Weyl maxima.

    Converged runs whose final value misses max_w lam(i wX) by more than
    gap_tol are violations; non-converged runs are flagged as indeterminate,
    not failed.  The margin of a run is gap_tol minus its gap, so min_margin
    is the slack of the converged run with the largest gap.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    gaps, f_finals, matched = np.empty((3, runs))
    iterations = np.empty(runs, dtype=int)
    converged = np.empty(runs, dtype=bool)
    for i in range(runs):
        rng = substream(seed, i)
        x = sample_regular_direction(ctx, INNER_OMEGA, rng)
        m = sample_covector(ctx, rng)
        k0 = haar_k(ctx, [rng])[0]
        run = ascend_critical(ctx, 1j * x, k0, m, max_iter=max_iter)
        gaps[i], f_finals[i], matched[i] = run.gap, run.f_values[-1], run.matched_weyl_value
        iterations[i], converged[i] = run.iterations, run.converged
    part = chunk_part(
        gap_tol - gaps, ~converged, None, gaps > gap_tol,
        lambda i: {"sample_index": i, "gap": gaps[i], "f_final": f_finals[i],
                   "matched_weyl_value": matched[i]},
        max_gap_converged=np.max(gaps, where=converged, initial=0.0))
    return _fold_report(
        [part], command="critical-points", ctx=ctx, omega=INNER_OMEGA, seed=seed, requested=runs,
        tolerances={"gap_tol": gap_tol, "grad_tol": GRAD_TOL, "group_tol": GROUP_TOL,
                    "regularity_floor": REGULARITY_FLOOR,
                    "armijo_slope": ARMIJO_SLOPE, "armijo_shrink": ARMIJO_SHRINK,
                    "step_cap": STEP_CAP, "step_floor": STEP_FLOOR,
                    **grid_tolerances()},
        extras={"convergence_rate": converged.mean(), "mean_iterations": iterations.mean()},
    )


def lemma24_probe(ctx: GroupContext, samples: int, seed: int) -> VerificationReport:
    """Contrapositive probe: far from the normalizer the unipotent factor is not real.

    X is a regular direction of the polytope scaled by 0.9, drawn from the
    auxiliary stream of seed.  For Haar k rejected to Frobenius distance > 0.1
    from every element of the normalizer of the Cartan subspace, records the
    minimum over samples of the largest entry of |Im n(k exp(iX))|.  Samples
    at or below the engineering floor are counted as violations.  Rows near
    the normalizer are redrawn in rounds, each from its own stream.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    x = sample_regular_direction(ctx, INNER_OMEGA, substream(seed, NS_AUX))
    normalizers = normalizer_elements(ctx)

    def run_chunk(lo, hi):
        count = hi - lo
        rngs = [substream(seed, i) for i in range(lo, hi)]
        gs = haar_k(ctx, rngs)
        near = np.arange(count)
        while True:
            # one row at a time: stacked rows would hold a (rows, |N|, m, m) temporary
            dist = [np.linalg.norm(normalizers - gs[i], axis=(1, 2)).min() for i in near]
            near = near[np.array(dist) <= NORMALIZER_GAP]
            if not near.size:
                break
            gs[near] = haar_k(ctx, [rngs[i] for i in near])
        _, lower, max_steps, _, bad = track_batch(ctx, gs, np.tile(x, (count, 1)))
        im_n = np.max(np.abs(lower.imag), axis=(1, 2))
        return chunk_part(
            im_n, bad, max_steps, im_n <= IM_N_FLOOR,
            lambda i: {"sample_index": lo + i, "im_n": im_n[i], "k": gs[i]})

    parts = map_chunks(run_chunk, chunk_ranges(samples))
    report = _fold_report(
        parts, command="lemma24", ctx=ctx, omega=INNER_OMEGA, seed=seed, requested=samples,
        tolerances={"im_n_floor": IM_N_FLOOR, "normalizer_gap": NORMALIZER_GAP,
                    "regularity_floor": REGULARITY_FLOOR, **grid_tolerances()},
        extras={"x": list(map(float, x))},
    )
    report.extras["min_im_n"] = report.min_margin
    return report
