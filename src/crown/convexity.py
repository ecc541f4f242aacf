"""Log-projection functionals on K, their critical points, and the convexity verifiers.

For a point a of the abelian tube and k in the maximal compact subgroup set
``f_a(k) = log a(k a)`` (tracked branch) and ``f_{a,lam}(k) = lam(f_a(k))`` for
a covector lam vanishing on the real Cartan subspace, given as the plain array
m of the coordinates of M with H_lam = i M.  The derivative of
f_{a,lam} along exp(tX)k is ``kappa_R(X, Ad(n(ka)) H_lam)``, equivalently
``lam(p_a(Ad(b(ka))^{-1} X))`` through the triangular part; both routes are
implemented and cross-checked.  Critical points of f_{a,lam} for regular data
lie in the normalizer of the Cartan subspace, so seeded gradient ascents must
terminate at one of the finitely many values lam(i wX).
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import scipy.linalg

from .errors import (
    BranchBreakdown,
    NonRealValue,
    NotInGroup,
    OmegaViolation,
    RejectionStall,
)
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
    PIVOT_FLOOR,
    RECON_RTOL,
)
from .parallel import chunk_part, chunk_ranges, fold_report, map_chunks
from .report import VerificationReport, group_wire, matrix_wire, vector_wire
from .rng import NS_AUX, substream
from .sampling import (
    P_RADIUS,
    haar_k,
    k_project,
    sample_group_element,
    unitary_embed,
)
from .weyl import (
    FULL_OMEGA,
    MEMBERSHIP_TOL,
    REJECTION_MIN_RATE,
    OmegaSpec,
    apply_weyl,
    draw_omega_point,
    helmert,
    hull_margins_batch,
    omega_margin,
    weyl_elements,
    weyl_orbit,
)

REGULARITY_FLOOR = 1e-3
ARMIJO_SLOPE = 0.1
ARMIJO_SHRINK = 0.5
# step sizes of one speculative Armijo batch: the expansion from 1, then the shrink
ARMIJO_LADDER = (1.0, 2.0, 4.0, 8.0, 0.5, 0.25, 0.125, 0.0625)
STEP_FLOOR = 1e-12
STEP_CAP = 2.0 ** 20
IM_N_FLOOR = 1e-10
NORMALIZER_GAP = 0.1
GRAD_TOL = 1e-6
KOSTANT_BOX = 1.0
VERTEX_TOL = 1e-10
FD_STEP = 1e-5
MEDIAN_REL_TOL = 1e-7
MAX_REL_TOL = 1e-5
ROUTE_TOL = 1e-10


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


def weyl_k_representatives(ctx: GroupContext):
    """(abstract element, matrix in K) pairs realizing the Weyl group.

    Signed permutation matrices; for the special linear family the sign of one
    column is flipped when needed to land in SO(n).  The adjoint action of the
    matrix on Cartan coordinates equals the abstract element's action.
    """
    n = ctx.n
    out = []
    for element in weyl_elements(ctx):
        perm, signs = element
        if ctx.family is Family.SPECIAL_LINEAR:
            mat = np.zeros((n, n))
            mat[perm, range(n)] = 1.0
            if np.linalg.det(mat) < 0.0:
                mat[:, 0] = -mat[:, 0]
        else:
            u = np.zeros((n, n), dtype=complex)
            u[perm, range(n)] = np.where(np.array(signs) > 0, 1.0, 1.0j)
            mat = unitary_embed(ctx, u)
        out.append((element, mat))
    return out


def _sign_diagonals(n, even_only):
    for eps in itertools.product((1.0, -1.0), repeat=n):
        if even_only and np.prod(eps) < 0.0:
            continue
        yield np.array(eps)


def normalizer_elements(ctx: GroupContext) -> np.ndarray:
    """All elements of the normalizer of the Cartan subspace in K."""
    n = ctx.n
    if ctx.family is Family.SPECIAL_LINEAR:
        centr = [np.diag(eps) for eps in _sign_diagonals(n, even_only=True)]
    else:
        centr = [unitary_embed(ctx, np.diag(eps).astype(complex))
                 for eps in _sign_diagonals(n, even_only=False)]
    reps = [mat for _, mat in weyl_k_representatives(ctx)]
    return np.array([r @ z for r in reps for z in centr])


def metric_inner(ctx: GroupContext, x, y) -> float:
    """Riemannian metric on the compact subalgebra: -kappa_R(X, Y)."""
    return float(-2.0 * ctx.killing_scale * np.trace(np.asarray(x) @ np.asarray(y)).real)


def _project(ctx: GroupContext, a_point, k):
    """Factors of k exp(a_point), with the imaginary part of a_point tracked."""
    a_point = np.asarray(a_point, dtype=complex)
    g = np.asarray(k) @ ctx.a_exp(a_point.real)
    return project_complex(ctx, g, a_point.imag)


def f_a(ctx: GroupContext, a_point, k) -> np.ndarray:
    """log a(k exp(a_point)) on the branch tracked from k, as Cartan coordinates."""
    return _project(ctx, a_point, k).log_a


def f_a_lambda(ctx: GroupContext, a_point, k, m) -> float:
    """lam(f_a(k)) through the kappa_R pairing.

    The pairing of a Cartan-space value with i*M is real by construction; a
    broken branch surfaces as a non-finite value and is rejected.
    """
    value = pair_ia(ctx, f_a(ctx, a_point, k), m)
    if not np.isfinite(value):
        raise NonRealValue("functional evaluation is not a finite real number")
    return float(value)


def grad_f(ctx: GroupContext, a_point, k, m) -> np.ndarray:
    """Riemannian gradient of f_{a,lam} at k, as an element of the compact subalgebra.

    Built from the unipotent factor of k exp(a_point): the directional
    derivative along X is kappa_R(X, Ad(n) H_lam), so the gradient is minus the
    metric projection of Ad(n) H_lam onto the compact subalgebra.
    """
    return _grad_from_n(ctx, _project(ctx, a_point, k).n_part, m)


def _grad_from_n(ctx: GroupContext, n_part, m) -> np.ndarray:
    """The gradient of grad_f from the unipotent factor n of k exp(a_point)."""
    h = h_lambda(ctx, m)
    ad_n_h = n_part @ np.linalg.solve(n_part.T, h.T).T
    rhs = -2.0 * ctx.killing_scale * np.einsum("kij,ji->k", ctx.basis_k, ad_n_h).real
    coeff = scipy.linalg.cho_solve(ctx.k_gram_chol, -rhs)
    return np.tensordot(coeff, ctx.basis_k, axes=1)


def directional_derivative_triangular(ctx: GroupContext, a_point, k, m, x_dir) -> float:
    """Derivative of f_{a,lam} along exp(tX)k evaluated through the triangular part.

    Independent route used to cross-check grad_f: lam(p_a(Ad(b)^{-1} X)).
    """
    b = triangular_part(ctx, _project(ctx, a_point, k))
    ad_b_inv = np.linalg.solve(b, np.asarray(x_dir, dtype=complex) @ b)
    return float(pair_ia(ctx, project_a(ctx, ad_b_inv), m))


def weyl_values(ctx: GroupContext, x, m) -> np.ndarray:
    """Values lam(i wX) over the Weyl orbit of x, for the covector with M-coordinates m."""
    orbit = weyl_orbit(ctx, x)
    return -2.0 * ctx.coord_weight * (orbit @ m)


def _evaluate_rows(ctx: GroupContext, ks, base, x_im, m_coords):
    """f_{a,lam} and the unipotent factor at each element of a stack ks, failures kept.

    Row i has the bits of f_a_lambda and of grad_f's projection at ks[i];
    base is exp(Re a_point).  Returns (values, lowers, failures), where
    failures[i] is None or the exception that the scalar evaluation of row i
    would raise.  Nothing is raised here.
    """
    gs = ks @ base
    count, m = gs.shape[0], gs.shape[-1]
    values = np.full(count, np.nan)
    lowers = np.full((count, m, m), np.nan, dtype=complex)
    member = ctx.in_group(gs)
    failures = [None if ok else NotInGroup("base point fails the group membership check")
                for ok in member]
    rows = np.flatnonzero(member)
    if rows.size:
        log_full, lowers[rows], _, bad = track_batch(
            ctx, gs[rows], np.tile(x_im, (rows.size, 1)))
        # the stacked form keeps the bits of pair_ia's 1-D dot on every row
        dots = (np.imag(log_full[:, None, :ctx.n]) @ m_coords[:, None])[:, 0, 0]
        values[rows] = -2.0 * ctx.coord_weight * dots
        for i in rows[bad]:
            failures[i] = BranchBreakdown("branch tracking broke down along the path")
        for i in rows[~bad & ~np.isfinite(values[rows])]:
            failures[i] = NonRealValue("functional evaluation is not a finite real number")
    return values, lowers, failures


def ascend_critical(ctx: GroupContext, a_point, k0, m,
                    max_iter: int = 1000, tol: float = GRAD_TOL) -> CriticalRun:
    """Riemannian gradient ascent of f_{a,lam} with Armijo backtracking.

    Requires regular m and regular imaginary direction.  Non-converged runs
    are returned with converged=False.

    Each step evaluates the step sizes of ARMIJO_LADDER as one batch and runs
    the Armijo expansion and shrink over the cached rows; a further batch is
    evaluated only when the search runs past the cache.  A row fails (raises)
    only when the search consumes it, so the run takes the steps, values and
    exceptions of one scalar evaluation per trial, bit for bit.
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
        raise OmegaViolation("direction lies outside the admissible polytope")
    base = ctx.a_exp(a_point.real)
    m = np.asarray(m, dtype=float)
    k = np.asarray(k0, dtype=float)
    values, lowers, failures = _evaluate_rows(ctx, k[None], base, x_im, m)
    if failures[0] is not None:
        raise failures[0]
    f_cur, n_cur = float(values[0]), lowers[0]
    f_values = [f_cur]
    grad_norm = np.inf
    iterations = 0
    converged = False
    for iterations in range(max_iter + 1):
        grad = _grad_from_n(ctx, n_cur, m)
        sq_norm = metric_inner(ctx, grad, grad)
        grad_norm = np.sqrt(max(sq_norm, 0.0))
        if grad_norm < tol:
            converged = True
            break
        if iterations == max_iter:
            break
        cache = {}

        def trial(eta):
            if eta not in cache:
                if cache:
                    ratio = 2.0 if eta > 1.0 else ARMIJO_SHRINK
                    etas = eta * ratio ** np.arange(len(ARMIJO_LADDER))
                else:
                    etas = np.array(ARMIJO_LADDER)
                ks = k_project(ctx, scipy.linalg.expm(etas[:, None, None] * grad) @ k)
                rows = _evaluate_rows(ctx, ks, base, x_im, m)
                cache.update(zip(etas.tolist(), zip(ks, *rows)))
            k_t, f_t, n_t, failure = cache[eta]
            if failure is not None:
                raise failure
            return k_t, float(f_t), n_t

        eta = 1.0
        k_trial, f_trial, n_trial = trial(eta)
        if f_trial >= f_cur + ARMIJO_SLOPE * eta * sq_norm:
            # flat ridges want steps far above 1; expand while the slope test holds
            while eta < STEP_CAP:
                k_next, f_next, n_next = trial(2.0 * eta)
                if f_next < f_cur + ARMIJO_SLOPE * 2.0 * eta * sq_norm or f_next <= f_trial:
                    break
                eta *= 2.0
                k_trial, f_trial, n_trial = k_next, f_next, n_next
        else:
            stalled = True
            while eta >= STEP_FLOOR:
                eta *= ARMIJO_SHRINK
                k_trial, f_trial, n_trial = trial(eta)
                if f_trial >= f_cur + ARMIJO_SLOPE * eta * sq_norm:
                    stalled = False
                    break
            if stalled:
                break
        k, f_cur, n_cur = k_trial, f_trial, n_trial
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
    raise RejectionStall(
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
        log_full, lower, max_steps, bad = track_batch(ctx, gs, xs, steps_hint)
        ok = ~bad
        ys = log_full[:, :nn].imag
        margins = hull_margins_batch(ctx, xs, ys, tol)
        zs = gs[ok] * np.exp(1j * ctx.full_diag(xs[ok]))[:, None, :]
        resid = batch_reconstruction_residual(
            ctx, zs, log_full[ok], lower[ok]) if ok.any() else np.zeros(0)
        return chunk_part(
            margins, bad, max_steps, margins < -tol,
            lambda i: {"sample_index": lo + i, "margin": float(margins[i]),
                       "x": vector_wire(xs[i]), "y": vector_wire(ys[i]),
                       "g": matrix_wire(gs[i])},
            max_reconstruction_residual=float(resid.max()) if resid.size else 0.0)

    parts = map_chunks(run_chunk, chunk_ranges(samples))
    return _fold_report(
        parts, command="verify-convexity", ctx=ctx, omega=omega, seed=seed,
        samples=samples, tol=tol,
        extras={"mode": mode, "p_radius": P_RADIUS if mode == "full-g" else 0.0},
        steps_hint=steps_hint,
    )


def _fold_report(parts, *, command, ctx, omega, seed, samples, tol,
                 extras, steps_hint=GRID_STEPS) -> VerificationReport:
    return fold_report(
        parts, command=command, ctx=ctx, omega=omega, seed=seed, requested=samples,
        tolerances={"membership_tol": tol, "pivot_floor": PIVOT_FLOOR,
                    **grid_tolerances(steps_hint), "reconstruction_rtol": RECON_RTOL,
                    "group_tol": GROUP_TOL},
        extras=extras,
    )


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
    reps = weyl_k_representatives(ctx)
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
        for element, kw in reps:
            gw = np.einsum("ij,bjk->bik", kw, a_exps)
            got = project_real_batch(gw)[0][:, :nn]
            want = apply_weyl(xs, element)
            vertex_err = max(vertex_err, float(np.max(np.abs(got - want))))
        return chunk_part(
            margins, np.zeros(count, dtype=bool), np.zeros(count), margins < -tol,
            lambda i: {"sample_index": lo + i, "margin": float(margins[i]),
                       "x": vector_wire(xs[i]), "y": vector_wire(ys[i])},
            max_reconstruction_residual=float(resid.max()), max_vertex_error=vertex_err)

    parts = map_chunks(run_chunk, chunk_ranges(samples))
    report = _fold_report(
        parts, command="verify-kostant", ctx=ctx, omega=None, seed=seed,
        samples=samples, tol=tol,
        extras={"box_halfwidth": KOSTANT_BOX, "vertex_tol": VERTEX_TOL,
                "weyl_order": len(reps)},
    )
    vertex_miss = int(report.extras["max_vertex_error"] > VERTEX_TOL)
    report.violations = min(report.violations + vertex_miss, report.samples_completed)
    return report


def random_k_direction(ctx: GroupContext, rng) -> np.ndarray:
    """Unit tangent direction in the compact subalgebra."""
    coeff = rng.standard_normal(len(ctx.basis_k))
    t = np.tensordot(coeff, ctx.basis_k, axes=1)
    return t / np.sqrt(metric_inner(ctx, t, t))


def gradient_check(ctx: GroupContext, configs: int, seed: int) -> VerificationReport:
    """Finite-difference and triangular-route validation of grad_f.

    Per configuration: random tube point, Haar k, random covector and tangent
    direction.  The pairing of the gradient with the direction is compared
    against a central difference of f_{a,lam} and against the independent
    evaluation through the triangular part.  A median relative error above
    MEDIAN_REL_TOL adds one violation.
    """
    if configs < 1:
        raise ValueError("configs must be >= 1")
    rel_errs = np.empty(configs)
    pair_errs = np.empty(configs)
    witness = None
    worst = -np.inf
    for i in range(configs):
        rng = substream(seed, i)
        x = draw_omega_point(ctx, OmegaSpec("scale", scale=0.9), rng)
        re = 0.3 * rng.standard_normal(ctx.n)
        if ctx.family is Family.SPECIAL_LINEAR:
            re -= re.mean()
        a_point = re + 1j * x
        k = haar_k(ctx, [rng])[0]
        m = sample_covector(ctx, rng)
        direction = random_k_direction(ctx, rng)
        grad = grad_f(ctx, a_point, k, m)
        exact = metric_inner(ctx, direction, grad)
        f_plus = f_a_lambda(ctx, a_point, scipy.linalg.expm(FD_STEP * direction) @ k, m)
        f_minus = f_a_lambda(ctx, a_point, scipy.linalg.expm(-FD_STEP * direction) @ k, m)
        fd = (f_plus - f_minus) / (2.0 * FD_STEP)
        rel_errs[i] = abs(exact - fd) / (1.0 + abs(exact))
        other = directional_derivative_triangular(ctx, a_point, k, m, direction)
        pair_errs[i] = abs(exact - other)
        if rel_errs[i] > worst:
            worst = rel_errs[i]
            witness = {"sample_index": i, "rel_err": float(rel_errs[i]),
                       "exact": float(exact), "fd": float(fd)}
    violations = int(np.sum((rel_errs > MAX_REL_TOL) | (pair_errs > ROUTE_TOL)))
    median_miss = int(np.median(rel_errs) > MEDIAN_REL_TOL)
    return VerificationReport(
        command="gradient-check",
        group=group_wire(ctx),
        seed=seed,
        samples_requested=configs,
        violations=min(violations + median_miss, configs),
        worst_witness=witness,
        tolerance_set={"fd_step": FD_STEP, "median_rel_tol": MEDIAN_REL_TOL,
                       "max_rel_tol": MAX_REL_TOL, "route_agreement_tol": ROUTE_TOL,
                       "pivot_floor": PIVOT_FLOOR, **grid_tolerances()},
        extras={"median_rel_err": float(np.median(rel_errs)),
                "max_rel_err": float(np.max(rel_errs)),
                "max_route_gap": float(np.max(pair_errs))},
    )


def critical_point_scan(ctx: GroupContext, runs: int, seed: int,
                        gap_tol: float = 1e-6, max_iter: int = 1000) -> VerificationReport:
    """Seeded gradient ascents checked against the enumerated Weyl maxima.

    Converged runs whose final value misses max_w lam(i wX) by more than
    gap_tol are violations; non-converged runs are flagged as indeterminate,
    not failed.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    omega = OmegaSpec("scale", scale=0.9)
    converged = 0
    violations = 0
    indeterminate = 0
    max_gap = 0.0
    total_iter = 0
    witness = None
    for i in range(runs):
        rng = substream(seed, i)
        x = sample_regular_direction(ctx, omega, rng)
        m = sample_covector(ctx, rng)
        k0 = haar_k(ctx, [rng])[0]
        run = ascend_critical(ctx, 1j * x, k0, m, max_iter=max_iter)
        total_iter += run.iterations
        if not run.converged:
            indeterminate += 1
            continue
        converged += 1
        if run.gap > max_gap:
            max_gap = run.gap
            witness = {"sample_index": i, "gap": float(run.gap),
                       "f_final": float(run.f_values[-1]),
                       "matched_weyl_value": float(run.matched_weyl_value)}
        if run.gap > gap_tol:
            violations += 1
    return VerificationReport(
        command="critical-points",
        group=group_wire(ctx),
        omega=omega.as_dict(),
        seed=seed,
        samples_requested=runs,
        samples_indeterminate=indeterminate,
        violations=violations,
        worst_witness=witness,
        tolerance_set={"gap_tol": gap_tol, "grad_tol": GRAD_TOL,
                       "regularity_floor": REGULARITY_FLOOR,
                       "armijo_slope": ARMIJO_SLOPE, "armijo_shrink": ARMIJO_SHRINK},
        extras={"convergence_rate": converged / runs,
                "max_gap_converged": max_gap,
                "mean_iterations": total_iter / runs},
    )


def lemma24_probe(ctx: GroupContext, samples: int, seed: int) -> VerificationReport:
    """Contrapositive probe: far from the normalizer the unipotent factor is not real.

    X is a regular direction of the polytope scaled by 0.9, drawn from the
    auxiliary stream of seed.  For Haar k rejected to Frobenius distance > 0.1
    from every element of the normalizer of the Cartan subspace, records the
    minimum over samples of the largest entry of |Im n(k exp(iX))|.  Samples
    at or below the engineering floor are counted as violations.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    x = sample_regular_direction(ctx, OmegaSpec("scale", scale=0.9), substream(seed, NS_AUX))
    normalizers = normalizer_elements(ctx)

    def draw_far_k(rng):
        while True:
            k = haar_k(ctx, [rng])[0]
            dist = np.min(np.linalg.norm(normalizers - k[None], axis=(1, 2)))
            if dist > NORMALIZER_GAP:
                return k

    def run_chunk(lo, hi):
        count = hi - lo
        gs = np.empty((count, ctx.ambient_size, ctx.ambient_size))
        for i in range(count):
            gs[i] = draw_far_k(substream(seed, lo + i))
        _, lower, max_steps, bad = track_batch(ctx, gs, np.tile(x, (count, 1)))
        im_n = np.max(np.abs(lower.imag), axis=(1, 2))
        return chunk_part(
            im_n, bad, max_steps, im_n <= IM_N_FLOOR,
            lambda i: {"sample_index": lo + i, "im_n": float(im_n[i]),
                       "k": matrix_wire(gs[i])})

    parts = map_chunks(run_chunk, chunk_ranges(samples))
    report = _fold_report(
        parts, command="lemma24", ctx=ctx, omega=None, seed=seed,
        samples=samples, tol=IM_N_FLOOR,
        extras={"x": list(map(float, x))},
    )
    report.tolerance_set.update(im_n_floor=IM_N_FLOOR, normalizer_gap=NORMALIZER_GAP,
                                regularity_floor=REGULARITY_FLOOR)
    report.extras["min_im_n"] = report.min_margin
    return report
