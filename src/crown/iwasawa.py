"""Iwasawa factorization and its holomorphically tracked middle projection.

For z in the complexified group write z = n a k with n unit lower triangular,
a diagonal and k orthogonal (complex-orthogonal in the extension).  Then
``z z^T = n a^2 n^T`` because ``k k^T = I``, so the leading principal minors
Delta_j of z z^T satisfy ``a_j^2 = Delta_j / Delta_{j-1}``.  One elimination
pass produces the ratios as pivots and the unipotent factor as the multiplier
matrix.

On points ``z = g exp(iX)`` with g real and X inside the admissible polytope
the logarithm ``log a`` is determined by continuity along ``t -> g exp(itX)``
from the positive-definite real point at t = 0.  The branch is tracked by
unwrapping the arguments of the m pivot ratios: each step of the parameter
grid must move every ratio argument by less than pi/2, offending steps are
bisected, and the total number of segments is capped.

Both kernels are batch-first.  _path_ratios forms the T grid matrices of a
path with one (T m) x m product, and _ldl eliminates a whole stack on one copy
with the batch axis last, so each numpy call works on contiguous data across
the stack.  Each matrix of a stack gets the bits of its own single call, and
the stacked product keeps the bits of one product per grid matrix
(tests/oracles.py holds the per-matrix reference).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import (
    BranchBreakdown,
    NotInGroup,
    NumericalBreakdown,
    OmegaViolation,
    PivotBreakdown,
)
from .groups import GroupContext
from .weyl import FULL_OMEGA, omega_margin

PIVOT_FLOOR = 1e-13
ARG_STEP_CAP = np.pi / 2.0
MAX_SEGMENTS = 2 ** 14
RECON_RTOL = 1e-10
SYM_TOL = 1e-10
# parameter-grid segments per tracked path before any bisection
GRID_STEPS = 16
_TINY = np.finfo(float).tiny


@dataclasses.dataclass
class IwasawaFactors:
    """Factor triple (n, log a, k) with branch-tracking metadata.

    log_a holds Cartan coordinates (complex); the diagonal matrix is recovered
    through the context.  log_full is the tracked diagonal of log a, all m
    entries as the elimination gives them; log_a is its leading n.
    """

    n_part: np.ndarray
    log_a: np.ndarray
    k_part: np.ndarray
    path_steps: int
    max_arg_step: float
    log_full: np.ndarray


def _ldl(mat):
    """Batched one-pass LDL^T elimination without pivoting.

    mat has shape (..., m, m).  Returns (ratios, unit_lower, minors) where
    ratios[..., j] is Delta_j / Delta_{j-1} and minors[..., j] is |Delta_j|
    divided by the Hadamard bound of the leading j rows.  A nonpositive or NaN
    normalized minor flags a degenerate one.

    The elimination runs on one C-contiguous (m, m, N) copy with the batch
    axis last, so each numpy call sweeps all N matrices at once.  Every step is
    elementwise, so each matrix of a stack gets the bits of its own call; a
    zero pivot leaves inf or NaN in its own matrix only.  ratios and minors are
    C-contiguous; unit_lower is a transposed view of the batch-last buffer.
    """
    mat = np.asarray(mat)
    lead, m = mat.shape[:-2], mat.shape[-1]
    count = math.prod(lead)
    dtype = np.promote_types(mat.dtype, np.float64)
    work = mat.reshape((count, m, m)).transpose(1, 2, 0).astype(dtype, order="C")
    lower = np.zeros((m, m, count), dtype=dtype)
    lower.reshape((m * m, count))[:: m + 1] = 1.0
    ratios = np.empty((count, m), dtype=dtype)
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(m):
            # operands keep all three axes: for N = 1 a broadcast that adds an
            # axis sends numpy's complex multiply to a loop with other rounding
            piv = work[j:j + 1, j]
            ratios[:, j] = piv[0]
            if j + 1 < m:
                col = work[j + 1:, j] / piv
                lower[j + 1:, j] = col
                work[j + 1:, j + 1:] -= col[:, None, :] * work[j:j + 1, j + 1:]
        ratios = ratios.reshape(lead + (m,))
        row_norms = np.sqrt(np.sum(np.abs(mat) ** 2, axis=-1))
        hadamard = np.maximum(np.cumprod(row_norms, axis=-1), _TINY)
        minors = np.abs(np.cumprod(ratios, axis=-1)) / hadamard
    return ratios, lower.transpose(2, 0, 1).reshape(lead + (m, m)), minors


def normalized_minors(mat) -> np.ndarray:
    """|Delta_j| scaled by the Hadamard bound of the leading j rows."""
    return _ldl(mat)[2]


def minor_ratios(mat) -> np.ndarray:
    """Leading-principal-minor ratios (Delta_1/Delta_0, ..., Delta_m/Delta_{m-1}).

    The input must be symmetric to 1e-10.  Raises PivotBreakdown when a minor
    degenerates below the normalized floor.
    """
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("expected a square matrix")
    scale = 1.0 + float(np.max(np.abs(mat)))
    if np.max(np.abs(mat - mat.T)) > SYM_TOL * scale:
        raise ValueError("matrix is not symmetric to working precision")
    ratios, _, _ = _ldl(mat)
    norm = normalized_minors(mat)
    bad = np.flatnonzero(~(norm >= PIVOT_FLOOR))
    if bad.size:
        j = int(bad[0])
        raise PivotBreakdown(f"minor {j + 1} degenerated (normalized size {norm[j]:.3e})")
    return ratios


def _path_ratios(ctx: GroupContext, g, coords):
    """Ratios of M(t) = g exp(2i diag(x_t)) g^T for a batch of diagonal paths.

    g has shape (..., m, m); coords has shape (..., T, n).  Returns (ratios,
    unit_lower, floor) with floor the smallest normalized minor of each M(t).
    The T scaled copies of each g are stacked into one (T m) x m block, so
    each path takes one matrix product.
    """
    g = np.asarray(g)
    lead, m = g.shape[:-2], g.shape[-1]
    steps = coords.shape[-2]
    diag = np.exp(2j * ctx.full_diag(coords))        # (..., T, m)
    tmp = g[..., None, :, :] * diag[..., None, :]
    block = tmp.reshape(lead + (steps * m, m)) @ np.swapaxes(g, -1, -2)
    ratios, lower, minors = _ldl(block.reshape(lead + (steps, m, m)))
    return ratios, lower, np.min(minors, axis=-1)


def _refine(ss, bad):
    mids = 0.5 * (ss[bad] + ss[bad + 1])
    return np.sort(np.concatenate([ss, mids]))


def _track(ctx: GroupContext, g, x, steps_hint: int):
    """Continuous branch of the log minor ratios along t -> tX from direction 0.

    The path starts at the real point g.  Returns half of the tracked log
    ratios (the full diagonal of log a), the final unit lower factor, the
    number of grid segments used and the largest per-step argument move.
    """
    g = np.asarray(g, dtype=float)
    # coords and arg are sums with a zero start, so a signed zero comes out as +0.0
    start = np.zeros(ctx.n)
    ss = np.linspace(0.0, 1.0, max(int(steps_hint), 1) + 1)
    while True:
        coords = start + ss[:, None] * (x - start)[None, :]
        ratios, lower, floor = _path_ratios(ctx, g, coords)
        if not np.all(floor >= PIVOT_FLOOR):
            t_bad = float(ss[int(np.argmin(floor))])
            raise BranchBreakdown(f"minor degenerated along the path near t={t_bad:.6f}")
        dphi = np.angle(ratios[1:] / ratios[:-1])
        bad = np.flatnonzero(np.max(np.abs(dphi), axis=1) >= ARG_STEP_CAP)
        if not bad.size:
            break
        if len(ss) + bad.size - 1 > MAX_SEGMENTS:
            raise BranchBreakdown("subdivision cap exceeded while tracking the branch")
        ss = _refine(ss, bad)
    arg = np.zeros(ctx.ambient_size) + dphi.sum(axis=0)
    log_full = 0.5 * (np.log(np.abs(ratios[-1])) + 1j * arg)
    return log_full, lower[-1], len(ss) - 1, float(np.max(np.abs(dphi)))


def _assemble(ctx: GroupContext, z, log_full, lower, steps, max_step):
    """Factors of z from its log diagonal and unit lower factor."""
    a_diag = np.exp(log_full)
    k = np.linalg.solve(lower, z) / a_diag[:, None]
    return IwasawaFactors(
        n_part=lower, log_a=log_full[: ctx.n], k_part=k,
        path_steps=steps, max_arg_step=max_step, log_full=log_full,
    )


def project_complex(ctx: GroupContext, g, x) -> IwasawaFactors:
    """Factors of z = g exp(iX) on the continuous branch anchored at t = 0.

    g must be a real group element and X must lie in the admissible polytope.
    The result does not depend on the path to X inside the polytope, because
    the target tube is simply connected.
    """
    x = np.asarray(x, dtype=float)
    if omega_margin(ctx, FULL_OMEGA, x) <= 0.0:
        raise OmegaViolation("direction lies outside the admissible polytope")
    if not ctx.in_group(g):
        raise NotInGroup("base point fails the group membership check")
    log_full, lower, steps, max_step = _track(ctx, g, x, GRID_STEPS)
    z = np.asarray(g) @ ctx.a_exp(1j * x)
    return _assemble(ctx, z, log_full, lower, steps, max_step)


def project_real_batch(g):
    """Real Iwasawa projection of a batch of real matrices, shape (B, m, m).

    One LDL^T elimination of g g^T gives the squared diagonal of a as pivots
    and the unipotent factor as multipliers.  Returns (log_full, lower); rows
    with a nonpositive pivot hold non-finite log values.
    """
    g = np.asarray(g, dtype=float)
    ratios, lower, _ = _ldl(g @ np.swapaxes(g, -1, -2))
    with np.errstate(divide="ignore", invalid="ignore"):
        return 0.5 * np.log(ratios), lower


def decompose_real(ctx: GroupContext, g) -> IwasawaFactors:
    """Real Iwasawa factorization via LDL^T of g g^T."""
    g = np.asarray(g, dtype=float)
    if not ctx.in_group(g):
        raise NotInGroup("matrix fails the group membership check")
    log_full, lower = project_real_batch(g[None])
    if not np.all(np.isfinite(log_full)):
        raise NumericalBreakdown("nonpositive pivot for a claimed group element")
    return _assemble(ctx, g, log_full[0], lower[0], 0, 0.0)


def triangular_part(ctx: GroupContext, factors: IwasawaFactors) -> np.ndarray:
    """b = n a, lower triangular with diagonal exp(log a)."""
    diag = np.exp(ctx.full_diag(factors.log_a))
    return factors.n_part * diag[None, :]


def grid_tolerances(steps_hint: int = GRID_STEPS) -> dict:
    """The tracking rule a report ran under: argument-step cap, starting grid, segment cap."""
    return {"arg_step_cap": ARG_STEP_CAP, "grid_steps": max(int(steps_hint), 1),
            "max_segments": MAX_SEGMENTS}


def track_batch(ctx: GroupContext, g, xs, steps_hint: int = GRID_STEPS):
    """Vectorized branch tracking for a batch of (g_i, X_i) pairs.

    Runs the whole batch on one uniform grid and falls back to the adaptive
    scalar tracker for samples whose grid was too coarse, so per-sample results
    do not depend on the batch composition.

    Returns (log_full, lower, max_steps, bad) where bad marks samples whose
    tracking broke down; their rows are NaN.
    """
    g = np.asarray(g, dtype=float)
    xs = np.asarray(xs, dtype=float)
    batch = g.shape[0]
    ts = np.linspace(0.0, 1.0, max(int(steps_hint), 1) + 1)
    coords = ts[None, :, None] * xs[:, None, :]
    ratios, lower, floor = _path_ratios(ctx, g, coords)
    with np.errstate(invalid="ignore"):
        dphi = np.angle(ratios[:, 1:, :] / ratios[:, :-1, :])
    max_steps = np.max(np.abs(dphi), axis=(1, 2))
    floor_ok = np.all(floor >= PIVOT_FLOOR, axis=1)
    coarse = max_steps >= ARG_STEP_CAP
    log_full = 0.5 * (np.log(np.abs(ratios[:, -1, :])) + 1j * dphi.sum(axis=1))
    lower_last = lower[:, -1, :, :].copy()
    bad = np.zeros(batch, dtype=bool)
    for i in np.flatnonzero(~floor_ok | coarse):
        try:
            lf, ll, _, ms = _track(ctx, g[i], xs[i], steps_hint)
        except BranchBreakdown:
            bad[i] = True
            log_full[i] = np.nan
            continue
        log_full[i] = lf
        lower_last[i] = ll
        max_steps[i] = ms
    return log_full, lower_last, max_steps, bad


def batch_reconstruction_residual(ctx: GroupContext, z, log_full, lower) -> np.ndarray:
    """Relative residuals of the factor products n exp(log a) k against a batch z."""
    z = np.asarray(z)
    a_diag = np.exp(log_full)
    k = np.linalg.solve(lower, z) / a_diag[:, :, None]
    diag_sym = np.exp(ctx.full_diag(log_full[:, : ctx.n]))
    recon = (lower * diag_sym[:, None, :]) @ k
    num = np.linalg.norm(recon - z, axis=(1, 2))
    den = np.maximum(np.linalg.norm(z, axis=(1, 2)), _TINY)
    return num / den
