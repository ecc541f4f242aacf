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
grid must move every ratio argument by less than pi/2, the offending paths are
tracked again together on a grid twice as fine, and the number of segments is
capped.  track_batch is the one tracker; project_complex checks its rows and
tracks them in one call, a single point as a batch of one.

track_batch runs a batch in blocks of rows whose complex grid takes about
TRACK_BLOCK_BYTES (64 KiB).  A block's temporaries stay in cache, and the heap
hands the same pages to the next block.  A grid of a few hundred rows is
megabytes a temporary, and larger blocks leave enough free memory at the heap
top for the allocator to return it to the kernel after each block and fault it
in again at the next.  Every operation is per row, so a row's bits do not
depend on the block it lands in.

Both kernels are batch-first.  _path_ratios forms the T grid matrices of a
path with one (T m) x m product, and _ldl eliminates a whole stack on one copy
with the batch axis last, so each numpy call works on contiguous data across
the stack.  It forms the Hadamard bound of its normalized minors in the same
layout: numpy sums each row (over axis 1 below 8 terms, on a contiguous copy
from 8 on) and np.multiply.accumulate takes the running products, so the bits
stay those of a sum and a cumprod along each matrix's rows.  Each matrix of a
stack gets the bits of its own single call, and the stacked product keeps the
bits of one product per grid matrix (tests/oracles.py is the reference).
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .errors import NumericalBreakdown
from .groups import GroupContext
from .weyl import FULL_OMEGA, omega_margin

PIVOT_FLOOR = 1e-13
ARG_STEP_CAP = np.pi / 2.0
MAX_SEGMENTS = 2 ** 14
SYM_TOL = 1e-10
# parameter-grid segments per tracked path before any retry on a finer grid
GRID_STEPS = 16
# bytes of complex grid, (rows, steps + 1, m, m), per block of rows track_batch tracks at once
TRACK_BLOCK_BYTES = 2 ** 16
_TINY = np.finfo(float).tiny


@dataclasses.dataclass
class IwasawaFactors:
    """The factors n and log a of z = n a k, rows of the tracker, with their statistics.

    Each field carries the leading axes of the rows; a single point has an
    int path_steps and a float max_arg_step.  log_a holds Cartan coordinates
    (complex); log_full is the tracked diagonal of log a, all m entries as the
    elimination gives them, and log_a is its leading n.  k is not kept:
    k_factor solves for it where it is read.
    """

    n_part: np.ndarray
    log_a: np.ndarray
    path_steps: int | np.ndarray
    max_arg_step: float | np.ndarray
    log_full: np.ndarray


def _row_sums(sq):
    """sq summed over axis 1 with the bits numpy's sum gives each contiguous row.

    Below 8 terms numpy's pairwise sum adds in order, as a sum over axis 1
    does; from 8 terms on numpy sums a contiguous copy of the rows itself.
    """
    if sq.shape[1] < 8:
        return sq.sum(axis=1)
    return np.ascontiguousarray(np.swapaxes(sq, 1, 2)).sum(axis=-1)


def _ldl(mat):
    """Batched one-pass LDL^T elimination without pivoting.

    mat has shape (..., m, m).  Returns (ratios, unit_lower, minors) where
    ratios[..., j] is Delta_j / Delta_{j-1} and minors[..., j] is |Delta_j|
    divided by the Hadamard bound of the leading j rows.  A nonpositive or NaN
    normalized minor flags a degenerate one.

    The elimination runs on one C-contiguous (m, m, N) copy with the batch
    axis last, so each numpy call sweeps all N matrices at once.  The Hadamard
    bound is formed from the same copy before the elimination overwrites it:
    on a batch-first stack, the sum and the running products along rows of
    length m cost more than the elimination itself.  Every step is
    elementwise, so each matrix of a stack gets the bits of its own call; a
    zero pivot leaves inf or NaN in its own matrix only.  The bits are those
    of a batch-first sum and cumprod along each matrix's rows
    (tests/oracles.py).  Below 8 terms the axis-1 sum has numpy's pairwise
    bits; from 8 on numpy sums a contiguous copy.  np.multiply.accumulate runs
    the scalar loop cumprod runs; a product of two whole rows goes to numpy's
    SIMD complex multiply instead, which rounds differently on some CPUs.
    ratios and minors are C-contiguous, because later numpy calls on strided
    operands can round differently; unit_lower is a transposed view of the
    batch-last buffer.
    """
    mat = np.asarray(mat)
    lead, m = mat.shape[:-2], mat.shape[-1]
    count = math.prod(lead)
    dtype = np.promote_types(mat.dtype, np.float64)
    work = mat.reshape((count, m, m)).transpose(1, 2, 0).astype(dtype, order="C")
    lower = np.zeros((m, m, count), dtype=dtype)
    lower.reshape((m * m, count))[:: m + 1] = 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        row_norms = np.sqrt(_row_sums(np.abs(work) ** 2))
        hadamard = np.maximum(np.multiply.accumulate(row_norms, axis=0), _TINY)
        for j in range(m - 1):
            # operands keep all three axes: for N = 1 a broadcast that adds an
            # axis sends numpy's complex multiply to a loop with other rounding
            col = work[j + 1:, j] / work[j:j + 1, j]
            lower[j + 1:, j] = col
            work[j + 1:, j + 1:] -= col[:, None, :] * work[j:j + 1, j + 1:]
        # each pivot is final once its column is eliminated: the diagonal holds them all
        pivots = work.reshape((m * m, count))[:: m + 1]
        minors = np.abs(np.multiply.accumulate(pivots, axis=0)) / hadamard
    return (pivots.T.copy().reshape(lead + (m,)), lower.transpose(2, 0, 1).reshape(lead + (m, m)),
            minors.T.copy().reshape(lead + (m,)))


def normalized_minors(mat) -> np.ndarray:
    """|Delta_j| scaled by the Hadamard bound of the leading j rows."""
    return _ldl(mat)[2]


def minor_ratios(mat) -> np.ndarray:
    """Leading-principal-minor ratios (Delta_1/Delta_0, ..., Delta_m/Delta_{m-1}).

    The input must be symmetric to 1e-10.  Raises NumericalBreakdown when a minor
    degenerates below the normalized floor.
    """
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("expected a square matrix")
    # ndarray methods skip numpy's Python-level dispatch, which shows on one matrix
    scale = 1.0 + float(np.abs(mat).max())
    if np.abs(mat - mat.T).max() > SYM_TOL * scale:
        raise ValueError("matrix is not symmetric to working precision")
    ratios, _, _ = _ldl(mat)
    norm = normalized_minors(mat)
    bad = (~(norm >= PIVOT_FLOOR)).nonzero()[0]
    if bad.size:
        j = int(bad[0])
        raise NumericalBreakdown(f"minor {j + 1} degenerated (normalized size {norm[j]:.3e})")
    return ratios


def _path_ratios(ctx: GroupContext, g, coords):
    """Ratios of M(t) = g exp(2i diag(x_t)) g^T for a batch of diagonal paths.

    g has shape (..., m, m); coords has shape (..., T, n).  Returns (ratios,
    unit_lower, minors) of the T grid matrices of each path, as _ldl gives
    them.  The T scaled copies of each g are stacked into one (T m) x m block,
    so each path takes one matrix product.
    """
    g = np.asarray(g)
    lead, m = g.shape[:-2], g.shape[-1]
    steps = coords.shape[-2]
    diag = np.exp(2j * ctx.full_diag(coords))        # (..., T, m)
    # the scaled copies are a temporary, freed before the elimination starts
    block = (g[..., None, :, :] * diag[..., None, :]).reshape(lead + (steps * m, m)) \
        @ np.swapaxes(g, -1, -2)
    return _ldl(block.reshape(lead + (steps, m, m)))


def project_complex(ctx: GroupContext, g, x) -> IwasawaFactors:
    """Factors of z = g exp(iX) on the continuous branch anchored at t = 0, for rows.

    g (shape (..., m, m)) must hold real group elements and x (shape (..., n))
    directions in the admissible polytope.  The result does not depend on the
    path to X inside the polytope, because the target tube is simply connected.
    This is one track_batch call on every row; a row that comes back bad raises
    NumericalBreakdown.  The fields carry the leading axes, and each row has the
    bits of its own call.  A single point is a batch of one, whose path_steps is
    an int and max_arg_step a float.  No k is solved for: k_factor gives it from
    z = g exp(iX) and these factors.
    """
    g = np.asarray(g, dtype=float)
    x = np.asarray(x, dtype=float)
    lead, m = x.shape[:-1], g.shape[-1]
    gs, xs = g.reshape(-1, m, m), x.reshape(-1, x.shape[-1])
    if (omega_margin(ctx, FULL_OMEGA, xs) <= 0.0).any():
        raise ValueError("direction lies outside the admissible polytope")
    if not ctx.in_group(gs).all():
        raise ValueError("base point fails the group membership check")
    log_full, lower, max_steps, segments, bad = track_batch(ctx, gs, xs)
    if bad.any():
        raise NumericalBreakdown("a minor degenerated along the path or the segment cap was reached")
    log_full = log_full.reshape(lead + (m,))
    path_steps, max_arg_step = segments.reshape(lead), max_steps.reshape(lead)
    if not lead:
        path_steps, max_arg_step = int(path_steps), float(max_arg_step)
    return IwasawaFactors(n_part=lower.reshape(lead + (m, m)), log_a=log_full[..., : ctx.n],
                          path_steps=path_steps, max_arg_step=max_arg_step, log_full=log_full)


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
        raise ValueError("matrix fails the group membership check")
    log_full, lower = project_real_batch(g[None])
    if not np.all(np.isfinite(log_full)):
        raise NumericalBreakdown("nonpositive pivot for a claimed group element")
    return IwasawaFactors(n_part=lower[0], log_a=log_full[0, : ctx.n], path_steps=0,
                          max_arg_step=0.0, log_full=log_full[0])


def triangular_part(ctx: GroupContext, factors: IwasawaFactors) -> np.ndarray:
    """b = n a, lower triangular with diagonal exp(log a), for rows."""
    diag = np.exp(ctx.full_diag(factors.log_a))
    return factors.n_part * diag[..., None, :]


def grid_tolerances(steps_hint: int = GRID_STEPS) -> dict:
    """The tracking rule a report ran under: argument-step cap, starting grid,
    segment cap, and the pivot floor applied to every grid matrix."""
    return {"arg_step_cap": ARG_STEP_CAP, "grid_steps": max(int(steps_hint), 1),
            "max_segments": MAX_SEGMENTS, "pivot_floor": PIVOT_FLOOR}


@functools.lru_cache(maxsize=32)
def _grid(steps: int) -> np.ndarray:
    """The uniform parameter grid 0 = t_0 < ... < t_steps = 1; cached and read-only."""
    ts = np.linspace(0.0, 1.0, steps + 1)
    ts.flags.writeable = False
    return ts


def _track_block(ctx: GroupContext, g, xs, ts):
    """(log_full, lower, max_steps, bad) of one block of rows on the grid ts, shape (1, T, 1)."""
    ratios, lower, minors = _path_ratios(ctx, g, ts * xs[:, None, :])
    quot = ratios[:, 1:, :] / ratios[:, :-1, :]
    dphi = np.arctan2(quot.imag, quot.real)          # np.angle without its Python layer
    rows, steps, m = dphi.shape
    # max and all are exact in any order, so each row reads flat; the sum keeps its
    # order over the grid axis, because its bits reach log a
    max_steps = np.abs(dphi).reshape(rows, steps * m).max(axis=1)
    bad = ~(minors >= PIVOT_FLOOR).reshape(rows, (steps + 1) * m).all(axis=1)
    log_full = 0.5 * (np.log(np.abs(ratios[:, -1, :])) + 1j * dphi.sum(axis=1))
    return log_full, lower[:, -1], max_steps, bad


def track_batch(ctx: GroupContext, g, xs, steps_hint: int = GRID_STEPS):
    """Continuous branch of log a(g_i exp(iX_i)) for a batch of (g_i, X_i) pairs.

    Each path t -> g exp(itX) starts at the real point g and runs on a uniform
    grid of steps_hint segments.  The rows with a grid step that moves some ratio
    argument by pi/2 or more are tracked again together on a grid twice as fine,
    up to MAX_SEGMENTS segments, so no row depends on the batch it came in.

    Rows are tracked in blocks of max(1, TRACK_BLOCK_BYTES // (16 (steps + 1)
    m^2)) rows, so a block's complex grid takes about TRACK_BLOCK_BYTES.  Its
    temporaries then stay in cache and in heap pages the next block reuses; a
    grid of several hundred rows is megabytes that the allocator returns to the
    kernel when freed and faults in again on the next call.  The working set of
    a call is therefore bounded, whatever the batch.  Every operation is per
    row, so a row's bits do not depend on its block, and a batch of one block
    (a single row, say) is returned as that block computed it, with no copy.

    Returns (log_full, lower, max_steps, segments, bad): the full diagonal of
    log a and the unit lower factor at t = 1, each row's largest argument step
    and final segment count, and the rows whose tracking broke down (a
    degenerate minor on the grid, or the segment cap); bad rows are NaN.
    """
    g = np.asarray(g, dtype=float)
    xs = np.asarray(xs, dtype=float)
    steps = max(int(steps_hint), 1)
    ts = _grid(steps)[None, :, None]
    rows, m = len(xs), g.shape[-1]
    block = max(1, TRACK_BLOCK_BYTES // (16 * (steps + 1) * m * m))
    with np.errstate(divide="ignore", invalid="ignore"):
        if rows <= block:
            log_full, lower_last, max_steps, bad = _track_block(ctx, g, xs, ts)
        else:
            log_full = np.empty((rows, m), dtype=complex)
            lower_last = np.empty((rows, m, m), dtype=complex)
            max_steps = np.empty(rows)
            bad = np.empty(rows, dtype=bool)
            for lo in range(0, rows, block):
                hi = lo + block
                (log_full[lo:hi], lower_last[lo:hi], max_steps[lo:hi],
                 bad[lo:hi]) = _track_block(ctx, g[lo:hi], xs[lo:hi], ts)
    segments = np.empty(rows, dtype=int)
    segments.fill(steps)                              # np.full costs twice as much on one row
    redo = (bad | (max_steps >= ARG_STEP_CAP)).nonzero()[0]
    if redo.size:
        # a row bad on its grid stays bad; the coarse ones are tracked again together
        redo = redo[~bad[redo]]
        if 2 * steps > MAX_SEGMENTS:
            bad[redo] = True
        elif redo.size:
            (log_full[redo], lower_last[redo], max_steps[redo], segments[redo],
             bad[redo]) = _track(ctx, g[redo], xs[redo], 2 * steps)
        log_full[bad] = np.nan
    return log_full, lower_last, max_steps, segments, bad


# the name a retry is called through, once a doubling: a trace counts retries apart from batches
_track = track_batch


def k_factor(z, log_full, lower) -> np.ndarray:
    """k = a^{-1} n^{-1} z for a batch z = n a k, from the log_full and lower rows of z."""
    return np.linalg.solve(lower, z) / np.exp(log_full)[:, :, None]


def batch_reconstruction_residual(ctx: GroupContext, z, log_full, lower) -> np.ndarray:
    """Relative residuals of the factor products n exp(log a) k against a batch z."""
    z = np.asarray(z)
    k = k_factor(z, log_full, lower)
    diag_sym = np.exp(ctx.full_diag(log_full[:, : ctx.n]))
    recon = (lower * diag_sym[:, None, :]) @ k
    num = np.linalg.norm(recon - z, axis=(1, 2))
    den = np.maximum(np.linalg.norm(z, axis=(1, 2)), _TINY)
    return num / den
