"""The Siegel upper half-space of Sp(n,R) and its minor positivity checks.

Points are complex symmetric n x n matrices with positive definite imaginary
part, drawn batch-first as the rows of one (count, n, n) array.  Their minor
ratios chi_j share the elimination kernel of the Iwasawa module, so the two
statements checked here, that no leading principal minor vanishes and that
every ratio has positive imaginary part, use the code path of the crown projection.
"""

from __future__ import annotations

import functools

import numpy as np

from .domains import sample_xi
from .errors import NumericalBreakdown
from .groups import Family, GroupContext, GroupSpec, build_group
from .iwasawa import grid_tolerances, minor_ratios, normalized_minors, track_batch, PIVOT_FLOOR
from .parallel import chunk_ranges
from .report import VerificationReport, group_wire, matrix_wire, vector_wire
from .rng import substream
from .sampling import sample_group_element
# draw_omega_point stays imported: bench/tracer.py wraps crown.siegel.draw_omega_point by name
from .weyl import FULL_OMEGA, MEMBERSHIP_TOL, draw_omega_point

DIRECT_EPS = 1e-3
NORMALIZED_MINOR_FLOOR = 1e-12


@functools.lru_cache(maxsize=8)
def _sp_context(n: int) -> GroupContext:
    return build_group(GroupSpec(Family.SYMPLECTIC, n))


def fractional_action(g_std, w) -> np.ndarray:
    """(A w + B)(C w + D)^{-1} for standard-frame g_std (..., 2n, 2n) and w (..., n, n).

    One stacked solve; each matrix of a stack gets the bits of its own call.
    """
    g_std = np.asarray(g_std)
    w = np.asarray(w, dtype=complex)
    n = w.shape[-1]
    a, b = g_std[..., :n, :n], g_std[..., :n, n:]
    c, d = g_std[..., n:, :n], g_std[..., n:, n:]
    num = a @ w + b
    den = c @ w + d
    # the solve gives the transpose of num den^{-1}; symmetrizing makes that moot
    out = np.linalg.solve(np.swapaxes(den, -1, -2), np.swapaxes(num, -1, -2))
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def _draw_siegel(n: int, seed: int, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1: direct draws at even indices, orbit draws at odd ones.

    Raises NumericalBreakdown when an imaginary part is not positive definite.
    """
    ctx = _sp_context(n)
    eye = np.eye(n)
    index = np.arange(lo, hi)
    odd = index % 2 == 1
    gauss = np.empty((np.count_nonzero(~odd), 2, n, n))
    for row, i in zip(gauss, index[~odd]):
        substream(seed, i).standard_normal(out=row)
    x = 0.5 * (gauss[:, 0] + np.swapaxes(gauss[:, 0], 1, 2))
    low = gauss[:, 1]
    gs = sample_group_element(ctx, [substream(seed, i) for i in index[odd]], "full-g")
    z = np.empty((hi - lo, n, n), dtype=complex)
    z[~odd] = x + 1j * (low @ np.swapaxes(low, 1, 2) + DIRECT_EPS * eye)
    z[odd] = fractional_action(ctx.to_standard_frame(gs), 1j * eye)
    if not np.all(np.linalg.eigvalsh(z.imag)[:, 0] > 0.0):
        raise NumericalBreakdown("a Siegel draw has a non-positive-definite imaginary part")
    return z


def sample_siegel(n: int, count: int, seed: int) -> np.ndarray:
    """Seeded points of the upper half-space as rows of shape (count, n, n).

    Even indices: direct draws x + i(L L^T + DIRECT_EPS I) with Gaussian x and L.
    Odd indices: orbit draws g.(iI) under the fractional action of bounded
    random symplectic g.
    """
    if n < 1 or count < 1:
        raise ValueError("n and count must be >= 1")
    return np.concatenate([_draw_siegel(n, seed, lo, hi) for lo, hi in chunk_ranges(count)])


def verify_siegel(n: int, samples: int, seed: int) -> VerificationReport:
    """Minor nonvanishing and ratio positivity over seeded upper half-space points.

    A sample violates when some ratio has nonpositive imaginary part or a
    normalized minor falls below the floor; pivot breakdowns are findings, not
    errors, and count as violations of the nonvanishing statement.  The first
    breakdown, if any, is the witness; otherwise the sample of smallest Im chi.
    """
    if n < 1 or samples < 1:
        raise ValueError("n and samples must be >= 1")
    violations = 0
    min_im = np.inf
    min_minor = np.inf
    witness = None
    breakdowns = 0
    for i, z in enumerate(sample_siegel(n, samples, seed)):
        try:
            ratios = minor_ratios(z)
        except NumericalBreakdown:
            breakdowns += 1
            violations += 1
            if breakdowns == 1:
                witness = {"sample_index": i, "z": matrix_wire(z), "pivot_breakdown": True}
            continue
        sample_im = float(ratios.imag.min())
        sample_minor = float(normalized_minors(z).min())
        if sample_im < min_im:
            min_im = sample_im
            if not breakdowns:
                witness = {"sample_index": i, "min_im_chi": sample_im,
                           "chi": vector_wire(ratios), "z": matrix_wire(z)}
        min_minor = min(min_minor, sample_minor)
        if sample_im <= 0.0 or sample_minor < NORMALIZED_MINOR_FLOOR:
            violations += 1
    # fixed kernel fixture: chi([[i, 1/2], [1/2, i]]) = (i, 5i/4)
    fixture = minor_ratios(np.array([[1j, 0.5], [0.5, 1j]]))
    return VerificationReport(
        command="siegel",
        group=group_wire(_sp_context(n)),
        seed=seed,
        samples_requested=samples,
        violations=violations,
        min_margin=float(min_im) if np.isfinite(min_im) else None,
        worst_witness=witness,
        tolerance_set={"normalized_minor_floor": NORMALIZED_MINOR_FLOOR,
                       "pivot_floor": PIVOT_FLOOR, "direct_eps": DIRECT_EPS},
        extras={"min_im_chi": float(min_im) if np.isfinite(min_im) else None,
                "min_normalized_minor": float(min_minor) if np.isfinite(min_minor) else None,
                "pivot_breakdowns": breakdowns,
                "fixture_min_im_chi": float(fixture.imag.min()),
                "fixture_error": float(np.abs(fixture - np.array([1j, 1.25j])).max())},
    )


def cross_check_crown(ctx: GroupContext, samples: int, seed: int) -> VerificationReport:
    """Agreement of the crown projection with the Siegel minor picture.

    For crown points g exp(iX) of the symplectic group the tracked Im log a
    must land in the admissible box; on the matched Siegel points
    g.(exp(iX).(iI)) the same verdict reads: every ratio argument, shifted by
    the base point's pi/2, stays in (-pi/2, pi/2), i.e. Im chi_j > 0.  The two
    verdicts are asserted to agree on every sample; value agreement holds
    exactly on the abelian slice and is recorded unasserted elsewhere.
    """
    if ctx.family is not Family.SYMPLECTIC:
        raise ValueError("cross check requires a symplectic context")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n = ctx.n
    gs, xs = sample_xi(ctx, FULL_OMEGA, samples, seed)
    ws = fractional_action(ctx.to_standard_frame(gs), fractional_action(
        ctx.to_standard_frame(ctx.a_exp(1j * xs)), 1j * np.eye(n)))
    disagreements = 0
    indeterminate = 0
    min_margin = np.inf
    max_value_gap = 0.0
    witness = None
    for i, (g, x, w) in enumerate(zip(gs, xs, ws)):
        log_full, _, _, _, bad = track_batch(ctx, g[None], x[None])
        if bad[0]:
            indeterminate += 1
            continue
        y_crown = log_full[0, :n].imag
        crown_ok = bool(np.abs(y_crown).max() < np.pi / 4.0 + MEMBERSHIP_TOL)
        try:
            ratios = minor_ratios(w)
        except NumericalBreakdown:
            indeterminate += 1
            continue
        siegel_ok = bool(ratios.imag.min() > 0.0)
        y_siegel = 0.5 * np.angle(ratios / 1j)
        max_value_gap = max(
            max_value_gap, float(np.abs(np.sort(y_siegel) - np.sort(y_crown)).max()))
        # exact value agreement is only expected on the abelian slice
        margin = float(np.pi / 4.0 - np.abs(y_siegel).max())
        if margin < min_margin:
            min_margin = margin
            witness = {"sample_index": i, "x": vector_wire(x),
                       "y_crown": vector_wire(y_crown), "y_siegel": vector_wire(y_siegel)}
        if crown_ok != siegel_ok:
            disagreements += 1
    return VerificationReport(
        command="siegel-crown",
        group=group_wire(ctx),
        seed=seed,
        samples_requested=samples,
        samples_indeterminate=indeterminate,
        violations=disagreements,
        min_margin=float(min_margin) if np.isfinite(min_margin) else None,
        worst_witness=witness,
        tolerance_set={"membership_tol": MEMBERSHIP_TOL, **grid_tolerances()},
        extras={"max_value_gap_monitored": max_value_gap},
    )
