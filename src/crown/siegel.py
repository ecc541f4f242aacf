"""The Siegel upper half-space of Sp(n,R) and its minor positivity checks.

Points are complex symmetric n x n matrices with positive definite imaginary
part, drawn batch-first as the rows of one (count, n, n) array, the direct
ones from sampling.gaussians.  Their minor ratios chi_j share the elimination
kernel of the Iwasawa module, so the two statements checked here, that no
leading principal minor vanishes and that every ratio has positive imaginary
part, use the code path of the crown projection.
Both verifiers fill per-row arrays from one loop of per-matrix calls and fold
them, as one part, through parallel.chunk_part and fold_report.
"""

from __future__ import annotations

import numpy as np

from .domains import sample_xi
from .errors import NumericalBreakdown
from .groups import Family, GroupContext, GroupSpec, build_group
from .iwasawa import grid_tolerances, minor_ratios, normalized_minors, track_batch, PIVOT_FLOOR
from .parallel import chunk_part, chunk_ranges, fold_report
from .report import VerificationReport, wire
from .rng import substream
from .sampling import gaussians, sample_group_element
# draw_omega_point stays imported: bench/tracer.py wraps crown.siegel.draw_omega_point by name
from .weyl import FULL_OMEGA, MEMBERSHIP_TOL, draw_omega_point

DIRECT_EPS = 1e-3
NORMALIZED_MINOR_FLOOR = 1e-12


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


def _draw_siegel(ctx: GroupContext, seed: int, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1: direct draws at even indices, orbit draws at odd ones.

    Raises NumericalBreakdown when an imaginary part is not positive definite.
    """
    n = ctx.n
    eye = np.eye(n)
    index = np.arange(lo, hi)
    odd = index % 2 == 1
    gauss = gaussians([substream(seed, i) for i in index[~odd]], 2, n)
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
    ctx = build_group(GroupSpec(Family.SYMPLECTIC, n))
    return np.concatenate([_draw_siegel(ctx, seed, lo, hi) for lo, hi in chunk_ranges(count)])


def verify_siegel(n: int, samples: int, seed: int) -> VerificationReport:
    """Minor nonvanishing and ratio positivity over seeded upper half-space points.

    A sample violates when some ratio has nonpositive imaginary part or a
    normalized minor falls below the floor; pivot breakdowns are findings, not
    errors, and count as violations of the nonvanishing statement.  The first
    breakdown, if any, is the witness; otherwise the sample of smallest Im chi.
    """
    if n < 1 or samples < 1:
        raise ValueError("n and samples must be >= 1")
    zs = sample_siegel(n, samples, seed)
    ratios = np.zeros((samples, n), dtype=complex)
    minors = np.full(samples, np.inf)
    broke = np.zeros(samples, dtype=bool)
    for i, z in enumerate(zs):
        try:
            ratios[i] = minor_ratios(z)
        except NumericalBreakdown:
            broke[i] = True
            continue
        minors[i] = normalized_minors(z).min()
    # a breakdown is a violation, not an indeterminate row; its margin never wins
    im = np.where(broke, np.inf, ratios.imag.min(axis=1))
    # fixed kernel fixture: chi([[i, 1/2], [1/2, i]]) = (i, 5i/4)
    fixture = minor_ratios(np.array([[1j, 0.5], [0.5, 1j]]))
    report = fold_report(
        [chunk_part(im, np.zeros(samples, dtype=bool), None,
                    broke | (im <= 0.0) | (minors < NORMALIZED_MINOR_FLOOR),
                    lambda i: {"sample_index": i, "min_im_chi": im[i],
                               "chi": ratios[i], "z": zs[i]})],
        command="siegel", ctx=build_group(GroupSpec(Family.SYMPLECTIC, n)), omega=None, seed=seed,
        requested=samples, tolerances={"normalized_minor_floor": NORMALIZED_MINOR_FLOOR,
                    "pivot_floor": PIVOT_FLOOR, "direct_eps": DIRECT_EPS},
        extras={"min_normalized_minor": None if broke.all() else minors.min(),
                "pivot_breakdowns": broke.sum(), "fixture_min_im_chi": fixture.imag.min(),
                "fixture_error": np.abs(fixture - np.array([1j, 1.25j])).max()},
    )
    # after the fold: a part whose rows all broke down carries no witness
    if broke.any():
        i = broke.argmax()
        report.worst_witness = wire({"sample_index": i, "z": zs[i], "pivot_breakdown": True})
    report.extras["min_im_chi"] = report.min_margin
    return report


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
    y_crown = np.zeros((samples, n))
    ratios = np.zeros((samples, n), dtype=complex)
    bad = np.zeros(samples, dtype=bool)
    for i, (g, x, w) in enumerate(zip(gs, xs, ws)):
        log_full, _, _, _, track_bad = track_batch(ctx, g[None], x[None])
        bad[i] = track_bad[0]
        if bad[i]:
            continue
        y_crown[i] = log_full[0, :n].imag
        try:
            ratios[i] = minor_ratios(w)
        except NumericalBreakdown:
            bad[i] = True
    crown_ok = np.abs(y_crown).max(axis=1) < np.pi / 4.0 + MEMBERSHIP_TOL
    siegel_ok = ratios.imag.min(axis=1) > 0.0
    y_siegel = 0.5 * np.angle(ratios / 1j)
    # exact value agreement is only expected on the abelian slice
    gaps = np.abs(np.sort(y_siegel, axis=1) - np.sort(y_crown, axis=1)).max(axis=1)
    margins = np.pi / 4.0 - np.abs(y_siegel).max(axis=1)
    return fold_report(
        [chunk_part(margins, bad, None, crown_ok != siegel_ok,
                    lambda i: {"sample_index": i, "x": xs[i], "y_crown": y_crown[i],
                               "y_siegel": y_siegel[i]},
                    max_value_gap_monitored=np.max(gaps, where=~bad, initial=0.0))],
        command="siegel-crown", ctx=ctx, omega=None, seed=seed, requested=samples,
        tolerances={"membership_tol": MEMBERSHIP_TOL, **grid_tolerances()}, extras={})
