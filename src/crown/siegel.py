"""The Siegel upper half-space of Sp(n,R) and its minor positivity checks.

Points are complex symmetric n x n matrices with positive definite imaginary
part.  The leading-principal-minor ratios chi_j share the elimination kernel
of the Iwasawa module, so the two positivity statements checked here, namely
that no minor vanishes and that every ratio has positive imaginary part, use
exactly the code path that computes the crown projection.
"""

from __future__ import annotations

import dataclasses
import functools
import time

import numpy as np

from .domains import sample_xi
from .errors import PivotBreakdown
from .groups import Family, GroupContext, GroupSpec, build_group
from .iwasawa import minor_ratios, normalized_minors, track_batch, PIVOT_FLOOR
from .parallel import chunk_ranges
from .report import VerificationReport, group_wire, matrix_wire, vector_wire
from .rng import substream
from .sampling import sample_group_element
# draw_omega_point stays imported: bench/tracer.py wraps crown.siegel.draw_omega_point by name
from .weyl import FULL_OMEGA, MEMBERSHIP_TOL, draw_omega_point

DIRECT_EPS = 1e-3
NORMALIZED_MINOR_FLOOR = 1e-12


@dataclasses.dataclass(frozen=True)
class SiegelPoint:
    """Complex symmetric matrix with positive definite imaginary part."""

    z: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=complex)
        scale = 1.0 + float(np.max(np.abs(z)))
        if np.max(np.abs(z - z.T)) > 1e-10 * scale:
            raise ValueError("point must be symmetric")
        if np.min(np.linalg.eigvalsh(z.imag)) <= 0.0:
            raise ValueError("imaginary part must be positive definite")
        object.__setattr__(self, "z", z)


@functools.lru_cache(maxsize=8)
def _sp_context(n: int) -> GroupContext:
    return build_group(GroupSpec(Family.SYMPLECTIC, n))


def fractional_action(g_std, w) -> np.ndarray:
    """(A w + B)(C w + D)^{-1} for a standard-frame symplectic block matrix."""
    g_std = np.asarray(g_std)
    w = np.asarray(w, dtype=complex)
    n = w.shape[0]
    a, b = g_std[:n, :n], g_std[:n, n:]
    c, d = g_std[n:, :n], g_std[n:, n:]
    num = a @ w + b
    den = c @ w + d
    out = np.linalg.solve(den.T, num.T).T
    return 0.5 * (out + out.T)


def _draw_siegel(n: int, seed: int, lo: int, hi: int) -> list[SiegelPoint]:
    """The points of indices lo..hi-1; the orbit draws share one group-element batch."""
    ctx = _sp_context(n)
    eye = np.eye(n)
    orbit_rngs = [substream(seed, i) for i in range(lo | 1, hi, 2)]
    gs = iter(ctx.to_standard_frame(sample_group_element(ctx, orbit_rngs, "full-g")))
    points = []
    for i in range(lo, hi):
        if i % 2:
            points.append(SiegelPoint(fractional_action(next(gs), 1j * eye)))
            continue
        rng = substream(seed, i)
        x = rng.standard_normal((n, n))
        x = 0.5 * (x + x.T)
        low = rng.standard_normal((n, n))
        points.append(SiegelPoint(x + 1j * (low @ low.T + DIRECT_EPS * eye)))
    return points


def sample_siegel(n: int, count: int, seed: int) -> list[SiegelPoint]:
    """Seeded points of the upper half-space, two interleaved strategies.

    Even indices: direct draws x + i(L L^T + DIRECT_EPS I) with Gaussian x and L.
    Odd indices: orbit draws g.(iI) under the fractional action of bounded
    random symplectic g.
    """
    if n < 1 or count < 1:
        raise ValueError("n and count must be >= 1")
    return [point for lo, hi in chunk_ranges(count) for point in _draw_siegel(n, seed, lo, hi)]


def chi(point: SiegelPoint) -> np.ndarray:
    """Minor ratios (Delta_1/Delta_0, ..., Delta_n/Delta_{n-1}) of the point."""
    return minor_ratios(point.z)


def verify_siegel(n: int, samples: int, seed: int) -> VerificationReport:
    """Minor nonvanishing and ratio positivity over seeded upper half-space points.

    A sample violates when some ratio has nonpositive imaginary part or a
    normalized minor falls below the floor; pivot breakdowns are findings, not
    errors, and count as violations of the nonvanishing statement.  The first
    breakdown, if any, is the witness; otherwise the sample of smallest Im chi.
    """
    if n < 1 or samples < 1:
        raise ValueError("n and samples must be >= 1")
    start = time.monotonic()
    violations = 0
    min_im = np.inf
    min_minor = np.inf
    witness = None
    breakdowns = 0
    for i, point in enumerate(sample_siegel(n, samples, seed)):
        try:
            ratios = chi(point)
        except PivotBreakdown:
            breakdowns += 1
            violations += 1
            if breakdowns == 1:
                witness = {"sample_index": i, "z": matrix_wire(point.z), "pivot_breakdown": True}
            continue
        sample_im = float(np.min(ratios.imag))
        sample_minor = float(np.min(normalized_minors(point.z)))
        if sample_im < min_im:
            min_im = sample_im
            if not breakdowns:
                witness = {"sample_index": i, "min_im_chi": sample_im,
                           "chi": vector_wire(ratios), "z": matrix_wire(point.z)}
        min_minor = min(min_minor, sample_minor)
        if sample_im <= 0.0 or sample_minor < NORMALIZED_MINOR_FLOOR:
            violations += 1
    # fixed kernel fixture: chi([[i, 1/2], [1/2, i]]) = (i, 5i/4)
    fixture = minor_ratios(np.array([[1j, 0.5], [0.5, 1j]]))
    return VerificationReport(
        command="siegel",
        group=group_wire(_sp_context(n)),
        omega=None,
        seed=seed,
        samples_requested=samples,
        samples_completed=samples,
        samples_indeterminate=0,
        violations=violations,
        min_margin=float(min_im) if np.isfinite(min_im) else None,
        worst_witness=witness,
        wall_time_ms=int((time.monotonic() - start) * 1000),
        tolerance_set={"normalized_minor_floor": NORMALIZED_MINOR_FLOOR,
                       "pivot_floor": PIVOT_FLOOR, "direct_eps": DIRECT_EPS},
        extras={"min_im_chi": float(min_im) if np.isfinite(min_im) else None,
                "min_normalized_minor": float(min_minor) if np.isfinite(min_minor) else None,
                "pivot_breakdowns": breakdowns,
                "fixture_min_im_chi": float(np.min(fixture.imag)),
                "fixture_error": float(np.max(np.abs(fixture - np.array([1j, 1.25j]))))},
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
    start = time.monotonic()
    n = ctx.n
    eye = 1j * np.eye(n)
    disagreements = 0
    indeterminate = 0
    min_margin = np.inf
    max_value_gap = 0.0
    witness = None
    for i, (g, x) in enumerate(zip(*sample_xi(ctx, FULL_OMEGA, samples, seed))):
        log_full, _, _, bad = track_batch(ctx, g[None], x[None])
        if bad[0]:
            indeterminate += 1
            continue
        y_crown = log_full[0, :n].imag
        crown_ok = bool(np.max(np.abs(y_crown)) < np.pi / 4.0 + MEMBERSHIP_TOL)
        g_std = ctx.to_standard_frame(g)
        ax_std = ctx.to_standard_frame(ctx.a_exp(1j * x))
        w = fractional_action(g_std, fractional_action(ax_std, eye))
        try:
            ratios = minor_ratios(w)
        except PivotBreakdown:
            indeterminate += 1
            continue
        siegel_ok = bool(np.min(ratios.imag) > 0.0)
        y_siegel = 0.5 * np.angle(ratios / 1j)
        max_value_gap = max(
            max_value_gap, float(np.max(np.abs(np.sort(y_siegel) - np.sort(y_crown)))))
        # exact value agreement is only expected on the abelian slice
        margin = float(np.pi / 4.0 - np.max(np.abs(y_siegel)))
        if margin < min_margin:
            min_margin = margin
            witness = {"sample_index": i, "x": vector_wire(x),
                       "y_crown": vector_wire(y_crown), "y_siegel": vector_wire(y_siegel)}
        if crown_ok != siegel_ok:
            disagreements += 1
    completed = samples - indeterminate
    return VerificationReport(
        command="siegel-crown",
        group=group_wire(ctx),
        omega=None,
        seed=seed,
        samples_requested=samples,
        samples_completed=completed,
        samples_indeterminate=indeterminate,
        violations=disagreements,
        min_margin=float(min_margin) if np.isfinite(min_margin) else None,
        worst_witness=witness,
        wall_time_ms=int((time.monotonic() - start) * 1000),
        tolerance_set={"membership_tol": MEMBERSHIP_TOL, "pivot_floor": PIVOT_FLOOR},
        extras={"max_value_gap_monitored": max_value_gap},
    )
