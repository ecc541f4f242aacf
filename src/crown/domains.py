"""Crown domains, horospherical tubes, and their sampling verifiers.

A crown point is represented as z = g exp(iX) with g in the real group and X
in an open Weyl-invariant convex subset omega of the admissible polytope.  The
tube over a compact base k consists of the points whose translate by k^{-1}
projects into the abelian tube of omega; membership is decided by tracking
log a along t -> k^{-1} g exp(itX) and testing the imaginary part against
omega.  Only compact bases are tested: the full tube intersection reduces to
them because the triangular subgroup preserves the base tube.  The boundary
verifier tracks a path toward the edge of omega and checks that the projected
distances to the boundary follow the input distances.
"""

from __future__ import annotations

import numpy as np

from .convexity import sample_regular_direction
from .errors import BranchBreakdown
from .groups import GroupContext
from .iwasawa import (
    PIVOT_FLOOR,
    RECON_RTOL,
    grid_tolerances,
    track_batch,
)
from .parallel import chunk_part, chunk_ranges, fold_report, map_chunks
from .report import VerificationReport, group_wire, matrix_wire, vector_wire
from .rng import NS_AUX, NS_TUBE, substream
from .sampling import haar_k, sample_group_element
from .weyl import MEMBERSHIP_TOL, OmegaSpec, draw_omega_point, omega_distance, omega_margin


def sample_xi(ctx: GroupContext, omega: OmegaSpec, count: int, seed: int):
    """Rows (gs, xs) of count seeded crown points z = g exp(iX), X in omega, g in full-g mode.

    gs has shape (count, m, m) and xs shape (count, n); each chunk draws X from
    every stream before its one group-element batch.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    gs, xs = [], []
    for lo, hi in chunk_ranges(count):
        rngs = [substream(seed, i) for i in range(lo, hi)]
        xs += [draw_omega_point(ctx, omega, rng) for rng in rngs]
        gs.append(sample_group_element(ctx, rngs, "full-g"))
    return np.concatenate(gs), np.array(xs)


def _tube_margins(ctx: GroupContext, omega: OmegaSpec, ks, gs, xs):
    """(margins, max_steps, bad) of crown points g exp(iX) in the tubes over bases k.

    Row i translates g_i exp(iX_i) by k_i^{-1} = k_i^T; the translate is again
    real, so the tracked branch stays anchored.  The margin is the omega margin
    of Im log a of the translate; rows whose tracking broke down are NaN.
    """
    log_full, _, max_steps, bad = track_batch(ctx, np.swapaxes(ks, 1, 2) @ gs, xs)
    return omega_margin(ctx, omega, log_full[:, : ctx.n].imag), max_steps, bad


def verify_tube_intersection(ctx: GroupContext, omega: OmegaSpec, z_count: int,
                             k_count: int, seed: int,
                             tol: float = MEMBERSHIP_TOL) -> VerificationReport:
    """Assert every sampled crown point lies in every sampled compact tube."""
    if z_count < 1 or k_count < 1:
        raise ValueError("counts must be >= 1")
    gs, xs = sample_xi(ctx, omega, z_count, seed)
    tubes = np.concatenate([haar_k(ctx, [substream(seed, NS_TUBE + j) for j in range(lo, hi)])
                            for lo, hi in chunk_ranges(k_count)])

    def run_chunk(lo, hi):
        z_idx, k_idx = np.divmod(np.arange(lo, hi), k_count)
        margins, max_steps, bad = _tube_margins(ctx, omega, tubes[k_idx], gs[z_idx], xs[z_idx])
        return chunk_part(
            margins, bad, max_steps, margins < -tol,
            lambda i: {"z_index": int(z_idx[i]), "k_index": int(k_idx[i]),
                       "margin": float(margins[i]), "x": vector_wire(xs[z_idx[i]])})

    parts = map_chunks(run_chunk, chunk_ranges(z_count * k_count))
    return _fold(parts, command="tubes", ctx=ctx, omega=omega, seed=seed,
                 requested=z_count * k_count, tol=tol,
                 extras={"z_count": z_count, "k_count": k_count})


def _fold(parts, *, command, ctx, omega, seed, requested, tol, extras):
    return fold_report(
        parts, command=command, ctx=ctx, omega=omega, seed=seed, requested=requested,
        tolerances={"membership_tol": tol, "pivot_floor": PIVOT_FLOOR,
                    **grid_tolerances(), "reconstruction_rtol": RECON_RTOL},
        extras=extras,
    )


def verify_image(ctx: GroupContext, omega: OmegaSpec, samples: int, seed: int,
                 tol: float = MEMBERSHIP_TOL) -> VerificationReport:
    """Both inclusions of a(Xi(omega)) = A exp(i omega), sampled.

    Forward: Im log a of sampled crown points stays in omega.  Backward:
    points exp(iY) for sampled Y in omega are their own projections, which
    witnesses surjectivity on the abelian slice.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    nn = ctx.n

    def run_chunk(lo, hi):
        count = hi - lo
        rngs = [substream(seed, i) for i in range(lo, hi)]
        xs = np.array([draw_omega_point(ctx, omega, rng) for rng in rngs])
        gs = sample_group_element(ctx, rngs, "full-g")
        ws = np.array([draw_omega_point(ctx, omega, rng) for rng in rngs])
        log_full, _, max_steps, bad = track_batch(ctx, gs, xs)
        margins = omega_margin(ctx, omega, log_full[:, :nn].imag)
        slice_eye = np.tile(np.eye(ctx.ambient_size), (count, 1, 1))
        slice_log, _, _, slice_bad = track_batch(ctx, slice_eye, ws)
        witness_err = float(np.max(np.abs(slice_log[~slice_bad][:, :nn] - 1j * ws[~slice_bad]))) \
            if (~slice_bad).any() else np.inf
        part = chunk_part(
            margins, bad, max_steps, margins < -tol,
            lambda i: {"sample_index": lo + i, "margin": float(margins[i]),
                       "x": vector_wire(xs[i]), "g": matrix_wire(gs[i])},
            max_slice_witness_error=witness_err)
        # the abelian slice samples count beside the crown points
        part["indeterminate"] += int(slice_bad.sum())
        part["violations"] += int(witness_err > 1e-10)
        return part

    parts = map_chunks(run_chunk, chunk_ranges(samples))
    return _fold(parts, command="image", ctx=ctx, omega=omega, seed=seed,
                 requested=2 * samples, tol=tol, extras={})


def boundary_path(ctx: GroupContext, omega: OmegaSpec, direction, steps: int = 12) -> np.ndarray:
    """Geometric path (1 - 2^{-j}) X0, j = 1..steps, toward the boundary point X0 of omega.

    Returns the points as rows, shape (steps, n).  The direction should be
    regular so distances decrease strictly.
    """
    u = np.asarray(direction, dtype=float)
    vals = np.abs(u @ ctx.roots.T)
    s_star = omega.cutoff / float(np.max(vals))
    if omega.shape == "ball":
        s_star = min(s_star, omega.radius / float(np.linalg.norm(u)))
    return (1.0 - 0.5 ** np.arange(1, steps + 1))[:, None] * s_star * u


def boundary_probe(ctx: GroupContext, omega: OmegaSpec, g, x_path) -> list[tuple[int, float]]:
    """Boundary-approach distances of Im log a along a path toward the edge of omega.

    The path must stay in omega with strictly decreasing distance to the
    boundary, ending below 1e-3.  Returns (step, distance) pairs; distances
    are Euclidean.  Raises if a projected point ever leaves omega.
    """
    x_path = np.asarray(x_path, dtype=float)
    if x_path.ndim != 2 or not len(x_path):
        raise ValueError("path must be a non-empty sequence of points")
    dists = omega_distance(ctx, omega, x_path)
    if np.any(dists <= 0.0):
        raise ValueError("path must stay inside omega")
    if np.any(dists[1:] >= dists[:-1]):
        raise ValueError("path distances must be strictly decreasing")
    if dists[-1] >= 1e-3:
        raise ValueError("path must approach the boundary below 1e-3")
    gs = np.repeat(np.asarray(g, dtype=float)[None], len(x_path), axis=0)
    log_full, _, _, _ = track_batch(ctx, gs, x_path)
    ys = log_full[:, : ctx.n].imag
    # rows whose tracking broke down are NaN and fail the margin test too
    left = np.flatnonzero(~(omega_margin(ctx, omega, ys) > 0.0))
    if left.size:
        raise BranchBreakdown(f"projected point left omega at step {int(left[0])}")
    return list(enumerate(omega_distance(ctx, omega, ys).tolist()))


def verify_boundary(ctx: GroupContext, omega: OmegaSpec, steps: int,
                    seed: int) -> VerificationReport:
    """As X runs toward the edge of omega, Im log a(g exp(iX)) runs to the edge too.

    Draws a regular direction and a Haar g from the auxiliary stream of seed,
    probes the boundary path of steps points along the direction, and reports
    both distance sequences with their Spearman rank correlation.
    """
    import scipy.stats

    rng = substream(seed, NS_AUX)
    direction = sample_regular_direction(ctx, omega, rng)
    g = haar_k(ctx, [rng])[0]
    path = boundary_path(ctx, omega, direction, steps)
    input_dists = omega_distance(ctx, omega, path).tolist()
    out_dists = [d for _, d in boundary_probe(ctx, omega, g, path)]
    rho = float(scipy.stats.spearmanr(input_dists, out_dists).statistic)
    return VerificationReport(
        command="boundary", group=group_wire(ctx), seed=seed, samples_requested=1,
        omega=omega.as_dict(), tolerance_set={"final_distance_cap": 1e-3},
        extras={"input_distances": input_dists,
                "output_distances": out_dists,
                "spearman": rho,
                "final_distance": out_dists[-1],
                "direction": [float(v) for v in direction]},
    )
