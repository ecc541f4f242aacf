"""Crown domains, horospherical tubes, and their sampling verifiers.

A crown point is represented as z = g exp(iX) with g in the real group and X
in an open Weyl-invariant convex subset omega of the admissible polytope.  The
tube over a compact base k consists of the points whose translate by k^{-1}
projects into the abelian tube of omega; membership is decided by tracking
log a along t -> k^{-1} g exp(itX) and testing the imaginary part against
omega.  Only compact bases are tested: the full tube intersection reduces to
them because the triangular subgroup preserves the base tube.  The boundary
verifier tracks a path toward the edge of omega and checks that no projected
point lies nearer the boundary than its input point.
"""

from __future__ import annotations

import numpy as np

from .convexity import sample_regular_direction
from .errors import NumericalBreakdown
from .groups import GroupContext
from .iwasawa import grid_tolerances, track_batch
from .parallel import chunk_part, chunk_ranges, fold_report, map_chunks
from .report import VerificationReport, group_wire
from .rng import NS_AUX, NS_TUBE, substream
from .sampling import haar_k, sample_group_element
from .weyl import MEMBERSHIP_TOL, OmegaSpec, draw_omega_point, omega_distance, omega_margin

FINAL_DISTANCE_CAP = 1e-3  # the boundary path ends nearer the edge of omega than this
# most points on a boundary path: the last one's distance to the edge, about 2^-steps
# of the first, stays far above rounding; (1 - 2^-j) X0 stops approaching at j = 52
MAX_PATH_STEPS = 40
SLICE_WITNESS_TOL = 1e-10  # largest error of Im log a(exp(iY)) against Y on the slice


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
    log_full, _, max_steps, _, bad = track_batch(ctx, np.swapaxes(ks, 1, 2) @ gs, xs)
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
            lambda i: {"z_index": z_idx[i], "k_index": k_idx[i],
                       "margin": margins[i], "x": xs[z_idx[i]]})

    parts = map_chunks(run_chunk, chunk_ranges(z_count * k_count))
    return _fold(parts, command="tubes", ctx=ctx, omega=omega, seed=seed,
                 requested=z_count * k_count,
                 tolerances={"membership_tol": tol, **grid_tolerances()},
                 extras={"z_count": z_count, "k_count": k_count})


# bench/tracer.py wraps this name to time the fold of the tube and image sweeps
_fold = fold_report


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
        log_full, _, max_steps, _, bad = track_batch(ctx, gs, xs)
        margins = omega_margin(ctx, omega, log_full[:, :nn].imag)
        slice_eye = np.tile(np.eye(ctx.ambient_size), (count, 1, 1))
        slice_log, _, _, _, slice_bad = track_batch(ctx, slice_eye, ws)
        witness_err = np.max(np.abs(slice_log[:, :nn] - 1j * ws),
                             where=~slice_bad[:, None], initial=0.0)
        part = chunk_part(
            margins, bad, max_steps, margins < -tol,
            lambda i: {"sample_index": lo + i, "margin": margins[i], "x": xs[i], "g": gs[i]},
            max_slice_witness_error=witness_err)
        # the abelian slice samples count beside the crown points
        part["indeterminate"] += int(slice_bad.sum())
        part["violations"] += int(witness_err > SLICE_WITNESS_TOL)
        return part

    parts = map_chunks(run_chunk, chunk_ranges(samples))
    return _fold(parts, command="image", ctx=ctx, omega=omega, seed=seed, requested=2 * samples,
                 tolerances={"membership_tol": tol, "slice_witness_tol": SLICE_WITNESS_TOL,
                             **grid_tolerances()}, extras={})


def boundary_path(ctx: GroupContext, omega: OmegaSpec, direction, steps: int) -> np.ndarray:
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


def verify_boundary(ctx: GroupContext, omega: OmegaSpec, steps: int,
                    seed: int) -> VerificationReport:
    """Distances to the edge of omega of X and of Im log a(g exp(iX)) along a boundary path.

    Draws a regular direction, then a Haar g in K, from the auxiliary stream of
    seed; the path of 1..MAX_PATH_STEPS steps must end nearer the edge than
    FINAL_DISTANCE_CAP.  For a regular direction the distance to the edge along
    t X0 is concave, falls strictly and is 0 only at t = 1, so every path point
    lies inside omega and nearer the edge than the one before.
    min_margin is the smallest projected distance less the input one; below
    -MEMBERSHIP_TOL it makes the run's one violation.
    """
    if not 1 <= steps <= MAX_PATH_STEPS:
        raise ValueError(f"steps must lie in [1, {MAX_PATH_STEPS}], got {steps}")
    rng = substream(seed, NS_AUX)
    direction = sample_regular_direction(ctx, omega, rng)
    g = haar_k(ctx, [rng])[0]
    path = boundary_path(ctx, omega, direction, steps)
    input_dists = omega_distance(ctx, omega, path)
    if input_dists[-1] >= FINAL_DISTANCE_CAP:
        raise ValueError(f"{steps} steps end {input_dists[-1]:.3g} from the edge of omega, "
                         f"not below {FINAL_DISTANCE_CAP:g}; more steps are needed")
    log_full, _, _, _, bad = track_batch(ctx, np.repeat(g[None], len(path), axis=0), path)
    if bad.any():
        raise NumericalBreakdown(f"tracking broke down at step {int(np.argmax(bad))}")
    output_dists = omega_distance(ctx, omega, log_full[:, : ctx.n].imag)
    # complex convexity puts each projected point in conv(W.X), over which the concave,
    # Weyl-invariant distance to the edge of omega is smallest at the vertices w.X
    gap = float(np.min(output_dists - input_dists))
    return VerificationReport(
        command="boundary", group=group_wire(ctx), seed=seed, samples_requested=1,
        omega=omega, violations=int(gap < -MEMBERSHIP_TOL), min_margin=gap,
        tolerance_set={"final_distance_cap": FINAL_DISTANCE_CAP,
                       "membership_tol": MEMBERSHIP_TOL, **grid_tolerances()},
        extras={"input_distances": input_dists.tolist(),
                "output_distances": output_dists.tolist(),
                "direction": [float(v) for v in direction]},
    )
