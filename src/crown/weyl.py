"""Weyl group action, the polytope Omega, and exact orbit-hull membership.

Membership in the convex hull of a Weyl orbit is decided by (weak)
majorization of dominant representatives: prefix sums of descending sorts for
the permutation action, prefix sums of descending absolute values for the
signed-permutation action.  This is exact and O(n log n); an LP feasibility
oracle over the explicit orbit lives in the test suite as a cross-check.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .errors import NumericalBreakdown
from .groups import Family, GroupContext, GroupSpec

MEMBERSHIP_TOL = 1e-9
DEDUP_TOL = 1e-12
REJECTION_MIN_RATE = 1e-4


@dataclasses.dataclass(frozen=True)
class OmegaSpec:
    """Open convex Weyl-invariant subset of the polytope Omega.

    shape "scale": omega = c * Omega for c in (0, 1].
    shape "ball":  omega = {|X| < radius} intersected with Omega.
    """

    shape: str
    scale: float | None = None
    radius: float | None = None

    def __post_init__(self):
        if self.shape == "scale":
            if self.scale is None or not (0.0 < self.scale <= 1.0):
                raise ValueError("scale shape needs scale in (0, 1]")
        elif self.shape == "ball":
            if self.radius is None or not self.radius > 0.0:
                raise ValueError("ball shape needs radius > 0")
        else:
            raise ValueError(f"unknown omega shape {self.shape!r}")

    @classmethod
    def parse(cls, text: str) -> "OmegaSpec":
        kind, _, value = text.partition(":")
        if kind == "scale":
            return cls("scale", scale=float(value))
        if kind == "ball":
            return cls("ball", radius=float(value))
        raise ValueError(f"cannot parse omega spec {text!r}")

    @property
    def label(self) -> str:
        if self.shape == "scale":
            return f"scale:{self.scale}"
        return f"ball:{self.radius}"

    @property
    def cutoff(self) -> float:
        """Bound on every |alpha(X)| over omega: c * pi/2 for scale c, pi/2 for a ball."""
        return (self.scale if self.shape == "scale" else 1.0) * np.pi / 2.0


FULL_OMEGA = OmegaSpec("scale", scale=1.0)


def weyl_orbit(ctx: GroupContext, x) -> np.ndarray:
    """Orbit of x without duplicates, shape (orbit_size, n), in lexicographic order.

    A point is dropped when an earlier one agrees with it to DEDUP_TOL in every
    coordinate.  Each entry of an orbit point is a coordinate of x or its
    negative, so the sorted entries are cut into runs at gaps above DEDUP_TOL
    and points are compared by their runs: no (|W|, |W|) comparison is held.
    """
    pts = ctx.weyl @ np.asarray(x)
    pts = pts[np.lexsort(pts.T[::-1])]
    values = np.unique(pts)
    runs = np.concatenate(([0], np.cumsum(np.diff(values) > DEDUP_TOL)))
    labels = runs[np.searchsorted(values, pts)]
    # the sort is stable: each class comes together, its lexicographically first point first
    order = np.lexsort(labels.T[::-1])
    labels = labels[order]
    first = np.concatenate(([True], (labels[1:] != labels[:-1]).any(axis=1)))
    return pts[np.sort(order[first])]


def dominant_rep(ctx: GroupContext, x) -> np.ndarray:
    """Canonical chamber representative: descending sort (absolute values for sp).

    Rows of a batch of shape (B, n) are sorted independently.
    """
    x = np.asarray(x, dtype=float)
    if ctx.family is Family.SPECIAL_LINEAR:
        return np.sort(x)[..., ::-1]
    return np.sort(np.abs(x))[..., ::-1]


def hull_contains(ctx: GroupContext, x, y, tol: float = MEMBERSHIP_TOL):
    """Membership of y in conv(W.x) with ties at tol resolved toward inside.

    Returns (member, margin).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    margin = float(hull_margins_batch(ctx, x[None], y[None], tol)[0])
    return margin >= -tol, margin


def hull_margins_batch(ctx: GroupContext, xs, ys, tol: float) -> np.ndarray:
    """Hull margins of rows ys against conv(W.x) of rows xs (shape (B, n)).

    The margin is the minimum slack of the majorization constraints: positive
    inside, negative outside.  For the special linear family the trace
    equality is not a majorization slack (it would pin every margin at
    roundoff scale); a trace drift above tol caps the margin at tol - drift.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    slacks = np.cumsum(dominant_rep(ctx, xs), axis=1) - np.cumsum(dominant_rep(ctx, ys), axis=1)
    if ctx.family is Family.SYMPLECTIC:
        return slacks.min(axis=1)
    margins = slacks[:, :-1].min(axis=1)
    drift = np.abs(ys.sum(axis=1) - xs.sum(axis=1))
    return np.where(drift > tol, np.minimum(margins, tol - drift), margins)


def omega_margin(ctx: GroupContext, spec: OmegaSpec, x):
    """Distance of rows x (shape (..., n)) from the active constraints of omega.

    In functional units, positive exactly when the row lies in omega; one
    value per row, a scalar for a single point.  On contiguous rows the ball
    norm sqrt(x . x) has the bits of np.linalg.norm of each row alone, which
    np.linalg.norm(x, axis=-1) and strided rows do not.
    """
    x = np.ascontiguousarray(x, dtype=float)
    # the ndarray method skips numpy's Python-level dispatch, which shows on one row
    margin = spec.cutoff - np.abs(x @ ctx.roots.T).max(axis=-1)
    if spec.shape == "ball":
        margin = np.minimum(margin, spec.radius - np.sqrt(np.vecdot(x, x)))
    return margin


def omega_distance(ctx: GroupContext, spec: OmegaSpec, x):
    """Euclidean distance of interior rows x (shape (..., n)) to the boundary of omega."""
    x = np.ascontiguousarray(x, dtype=float)
    vals = np.abs(x @ ctx.roots.T)
    norms = np.linalg.norm(ctx.roots, axis=1)
    dist = np.min((spec.cutoff - vals) / norms, axis=-1)
    if spec.shape == "ball":
        dist = np.minimum(dist, spec.radius - np.sqrt(np.vecdot(x, x)))
    return dist


@functools.lru_cache(maxsize=None)
def helmert(n: int) -> np.ndarray:
    """Orthonormal basis of the trace-zero hyperplane, shape (n, n-1); cached and read-only."""
    cols = []
    for k in range(1, n):
        v = np.zeros(n)
        v[:k] = 1.0
        v[k] = -k
        cols.append(v / np.linalg.norm(v))
    basis = np.column_stack(cols)
    basis.flags.writeable = False
    return basis


@functools.lru_cache(maxsize=256)
def _omega_box(group: GroupSpec, spec: OmegaSpec):
    """(half, basis) of the coordinate box bounding omega; cached.

    half is the box's half-width in sampling coordinates; basis maps them to
    Cartan coordinates (the Helmert basis for sl, None for sp, which samples
    Cartan coordinates directly).
    """
    if group.family is Family.SPECIAL_LINEAR:
        n = group.n
        half = spec.cutoff * (n - 1) / n * np.sqrt(n)
        basis = helmert(n)
    else:
        half = spec.cutoff / 2.0
        basis = None
    if spec.shape == "ball":
        half = min(half, spec.radius)
    return half, basis


def draw_omega_point(ctx: GroupContext, spec: OmegaSpec, rng) -> np.ndarray:
    """One uniform draw from omega by rejection from its bounding box."""
    half, basis = _omega_box(ctx.spec, spec)
    dim = ctx.n - 1 if basis is not None else ctx.n
    for _ in range(int(1.0 / REJECTION_MIN_RATE) + 1):
        u = rng.uniform(-half, half, size=dim)
        x = basis @ u if basis is not None else u
        if omega_margin(ctx, spec, x) > 0.0:
            return x
    raise NumericalBreakdown(f"acceptance rate below {REJECTION_MIN_RATE} for {spec.label}")
