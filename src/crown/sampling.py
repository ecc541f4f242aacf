"""Seeded sampling of group elements: Haar measure on K and bounded p-parts.

The samplers are batch-first.  They take a sequence of generators, draw from
each one through gaussians exactly the Gaussians of a single draw, in the
same order, and then factor the whole batch with one stacked QR (and one
stacked eigh for the p-part).  Each generator's stream is consumed as by a
draw of its own, so a batch equals its samples drawn one by one, bit for bit.
A scalar draw is a batch of one: ``haar_k(ctx, [rng])[0]``.
"""

from __future__ import annotations

import numpy as np

from .groups import Family, GroupContext

P_RADIUS = 1.5


def gaussians(rngs, blocks: int, n: int) -> np.ndarray:
    """(B, blocks, n, n) standard normals; row b holds the next draws of rngs[b]."""
    out = np.empty((len(rngs), blocks, n, n))
    for row, rng in zip(out, rngs):
        rng.standard_normal(out=row)
    return out


def _k_blocks(ctx: GroupContext) -> int:
    """Gaussian n x n blocks per Haar draw: one for SO(n), real and imaginary for U(n)."""
    return 1 if ctx.family is Family.SPECIAL_LINEAR else 2


def unitary_extract(ctx: GroupContext, k: np.ndarray) -> np.ndarray:
    """Inverse of ctx.unitary_embed on elements of K, shape (..., m, m)."""
    n = ctx.n
    std = ctx.to_standard_frame(k)
    return std[..., :n, :n] + 1j * std[..., :n, n:]


def _haar(ctx: GroupContext, z: np.ndarray) -> np.ndarray:
    """Haar elements of K from Gaussian blocks z (B, blocks, n, n): QR, then fix the diagonal.

    SO(n): signs of diag(R) moved into Q, first column flipped where det < 0.
    U(n): phases of diag(R) moved into Q, then embedded.
    """
    if ctx.family is Family.SPECIAL_LINEAR:
        q, r = np.linalg.qr(z[:, 0])
        q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
        flip = np.linalg.det(q) < 0.0
        q[flip, :, 0] = -q[flip, :, 0]
        return q
    q, r = np.linalg.qr((z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0))
    d = np.diagonal(r, axis1=1, axis2=2)
    return ctx.unitary_embed(q * (d.conj() / np.abs(d))[:, None, :])


def _exp_p(ctx: GroupContext, z: np.ndarray) -> np.ndarray:
    """exp(S) for symmetric S built from Gaussian blocks z, Frobenius norm capped at P_RADIUS."""
    n = ctx.n
    sym = 0.5 * (z + np.swapaxes(z, -1, -2))
    if ctx.family is Family.SPECIAL_LINEAR:
        s = sym[:, 0]
        s -= (np.trace(s, axis1=1, axis2=2) / n)[:, None, None] * np.eye(n)
    else:
        a, b = sym[:, 0], sym[:, 1]
        s = ctx.to_sorted_frame(np.concatenate(
            [np.concatenate([a, b], axis=2), np.concatenate([b, -a], axis=2)], axis=1))
    # sqrt(x . x) on contiguous rows has the bits of np.linalg.norm of each matrix alone
    flat = np.ascontiguousarray(s).reshape(-1, s.shape[-1] ** 2)
    norm = np.sqrt(np.vecdot(flat, flat))
    s = s * np.where(norm > P_RADIUS, P_RADIUS / norm, 1.0)[:, None, None]
    w, v = np.linalg.eigh(s)
    return (v * np.exp(w)[:, None, :]) @ np.swapaxes(v, 1, 2)


def haar_k(ctx: GroupContext, rngs) -> np.ndarray:
    """Haar-distributed elements of the maximal compact subgroup, one per generator."""
    return _haar(ctx, gaussians(rngs, _k_blocks(ctx), ctx.n))


def k_project(ctx: GroupContext, k: np.ndarray) -> np.ndarray:
    """Nearest elements of K (polar projection) to k, shape (..., m, m).

    One stacked SVD; each matrix of a stack gets the bits of its own call.  No
    library path ascends through it: the Cayley steps of ascend_critical stay
    in K without it.  It stays because bench/tracer.py wraps
    crown.convexity.k_project by name (ROADMAP item 1).
    """
    if ctx.family is Family.SPECIAL_LINEAR:
        u, _, vt = np.linalg.svd(k)
        return u @ vt
    u, _, vt = np.linalg.svd(unitary_extract(ctx, k))
    return ctx.unitary_embed(u @ vt)


def sample_group_element(ctx: GroupContext, rngs, mode: str) -> np.ndarray:
    """Haar k ("k" mode) or k exp(S) with a bounded p-part ("full-g" mode), one per generator.

    Each generator gives the Gaussians of k, then those of S.
    """
    if mode not in ("k", "full-g"):
        raise ValueError(f"unknown sampling mode {mode!r}")
    blocks = _k_blocks(ctx)
    z = gaussians(rngs, blocks if mode == "k" else 2 * blocks, ctx.n)
    k = _haar(ctx, z[:, :blocks])
    if mode == "k":
        return k
    return k @ _exp_p(ctx, z[:, blocks:])
