"""Seeded sampling of group elements: Haar measure on K and bounded p-parts."""

from __future__ import annotations

import numpy as np

from .groups import Family, GroupContext

P_RADIUS = 1.5


def haar_orthogonal(rng, n: int) -> np.ndarray:
    """Haar-distributed element of SO(n): QR of a Gaussian with sign-fixed diagonal."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diagonal(r))
    if np.linalg.det(q) < 0.0:
        q = q.copy()
        q[:, 0] = -q[:, 0]
    return q


def haar_unitary(rng, n: int) -> np.ndarray:
    """Haar-distributed element of U(n): QR of a complex Gaussian, phase-fixed."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d.conj() / np.abs(d))


def unitary_embed(ctx: GroupContext, u: np.ndarray) -> np.ndarray:
    """Realize U(n) inside the symplectic group, in the sorted frame."""
    n = ctx.n
    g = np.zeros((2 * n, 2 * n))
    g[:n, :n] = u.real
    g[:n, n:] = u.imag
    g[n:, :n] = -u.imag
    g[n:, n:] = u.real
    return ctx.to_sorted_frame(g)


def unitary_extract(ctx: GroupContext, k: np.ndarray) -> np.ndarray:
    """Inverse of unitary_embed on elements of the maximal compact subgroup."""
    n = ctx.n
    std = ctx.to_standard_frame(k)
    return std[:n, :n] + 1j * std[:n, n:]


def haar_k(ctx: GroupContext, rng) -> np.ndarray:
    """Haar-distributed element of the maximal compact subgroup."""
    if ctx.family is Family.SPECIAL_LINEAR:
        return haar_orthogonal(rng, ctx.n)
    return unitary_embed(ctx, haar_unitary(rng, ctx.n))


def k_project(ctx: GroupContext, k: np.ndarray) -> np.ndarray:
    """Nearest element of K (polar projection), used to kill iteration drift."""
    if ctx.family is Family.SPECIAL_LINEAR:
        u, _, vt = np.linalg.svd(k)
        return u @ vt
    uc = unitary_extract(ctx, k)
    u, _, vt = np.linalg.svd(uc)
    return unitary_embed(ctx, u @ vt)


def sample_p(ctx: GroupContext, rng) -> np.ndarray:
    """Gaussian draw from the symmetric part of the algebra, norm-capped at P_RADIUS."""
    n = ctx.n
    if ctx.family is Family.SPECIAL_LINEAR:
        a = rng.standard_normal((n, n))
        s = 0.5 * (a + a.T)
        s -= np.trace(s) / n * np.eye(n)
    else:
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        a = 0.5 * (a + a.T)
        b = 0.5 * (b + b.T)
        std = np.block([[a, b], [b, -a]])
        s = ctx.to_sorted_frame(std)
    norm = np.linalg.norm(s)
    if norm > P_RADIUS:
        s = s * (P_RADIUS / norm)
    return s


def exp_symmetric(s: np.ndarray) -> np.ndarray:
    """Exponential of a real symmetric matrix through its eigendecomposition."""
    w, v = np.linalg.eigh(s)
    return (v * np.exp(w)[None, :]) @ v.T


def sample_group_element(ctx: GroupContext, rng, mode: str = "k") -> np.ndarray:
    """Haar k ("k" mode) or k exp(S) with a bounded p-part ("full-g" mode)."""
    k = haar_k(ctx, rng)
    if mode == "k":
        return k
    if mode == "full-g":
        return k @ exp_symmetric(sample_p(ctx, rng))
    raise ValueError(f"unknown sampling mode {mode!r}")
