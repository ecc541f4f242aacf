"""Matrix realizations of the split classical groups SL(n,R) and Sp(n,R).

Conventions fixed here and relied on everywhere else:

* The diagonal weights of the defining representation are sorted so that they
  decrease along the diagonal on the chamber of descending coordinates.  The
  unipotent factor of the Iwasawa decomposition is then strictly LOWER
  triangular, and the squared abelian factor of ``z = n a k`` can be read off
  the leading principal minors of ``z z^T``.
* The root data is read off this frame rather than tabulated: position (i, j)
  of a matrix carries the root ``d_i - d_j`` of the diagonal entries, and the
  positive roots are those of the strictly lower positions.
* Sp(n,R) is first built in the standard block frame with symplectic form
  ``J = [[0, I], [-I, 0]]`` and then conjugated by a fixed permutation into the
  weight-sorted frame.  All public matrices live in the sorted frame; the
  permutation is recorded on the context.
* Cartan coordinates are plain numpy arrays of length n: the leading diagonal
  entries of the corresponding matrix.  For the special linear family they sum
  to zero; for the symplectic family the trailing diagonal is the negated
  reversal of the leading one.
* The invariant form is ``kappa(X, Y) = c * tr(XY)`` on the defining
  representation with c = 2n for sl(n) and c = 2n + 2 for sp(2n); the scale is
  recorded so that functional values are reproducible.
"""

from __future__ import annotations

import dataclasses
import functools
from enum import Enum

import numpy as np
import scipy.linalg

from .errors import SingularInput, UnsupportedFamily

GROUP_TOL = 1e-10


class Family(str, Enum):
    SPECIAL_LINEAR = "sl"
    SYMPLECTIC = "sp"


@dataclasses.dataclass(frozen=True)
class GroupSpec:
    """Family tag plus the rank parameter n (matrix size for sl, block size for sp)."""

    family: Family
    n: int

    def __post_init__(self):
        if not isinstance(self.family, Family):
            try:
                object.__setattr__(self, "family", Family(self.family))
            except ValueError:
                raise UnsupportedFamily(f"unknown family {self.family!r}") from None
        if self.family is Family.SPECIAL_LINEAR and self.n < 2:
            raise ValueError("special-linear requires n >= 2")
        if self.family is Family.SYMPLECTIC and self.n < 1:
            raise ValueError("symplectic requires n >= 1")

    @property
    def label(self) -> str:
        return f"{self.family.value}:{self.n}"


@dataclasses.dataclass(frozen=True)
class RootDatum:
    """Restricted root system data in Cartan coordinates, read off the sorted frame.

    ``positive_roots`` are the roots of the strictly lower triangular
    positions; on the chamber of descending coordinates these take negative
    values, which is exactly what makes the unipotent factor lower triangular.
    """

    rank: int
    roots: np.ndarray            # (count, n) covectors
    positive_roots: np.ndarray   # (count/2, n)

    def evaluate(self, x):
        """Values alpha(x) for every root, shape (count,) or (..., count)."""
        return np.asarray(x) @ self.roots.T


@dataclasses.dataclass(frozen=True)
class CovectorIA:
    """Functional on the complexified Cartan subspace vanishing on its real part.

    Determined by m_coords, the coordinates of M with H = i*M; the pairing is
    lam(Z) = kappa_R(Z, i*M), which kills the real part of Z and is real on
    the imaginary part.
    """

    m_coords: np.ndarray
    regular: bool = False

    def __post_init__(self):
        object.__setattr__(self, "m_coords", np.asarray(self.m_coords, dtype=float))


@dataclasses.dataclass(frozen=True)
class GroupContext:
    """Immutable bundle of one concrete group realization.

    Every operation in the package is a pure function of a context and its
    other arguments.
    """

    spec: GroupSpec
    ambient_size: int
    basis_a: np.ndarray          # (dim_a, m, m)
    basis_n: np.ndarray          # (dim_n, m, m)
    basis_k: np.ndarray          # (dim_k, m, m)
    killing_scale: float
    perm: np.ndarray             # sorted-frame index -> standard-frame index
    symplectic_form: np.ndarray | None
    k_gram_chol: tuple           # cho_factor of the Gram matrix of basis_k

    @functools.cached_property
    def root_datum(self) -> RootDatum:
        """The roots of the frame full_diag maps the coordinate basis to."""
        rank = self.n - 1 if self.family is Family.SPECIAL_LINEAR else self.n
        return _root_datum(self.full_diag(np.eye(self.n)).T, rank)

    @property
    def family(self) -> Family:
        return self.spec.family

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def dim_g(self) -> int:
        if self.family is Family.SPECIAL_LINEAR:
            return self.n * self.n - 1
        return self.n * (2 * self.n + 1)

    @property
    def coord_weight(self) -> float:
        """kappa(diag(x), diag(y)) = coord_weight * (x . y) on Cartan coordinates."""
        if self.family is Family.SPECIAL_LINEAR:
            return self.killing_scale
        return 2.0 * self.killing_scale

    def full_diag(self, x):
        """Ambient diagonal of the Cartan element with coordinates x."""
        x = np.asarray(x)
        if self.family is Family.SPECIAL_LINEAR:
            return x
        return np.concatenate([x, -x[..., ::-1]], axis=-1)

    def a_matrix(self, x):
        """Cartan coordinates (..., n) -> diagonal matrices (..., m, m) in the sorted frame."""
        return _diag_embed(self.full_diag(x))

    def a_coords(self, diag):
        """Leading Cartan coordinates of ambient diagonals, shape (..., m) -> (..., n)."""
        d = np.asarray(diag)
        if self.family is Family.SPECIAL_LINEAR:
            return d.copy()
        head = d[..., : self.n]
        tail = d[..., self.n:]
        return 0.5 * (head - tail[..., ::-1])

    def a_exp(self, x):
        """exp of the Cartan elements with (possibly complex) coordinates x, shape (..., n)."""
        return _diag_embed(np.exp(self.full_diag(x)))

    def to_standard_frame(self, m):
        """Undo the weight-sorting permutation (identity for sl)."""
        if self.family is Family.SPECIAL_LINEAR:
            return np.asarray(m)
        inv = np.argsort(self.perm)
        return np.asarray(m)[..., inv, :][..., :, inv]

    def to_sorted_frame(self, m):
        if self.family is Family.SPECIAL_LINEAR:
            return np.asarray(m)
        p = self.perm
        return np.asarray(m)[..., p, :][..., :, p]

    def group_residual(self, g):
        """Scaled deviation of g from the group (0 for exact members).

        One value per matrix of a stack (..., m, m); a float for a single matrix.
        """
        g = np.asarray(g)
        scale = 1.0 + _frobenius_sq(g)
        if self.family is Family.SPECIAL_LINEAR:
            res = np.abs(np.linalg.det(g) - 1.0) / scale
        else:
            j = self.symplectic_form
            res = np.sqrt(_frobenius_sq(np.swapaxes(g, -1, -2) @ j @ g - j)) / scale
        return float(res) if res.ndim == 0 else res

    def in_group(self, g):
        """Group membership to GROUP_TOL, one decision per matrix of a stack."""
        return self.group_residual(g) <= GROUP_TOL


def _frobenius_sq(g):
    """Squared Frobenius norms of a stack (..., m, m), each with the bits of its matrix alone.

    x . x on contiguous rows is the sum that np.linalg.norm takes the root of.
    """
    flat = np.ascontiguousarray(g).reshape(g.shape[:-2] + (-1,))
    return np.vecdot(flat, flat)


def _diag_embed(d):
    """Diagonal matrices (..., m, m) with the rows of d (..., m) on their diagonals."""
    m = d.shape[-1]
    out = np.zeros(d.shape + (m,), dtype=d.dtype)
    out.reshape(d.shape[:-1] + (m * m,))[..., :: m + 1] = d
    return out


def _freeze(a):
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _sl_bases(n):
    basis_a = []
    for i in range(n - 1):
        h = np.zeros((n, n))
        h[i, i] = 1.0
        h[i + 1, i + 1] = -1.0
        basis_a.append(h)
    basis_n, basis_k = [], []
    for i in range(n):
        for j in range(i):
            e = np.zeros((n, n))
            e[i, j] = 1.0
            basis_n.append(e)
            basis_k.append(e - e.T)
    return map(np.array, (basis_a, basis_n, basis_k))


def _sp_embed_alg(a_part, b_part):
    """u(n)-style block embedding [[A, B], [-B, A]] (standard frame)."""
    n = a_part.shape[0]
    out = np.zeros((2 * n, 2 * n))
    out[:n, :n] = a_part
    out[:n, n:] = b_part
    out[n:, :n] = -b_part
    out[n:, n:] = a_part
    return out


def _sp_bases(n):
    ee = lambda i, j: np.eye(1, n * n, i * n + j).reshape(n, n)
    basis_a = []
    for p in range(n):
        h = np.zeros((2 * n, 2 * n))
        h[p, p] = 1.0
        h[n + p, n + p] = -1.0
        basis_a.append(h)
    basis_n = []
    for p in range(n):
        for q in range(p):
            x = np.zeros((2 * n, 2 * n))
            x[:n, :n] = ee(p, q)
            x[n:, n:] = -ee(q, p)
            basis_n.append(x)
    for p in range(n):
        for q in range(p, n):
            x = np.zeros((2 * n, 2 * n))
            c = ee(p, q) + ee(q, p) if q != p else ee(p, p)
            x[n:, :n] = c
            basis_n.append(x)
    basis_k = []
    for p in range(n):
        for q in range(p + 1, n):
            basis_k.append(_sp_embed_alg(ee(p, q) - ee(q, p), np.zeros((n, n))))
    for p in range(n):
        for q in range(p, n):
            b = ee(p, q) + ee(q, p) if q != p else ee(p, p)
            basis_k.append(_sp_embed_alg(np.zeros((n, n)), b))
    return map(np.array, (basis_a, basis_n, basis_k))


def _root_datum(frame, rank) -> RootDatum:
    """Roots of a frame: row i of frame is the covector of ambient diagonal entry i.

    Position (i, j), i != j, of a matrix carries the root frame[i] - frame[j];
    the positive roots are those of the strictly lower positions i > j.
    """
    diffs = frame[:, None, :] - frame[None, :, :]
    i, j = np.indices(diffs.shape[:2])
    return RootDatum(
        rank=rank,
        roots=_freeze(np.unique(diffs[i != j], axis=0)),
        positive_roots=_freeze(np.unique(diffs[i > j], axis=0)),
    )


def build_group(spec: GroupSpec) -> GroupContext:
    """Construct the sorted-frame realization for a group spec."""
    if spec.family is Family.SPECIAL_LINEAR:
        n = spec.n
        basis_a, basis_n, basis_k = _sl_bases(n)
        ctx_kwargs = dict(
            ambient_size=n,
            killing_scale=2.0 * n,
            perm=_freeze(np.arange(n)),
            symplectic_form=None,
        )
    else:
        n = spec.n
        basis_a, basis_n, basis_k = _sp_bases(n)
        # sorted frame: diagonal weights (e_1 .. e_n, -e_n .. -e_1)
        perm = np.array(list(range(n)) + list(range(2 * n - 1, n - 1, -1)))
        ix = np.ix_(perm, perm)
        basis_a = basis_a[:, perm, :][:, :, perm]
        basis_n = basis_n[:, perm, :][:, :, perm]
        basis_k = basis_k[:, perm, :][:, :, perm]
        j_std = np.zeros((2 * n, 2 * n))
        j_std[:n, n:] = np.eye(n)
        j_std[n:, :n] = -np.eye(n)
        ctx_kwargs = dict(
            ambient_size=2 * n,
            killing_scale=2.0 * n + 2.0,
            perm=_freeze(perm),
            symplectic_form=_freeze(j_std[ix]),
        )

    scale = ctx_kwargs["killing_scale"]
    gram = np.einsum("aij,bji->ab", basis_k, basis_k) * (-2.0 * scale)
    chol = scipy.linalg.cho_factor(gram)
    return GroupContext(
        spec=spec,
        basis_a=_freeze(basis_a),
        basis_n=_freeze(basis_n),
        basis_k=_freeze(basis_k),
        k_gram_chol=(chol[0], chol[1]),
        **ctx_kwargs,
    )


def cartan_involution(ctx: GroupContext, g):
    """theta(g) = (g^T)^{-1}, the holomorphic extension of the Cartan involution."""
    g = np.asarray(g)
    try:
        inv = np.linalg.inv(g.T)
    except np.linalg.LinAlgError:
        raise SingularInput("matrix is singular") from None
    if not np.all(np.isfinite(inv)):
        raise SingularInput("matrix is singular to working precision")
    resid = np.linalg.norm(g.T @ inv - np.eye(ctx.ambient_size))
    if resid > 1e-6 * (1.0 + np.linalg.norm(g)):
        raise SingularInput("matrix inverse failed the residual check")
    return inv


def killing_r(ctx: GroupContext, z, w) -> float:
    """Invariant form of the underlying real algebra: 2 Re kappa_C(Z, W), kappa_C = c * tr(ZW).

    On split real and imaginary parts this is
    2 * (kappa(Re Z, Re W) - kappa(Im Z, Im W)).
    """
    return 2.0 * (ctx.killing_scale * np.trace(np.asarray(z) @ np.asarray(w))).real


def h_lambda(ctx: GroupContext, lam: CovectorIA):
    """Dual element H = i * M of a covector on the complexified Cartan space.

    Satisfies kappa_R(Z, H) = lam(Z) for every Z there: zero on the real part,
    -2 kappa(Im Z, M) on the imaginary part.
    """
    return 1j * ctx.a_matrix(lam.m_coords)


def pair_ia(ctx: GroupContext, z_coords, m_coords):
    """lam(Z) = kappa_R(Z, i M) on Cartan coordinates; real by construction."""
    z = np.asarray(z_coords)
    m = np.asarray(m_coords)
    return -2.0 * ctx.coord_weight * (np.imag(z) @ m)


def is_regular(ctx: GroupContext, coords, floor: float = 1e-12) -> bool:
    """True when every root is bounded away from zero on the given coordinates."""
    vals = ctx.root_datum.evaluate(np.asarray(coords, dtype=float))
    return bool(np.min(np.abs(vals)) > floor)


def project_a(ctx: GroupContext, z):
    """Component of Z in the complexified Cartan subspace, as coordinates.

    In the sorted lower-triangular frame the projection along k_C + n_C is the
    diagonal part: strictly upper entries are absorbed as (u + theta(u)) in k_C
    minus theta(u) in n_C, and the compact subalgebra has zero diagonal.  A batch
    of shape (..., m, m) gives coordinates of shape (..., n).
    """
    return ctx.a_coords(np.diagonal(np.asarray(z), axis1=-2, axis2=-1))


def split_nak(ctx: GroupContext, z):
    """Decompose Z into (n, a, k) components by solving in the concatenated basis.

    Slow oracle path used for validation; project_a is the production route.
    """
    m = ctx.ambient_size
    blocks = np.concatenate([ctx.basis_n, ctx.basis_a, ctx.basis_k])
    mat = blocks.reshape(len(blocks), m * m).T
    coeff, *_ = np.linalg.lstsq(mat, np.asarray(z, dtype=complex).ravel(), rcond=None)
    dn, da = len(ctx.basis_n), len(ctx.basis_a)
    zn = np.tensordot(coeff[:dn], ctx.basis_n, axes=1)
    za = np.tensordot(coeff[dn:dn + da], ctx.basis_a, axes=1)
    zk = np.tensordot(coeff[dn + da:], ctx.basis_k, axes=1)
    return zn, za, zk
