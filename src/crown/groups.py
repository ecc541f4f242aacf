"""Matrix realizations of the split classical groups SL(n,R) and Sp(n,R).

Conventions fixed here and relied on everywhere else:

* The diagonal weights of the defining representation are sorted so that they
  decrease along the diagonal on the chamber of descending coordinates.  The
  unipotent factor of the Iwasawa decomposition is then strictly LOWER
  triangular, and the squared abelian factor of ``z = n a k`` can be read off
  the leading principal minors of ``z z^T``.
* The roots are read off this frame rather than tabulated: position (i, j) of
  a matrix carries the root ``d_i - d_j`` of the diagonal entries, and
  ``GroupContext.roots`` holds them as one array of covectors.  The roots of
  the strictly lower positions are negative on the chamber of descending
  coordinates.
* The context carries a basis of the compact subalgebra k, the directions of
  the gradient ascent on K, with the reciprocal square roots of the diagonal of
  its Gram matrix; a and n need no basis, because a is the diagonal and the
  projection onto it reads the diagonal off (``project_a``).
* The Weyl group is the read-only array ``GroupContext.weyl`` of signed
  permutation matrices acting on Cartan coordinates (w.x = weyl[i] @ x), the
  identity first, with ``GroupContext.weyl_k`` the elements of K realizing them
  in the same order: ``weyl_k[i] a_matrix(x) weyl_k[i]^T = a_matrix(weyl[i] @ x)``.
* Sp(n,R) is first built in the standard block frame with symplectic form
  ``J = [[0, I], [-I, 0]]`` and then conjugated by a fixed permutation into the
  weight-sorted frame.  All public matrices live in the sorted frame; the
  permutation is recorded on the context.
* Cartan coordinates are plain numpy arrays of length n: the leading diagonal
  entries of the corresponding matrix.  For the special linear family they sum
  to zero; for the symplectic family the trailing diagonal is the negated
  reversal of the leading one.  A covector that vanishes on the real Cartan
  subspace is the plain array m of the coordinates of M, with dual H = i M.
* The invariant form is ``kappa(X, Y) = c * tr(XY)`` on the defining
  representation with c = 2n for sl(n) and c = 2n + 2 for sp(2n); the scale is
  recorded so that functional values are reproducible.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from enum import Enum

import numpy as np

from .errors import NumericalBreakdown

GROUP_TOL = 1e-10
# ambient matrix size above which a spec is refused: its k basis would take more than ~4 MB
MAX_AMBIENT_SIZE = 32
# Weyl order above which GroupContext.weyl, read by verify-kostant alone, refuses: sl to 7, sp to 5
MAX_WEYL_ORDER = 2 ** 13


class Family(str, Enum):
    SPECIAL_LINEAR = "sl"
    SYMPLECTIC = "sp"


@dataclasses.dataclass(frozen=True)
class GroupSpec:
    """Family tag plus the rank parameter n (matrix size for sl, block size for sp)."""

    family: Family
    n: int

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        if self.family is Family.SPECIAL_LINEAR and self.n < 2:
            raise ValueError("special-linear requires n >= 2")
        if self.family is Family.SYMPLECTIC and self.n < 1:
            raise ValueError("symplectic requires n >= 1")
        size = self.n if self.family is Family.SPECIAL_LINEAR else 2 * self.n
        if size > MAX_AMBIENT_SIZE:
            raise ValueError(f"{self.label} has ambient size {size}, above the cap of "
                             f"{MAX_AMBIENT_SIZE}")

    @property
    def label(self) -> str:
        return f"{self.family.value}:{self.n}"


@dataclasses.dataclass(frozen=True)
class GroupContext:
    """Immutable bundle of one concrete group realization.

    Every operation in the package is a pure function of a context and its
    other arguments.
    """

    spec: GroupSpec
    ambient_size: int
    basis_k: np.ndarray          # (dim_k, m, m)
    killing_scale: float
    perm: np.ndarray             # sorted-frame index -> standard-frame index
    symplectic_form: np.ndarray | None
    k_gram_rsqrt: np.ndarray     # 1/sqrt of the diagonal Gram matrix of basis_k

    @functools.cached_property
    def roots(self) -> np.ndarray:
        """The roots as covectors on Cartan coordinates, shape (count, n), read-only.

        Row i of the frame that full_diag maps the coordinate basis to is the
        covector of ambient diagonal entry i; position (i, j), i != j, of a
        matrix carries the root frame[i] - frame[j].  Root values of rows x
        are x @ roots.T.
        """
        frame = self.full_diag(np.eye(self.n)).T
        diffs = frame[:, None, :] - frame[None, :, :]
        i, j = np.indices(diffs.shape[:2])
        return _freeze(np.unique(diffs[i != j], axis=0))

    @functools.cached_property
    def weyl(self) -> np.ndarray:
        """The Weyl group as signed permutation matrices, shape (|W|, n, n), read-only.

        All permutations for sl, all signed permutations for sp; identity first,
        permutations outer and signs inner.  w.x is weyl[i] @ x, and rows map as
        xs @ weyl[i].T.  An order above MAX_WEYL_ORDER raises ValueError before
        anything is enumerated.
        """
        n = self.n
        order = math.factorial(n) * (2 ** n if self.family is Family.SYMPLECTIC else 1)
        if order > MAX_WEYL_ORDER:
            raise ValueError(f"the Weyl group of {self.spec.label} has order {order}, above "
                             f"the cap of {MAX_WEYL_ORDER}")
        perms = np.array(list(itertools.permutations(range(n))))
        signs = np.array(list(itertools.product((1.0, -1.0), repeat=n)))
        if self.family is Family.SPECIAL_LINEAR:
            signs = signs[:1]
        # column j of the element (perm, signs) is signs[j] times the basis vector perm[j]
        placed = np.swapaxes(np.eye(n)[perms], 1, 2)[:, None] > 0.0
        return _freeze(np.where(placed, signs[None, :, None, :], 0.0).reshape(-1, n, n))

    @functools.cached_property
    def weyl_k(self) -> np.ndarray:
        """Elements of K realizing ctx.weyl, in its order, shape (|W|, m, m), read-only.

        sl: the permutation matrix, its column 0 negated where its determinant
        is -1.  sp: the unitary embedding of the signed permutation with each
        -1 replaced by i.
        """
        if self.family is Family.SPECIAL_LINEAR:
            k = np.array(self.weyl)
            flip = np.linalg.det(k) < 0.0
            k[flip, :, 0] = -k[flip, :, 0]
            return _freeze(k)
        return _freeze(self.unitary_embed(np.where(self.weyl < 0.0, 1j, self.weyl)))

    @property
    def family(self) -> Family:
        return self.spec.family

    @property
    def n(self) -> int:
        return self.spec.n

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

    def to_sorted_frame(self, m):
        """Conjugate by the weight-sorting permutation (identity for sl)."""
        if self.family is Family.SPECIAL_LINEAR:
            return np.asarray(m)
        p = self.perm
        return np.asarray(m)[..., p, :][..., :, p]

    # perm only reverses the trailing n slots, so it is its own inverse
    to_standard_frame = to_sorted_frame

    def unitary_embed(self, u):
        """Realize U(n) inside the symplectic group in the sorted frame; u has shape (..., n, n)."""
        return self.to_sorted_frame(_unitary_block(np.asarray(u)))

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


def _sl_basis_k(n):
    basis_k = []
    for i in range(n):
        for j in range(i):
            e = np.zeros((n, n))
            e[i, j] = 1.0
            basis_k.append(e - e.T)
    return np.array(basis_k)


def _unitary_block(u):
    """Block form [[Re u, Im u], [-Im u, Re u]] of u, shape (..., n, n), in the standard frame."""
    n = u.shape[-1]
    out = np.zeros(u.shape[:-2] + (2 * n, 2 * n))
    out[..., :n, :n] = u.real
    out[..., :n, n:] = u.imag
    out[..., n:, :n] = -u.imag
    out[..., n:, n:] = u.real
    return out


def _sp_basis_k(n):
    ee = lambda i, j: np.eye(1, n * n, i * n + j).reshape(n, n)
    basis_k = []
    for p in range(n):
        for q in range(p + 1, n):
            basis_k.append(_unitary_block(ee(p, q) - ee(q, p)))
    for p in range(n):
        for q in range(p, n):
            b = ee(p, q) + ee(q, p) if q != p else ee(p, p)
            basis_k.append(_unitary_block(1j * b))
    return np.array(basis_k)


def build_group(spec: GroupSpec) -> GroupContext:
    """Construct the sorted-frame realization for a group spec."""
    if spec.family is Family.SPECIAL_LINEAR:
        n = spec.n
        basis_k = _sl_basis_k(n)
        ctx_kwargs = dict(
            ambient_size=n,
            killing_scale=2.0 * n,
            perm=_freeze(np.arange(n)),
            symplectic_form=None,
        )
    else:
        n = spec.n
        basis_k = _sp_basis_k(n)
        # sorted frame: diagonal weights (e_1 .. e_n, -e_n .. -e_1)
        perm = np.array(list(range(n)) + list(range(2 * n - 1, n - 1, -1)))
        ix = np.ix_(perm, perm)
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
    diag = np.diag(gram)
    # the gradient solve multiplies by 1/sqrt(diag) twice, which has the bits of a
    # Cholesky solve only when every off-diagonal entry is 0.0
    if np.any(gram != np.diag(diag)):
        raise NumericalBreakdown(f"the Gram matrix of the k basis of {spec.label} is not diagonal")
    return GroupContext(
        spec=spec,
        basis_k=_freeze(basis_k),
        k_gram_rsqrt=_freeze(1.0 / np.sqrt(diag)),
        **ctx_kwargs,
    )


def h_lambda(ctx: GroupContext, m):
    """Dual element H = i * M of the covector with M-coordinates m.

    Satisfies kappa_R(Z, H) = lam(Z) for every Z on the complexified Cartan
    space: zero on the real part, -2 kappa(Im Z, M) on the imaginary part.
    """
    return 1j * ctx.a_matrix(m)


def pair_ia(ctx: GroupContext, z_coords, m_coords):
    """lam(Z) = kappa_R(Z, i M) on Cartan coordinates, row with row; real by construction.

    np.vecdot pairs rows (..., n) with the bits of a one-row dot product.
    """
    return -2.0 * ctx.coord_weight * np.vecdot(np.imag(z_coords), m_coords)


def is_regular(ctx: GroupContext, coords, floor: float = 1e-12) -> bool:
    """True when every root is bounded away from zero on the given coordinates."""
    vals = np.asarray(coords, dtype=float) @ ctx.roots.T
    return bool(np.min(np.abs(vals)) > floor)


def project_a(ctx: GroupContext, z):
    """Component of Z in the complexified Cartan subspace, as coordinates.

    In the sorted lower-triangular frame the projection along k_C + n_C is the
    diagonal part: strictly upper entries are absorbed as (u + theta(u)) in k_C
    minus theta(u) in n_C, and the compact subalgebra has zero diagonal.  A batch
    of shape (..., m, m) gives coordinates of shape (..., n).
    """
    return ctx.a_coords(np.diagonal(np.asarray(z), axis1=-2, axis2=-1))
