import math

import numpy as np
import pytest

import crown.groups as groups
from crown import Family, GroupSpec, build_group, cli
from crown.errors import NumericalBreakdown
from crown.groups import h_lambda, is_regular, pair_ia, project_a
from crown.rng import substream

from conftest import context
from oracles import normalizer_elements


def test_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec(Family.SPECIAL_LINEAR, 1)
    with pytest.raises(ValueError):
        GroupSpec(Family.SYMPLECTIC, 0)
    with pytest.raises(ValueError, match="not a valid Family"):
        GroupSpec("so", 3)


def _never(*args):
    raise AssertionError("a refused rank reached an allocation")


def test_ambient_sizes_above_the_cap_are_refused(monkeypatch, capsys):
    # the refusal comes before any k basis is built
    monkeypatch.setattr(groups, "_sl_basis_k", _never)
    monkeypatch.setattr(groups, "_sp_basis_k", _never)
    assert GroupSpec(Family.SPECIAL_LINEAR, 32).n == 32 and GroupSpec(Family.SYMPLECTIC, 16).n == 16
    for family, n, size in ((Family.SPECIAL_LINEAR, 33, 33), (Family.SYMPLECTIC, 17, 34),
                            (Family.SPECIAL_LINEAR, 200, 200)):
        with pytest.raises(ValueError, match=f"ambient size {size}, above the cap of 32"):
            GroupSpec(family, n)
    assert cli.main(["verify-convexity", "--group", "sl:200", "--samples", "1"]) == cli.EXIT_USAGE
    assert "'sl:200': sl:200 has ambient size 200, above the cap of 32" in capsys.readouterr().err
    assert cli.main(["siegel", "--n", "17", "--samples", "4"]) == cli.EXIT_USAGE
    assert "sp:17 has ambient size 34" in capsys.readouterr().err
    # the parser passes on the reason a spec is refused
    assert cli.main(["verify-kostant", "--group", "sl:1"]) == cli.EXIT_USAGE
    assert "'sl:1': special-linear requires n >= 2" in capsys.readouterr().err


def test_weyl_cap_admits_sl7_and_sp5():
    assert len(build_group(GroupSpec(Family.SPECIAL_LINEAR, 7)).weyl) == 5040
    assert len(build_group(GroupSpec(Family.SYMPLECTIC, 5)).weyl) == 3840


@pytest.mark.parametrize("label, order", [("sl:8", 40320), ("sp:6", 46080)])
def test_weyl_orders_above_the_cap_are_refused(label, order, monkeypatch, capsys):
    # the refusal comes before any permutation is listed
    family, _, n = label.partition(":")
    ctx = build_group(GroupSpec(Family(family), int(n)))
    monkeypatch.setattr(groups.itertools, "permutations", _never)
    for name in ("weyl", "weyl_k"):
        with pytest.raises(ValueError, match=f"{label} has order {order}, above the cap of 8192"):
            getattr(ctx, name)
    assert cli.main(["verify-kostant", "--group", label, "--samples", "8"]) == cli.EXIT_USAGE
    assert f"order {order}" in capsys.readouterr().err


def test_sl2_root_data(sl2):
    assert len(sl2.roots) == 2
    # alpha(diag(t, -t)) = 2t for the positive root up to sign
    vals = np.array([1.0, -1.0]) @ sl2.roots.T
    assert sorted(vals.tolist()) == [-2.0, 2.0]


def test_sl3_root_data(sl3):
    assert len(sl3.roots) == 6
    assert np.sum(np.array([1.0, 0.0, -1.0]) @ sl3.roots.T < 0.0) == 3


def test_sp2_root_data(sp2):
    assert len(sp2.roots) == 8
    assert np.sum(np.array([2.0, 1.0]) @ sp2.roots.T < 0.0) == 4
    vals = np.abs(np.array([0.5, 0.2]) @ sp2.roots.T)
    # |+-e1 +- e2| gives 0.3 and 0.7 twice, |+-2e_i| gives 1.0 and 0.4 twice
    np.testing.assert_allclose(
        sorted(vals), [0.3, 0.3, 0.4, 0.4, 0.7, 0.7, 1.0, 1.0], atol=1e-14)


LABELS = ["sl:2", "sl:3", "sl:4", "sl:5", "sp:1", "sp:2", "sp:3"]


def _descending(ctx):
    """Cartan coordinates whose full diagonal strictly descends."""
    x = np.arange(ctx.n, 0.0, -1.0)
    if ctx.family is Family.SPECIAL_LINEAR:
        x -= x.mean()
    assert np.all(np.diff(ctx.full_diag(x)) < 0.0)
    return x


def _in_algebra(ctx, z):
    """Residual of z from the Lie algebra: |tr z| for sl, |z^T J + J z| for sp."""
    if ctx.family is Family.SPECIAL_LINEAR:
        return abs(np.trace(z))
    j = ctx.symplectic_form
    return np.max(np.abs(z.T @ j + j @ z))


@pytest.mark.parametrize("label", LABELS)
def test_root_system_symmetry_and_simple_basis(label):
    ctx = context(label)
    roots = ctx.roots
    assert not roots.flags.writeable
    root_set = {tuple(r) for r in np.round(roots, 12)}
    assert len(root_set) == len(roots)
    assert {tuple(-r) for r in np.round(roots, 12)} == root_set
    n = ctx.n
    rank = n - 1 if ctx.family is Family.SPECIAL_LINEAR else n
    assert np.linalg.matrix_rank(roots) == rank
    # the LDL^T route needs half of the roots negative where full_diag descends
    vals = roots @ _descending(ctx)
    assert np.all(vals != 0.0)
    assert np.sum(vals < 0.0) * 2 == len(roots)


def test_root_sets_explicit(sl3, sp2):
    want_a2 = {(1, -1, 0), (-1, 1, 0), (1, 0, -1), (-1, 0, 1), (0, 1, -1), (0, -1, 1)}
    assert {tuple(int(v) for v in r) for r in sl3.roots} == want_a2
    want_c2 = {(1, -1), (-1, 1), (1, 1), (-1, -1), (2, 0), (-2, 0), (0, 2), (0, -2)}
    assert {tuple(int(v) for v in r) for r in sp2.roots} == want_c2
    # A_{n-1} has n(n-1) roots and C_n has 2n^2
    for label in LABELS:
        ctx = context(label)
        n = ctx.n
        count = n * (n - 1) if ctx.family is Family.SPECIAL_LINEAR else 2 * n * n
        assert len(ctx.roots) == count


WEYL_LABELS = ["sl:2", "sl:3", "sl:4", "sp:1", "sp:2", "sp:3"]


def _elements(stack):
    """The matrices of an integer-valued stack as a set of hashable keys."""
    return {tuple(m.ravel()) for m in np.rint(stack).astype(int)}


@pytest.mark.parametrize("label", WEYL_LABELS)
def test_weyl_is_a_group_of_the_right_order(label):
    ctx = context(label)
    weyl, n = ctx.weyl, ctx.n
    sl = ctx.family is Family.SPECIAL_LINEAR
    order = math.factorial(n) * (1 if sl else 2 ** n)
    assert weyl.shape == (order, n, n) and len(_elements(weyl)) == order
    np.testing.assert_array_equal(weyl[0], np.eye(n))
    # signed permutations, unsigned for sl; the inverse is the transpose
    assert set(np.unique(weyl)) <= ({0.0, 1.0} if sl else {-1.0, 0.0, 1.0})
    np.testing.assert_array_equal(weyl @ np.swapaxes(weyl, 1, 2),
                                  np.broadcast_to(np.eye(n), weyl.shape))
    assert _elements((weyl[:, None] @ weyl[None]).reshape(-1, n, n)) == _elements(weyl)
    roots = _elements(ctx.roots[:, None, :])
    for w in weyl:
        assert _elements((ctx.roots @ w.T)[:, None, :]) == roots


@pytest.mark.parametrize("label", WEYL_LABELS)
def test_weyl_k_realizes_weyl_exactly(label):
    ctx = context(label)
    x = substream(19, 0).standard_normal(ctx.n)
    if ctx.family is Family.SPECIAL_LINEAR:
        x -= x.mean()
    assert len(ctx.weyl_k) == len(ctx.weyl)
    assert ctx.in_group(ctx.weyl_k).all()
    eye = np.broadcast_to(np.eye(ctx.ambient_size), ctx.weyl_k.shape)
    np.testing.assert_array_equal(ctx.weyl_k @ np.swapaxes(ctx.weyl_k, 1, 2), eye)
    adjoint = ctx.weyl_k @ ctx.a_matrix(x) @ np.swapaxes(ctx.weyl_k, 1, 2)
    np.testing.assert_array_equal(adjoint, ctx.a_matrix(ctx.weyl @ x))
    # every element of the normalizer conjugates a into a
    nk = normalizer_elements(ctx)
    centralizer = 2 ** (ctx.n - 1) if ctx.family is Family.SPECIAL_LINEAR else 2 ** ctx.n
    assert len(nk) == len(ctx.weyl) * centralizer
    conj = nk @ ctx.a_matrix(x) @ np.swapaxes(nk, 1, 2)
    off = ~np.eye(ctx.ambient_size, dtype=bool)
    assert np.all(conj[:, off] == 0.0)


@pytest.mark.parametrize("label", ["sl:3", "sp:2"])
def test_weyl_arrays_are_read_only(label):
    ctx = context(label)
    for arr in (ctx.weyl, ctx.weyl_k):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0, 0] = 2.0


@pytest.mark.parametrize("label", LABELS)
def test_reciprocal_diagonal_solve_has_the_bits_of_cho_solve(label):
    import scipy.linalg

    ctx = context(label)
    gram = np.einsum("aij,bji->ab", ctx.basis_k, ctx.basis_k) * (-2.0 * ctx.killing_scale)
    assert np.all(gram == np.diag(np.diag(gram)))
    r = ctx.k_gram_rsqrt
    assert not r.flags.writeable
    chol = scipy.linalg.cho_factor(gram)
    rng = substream(59, len(gram))
    rhs = rng.standard_normal((10_000, len(gram))) * 10.0 ** rng.uniform(-3, 3, (10_000, 1))
    got = (rhs * r) * r
    want = np.array([scipy.linalg.cho_solve(chol, b) for b in rhs])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_non_diagonal_gram_is_refused(monkeypatch):
    basis = groups._sl_basis_k(3)
    basis[0] += basis[1]
    monkeypatch.setattr(groups, "_sl_basis_k", lambda n: basis)
    with pytest.raises(NumericalBreakdown, match="is not diagonal"):
        build_group(GroupSpec(Family.SPECIAL_LINEAR, 3))
    argv = ["hull", "--group", "sl:3", "--x", "0.1,0,-0.1", "--y", "0,0,0"]
    assert cli.main(argv) == cli.EXIT_BREAKDOWN


def test_basis_k_spans_compact_subalgebra(ctx):
    m = ctx.ambient_size
    n = ctx.n
    dim_k = n * (n - 1) // 2 if ctx.family is Family.SPECIAL_LINEAR else n * n
    assert len(ctx.basis_k) == dim_k
    assert np.linalg.matrix_rank(ctx.basis_k.reshape(dim_k, m * m)) == dim_k
    for b in ctx.basis_k:
        assert _in_algebra(ctx, b) == 0.0


def test_theta_fixes_k_negates_a(ctx):
    for b in ctx.basis_k:
        np.testing.assert_allclose(-b.T, b, atol=1e-14)
    for b in ctx.a_matrix(np.eye(ctx.n)):
        np.testing.assert_allclose(-b.T, -b, atol=1e-14)


def _ad_values(ctx, x):
    """(m, m) array: ad(a_matrix(x)) scales the matrix unit E_ij, i != j, by entry (i, j)."""
    h = ctx.a_matrix(x)
    m = ctx.ambient_size
    vals = np.zeros((m, m))
    for i, j in zip(*np.nonzero(~np.eye(m, dtype=bool))):
        e = np.zeros((m, m))
        e[i, j] = 1.0
        bracket = h @ e - e @ h
        vals[i, j] = bracket[i, j]
        np.testing.assert_array_equal(bracket, vals[i, j] * e)
    return vals


def test_root_space_property_exact(ctx):
    # [H, X_alpha] = alpha(H) X_alpha with integer structure constants: the
    # values of ad H on the off-diagonal positions are the root values
    x = _descending(ctx)
    off = ~np.eye(ctx.ambient_size, dtype=bool)
    assert set(_ad_values(ctx, x)[off].tolist()) == set((ctx.roots @ x).tolist())


def test_root_space_eigenvalue_consistent(ctx):
    # every off-diagonal position carries some root, and the strictly lower ones
    # carry roots that are negative where full_diag descends
    rng = substream(41, 7)
    x = rng.standard_normal(ctx.n)
    if ctx.family is Family.SPECIAL_LINEAR:
        x -= x.mean()
    root_vals = ctx.roots @ x
    off = ~np.eye(ctx.ambient_size, dtype=bool)
    for v in _ad_values(ctx, x)[off]:
        assert np.min(np.abs(root_vals - v)) < 1e-12
    lower = np.tril_indices(ctx.ambient_size, -1)
    assert np.all(_ad_values(ctx, _descending(ctx))[lower] < 0.0)


def test_h_lambda_pairing(ctx):
    rng = substream(13, 5)
    m = rng.standard_normal(ctx.n)
    if ctx.family is Family.SPECIAL_LINEAR:
        m -= m.mean()
    h = h_lambda(ctx, m)
    assert np.max(np.abs(h.real)) == 0.0
    for _ in range(100):
        zc = rng.standard_normal(ctx.n) + 1j * rng.standard_normal(ctx.n)
        if ctx.family is Family.SPECIAL_LINEAR:
            zc -= zc.mean()
        expected = pair_ia(ctx, zc, m)
        # kappa_R(Z, W) = 2 Re kappa_C(Z, W) with kappa_C = c * tr(ZW)
        got = 2.0 * (ctx.killing_scale * np.trace(ctx.a_matrix(zc) @ h)).real
        assert abs(expected - got) <= 1e-12 * (1 + abs(expected))
    zero = h_lambda(ctx, np.zeros(ctx.n))
    assert np.max(np.abs(zero)) == 0.0


def test_regularity_flag(ctx):
    m = np.arange(1.0, ctx.n + 1.0)
    if ctx.family is Family.SPECIAL_LINEAR:
        m -= m.mean()
    assert is_regular(ctx, m)
    assert not is_regular(ctx, np.zeros(ctx.n))


def _random_algebra(ctx, rng, count):
    """count complex elements of the complexified Lie algebra, shape (count, m, m)."""
    m = ctx.ambient_size
    z = rng.standard_normal((count, m, m)) + 1j * rng.standard_normal((count, m, m))
    if ctx.family is Family.SPECIAL_LINEAR:
        return z - np.trace(z, axis1=1, axis2=2)[:, None, None] / m * np.eye(m)
    # z^T J + J z = 0 for z = J s with s symmetric, because J^T J = I and J J = -I
    return ctx.symplectic_form @ (z + np.swapaxes(z, 1, 2))


def _split_nak(ctx, z):
    """(z_n, z_a, z_k) of a stack z: the strictly upper part u goes to k as u - u^T."""
    u = np.triu(z, 1)
    zk = u - np.swapaxes(u, -1, -2)
    za = ctx.a_matrix(project_a(ctx, z))
    return z - za - zk, za, zk


def test_project_a_fixes_cartan_kills_rest(ctx):
    rng = substream(17, 1)
    x = rng.standard_normal(ctx.n) + 1j * rng.standard_normal(ctx.n)
    if ctx.family is Family.SPECIAL_LINEAR:
        x -= x.mean()
    np.testing.assert_allclose(project_a(ctx, ctx.a_matrix(x)), x, atol=1e-14)
    zn = _split_nak(ctx, _random_algebra(ctx, rng, 5))[0]
    for vec in list(ctx.basis_k) + list(zn):
        np.testing.assert_allclose(project_a(ctx, (0.3 + 0.2j) * vec), 0.0, atol=1e-14)
    # a (2, m, m) batch gives one row per matrix
    batch = np.stack([ctx.a_matrix(x), ctx.a_matrix(-2.0 * x) + 0.7 * zn[0]])
    got = project_a(ctx, batch)
    assert got.shape == (2, ctx.n)
    for row, z in zip(got, batch):
        np.testing.assert_array_equal(row, project_a(ctx, z))


def test_split_nak_resums(ctx):
    # Z = Z_n + Z_a + Z_k: project_a reads off Z_a alone, because Z_n is
    # strictly lower and Z_k a combination of the skew basis_k
    rng = substream(19, 2)
    for vec in ctx.basis_k:
        np.testing.assert_array_equal(vec, -vec.T)
    zn = _split_nak(ctx, _random_algebra(ctx, rng, 20))[0]
    assert np.max(np.abs(np.triu(zn))) == 0.0
    dim_k = len(ctx.basis_k)
    for z_n in zn:
        xa = rng.standard_normal(ctx.n) + 1j * rng.standard_normal(ctx.n)
        if ctx.family is Family.SPECIAL_LINEAR:
            xa -= xa.mean()
        zk = np.tensordot(rng.standard_normal(dim_k) + 1j * rng.standard_normal(dim_k),
                          ctx.basis_k, axes=1)
        np.testing.assert_allclose(project_a(ctx, z_n + ctx.a_matrix(xa) + zk), xa, atol=1e-12)


def test_decomposition_residual_thousand(ctx):
    # g_C = n_C + a_C + k_C: each part of 1000 random elements lies where it should
    rng = substream(23, 9)
    m = ctx.ambient_size
    zs = _random_algebra(ctx, rng, 1000)
    zn, za, zk = _split_nak(ctx, zs)
    scale = max(1.0, np.abs(zs).max())
    assert np.max(np.abs(np.triu(zn))) == 0.0
    assert max(_in_algebra(ctx, z) for z in zn) <= 1e-12 * scale
    np.testing.assert_array_equal(np.diagonal(za, axis1=1, axis2=2),
                                  np.diagonal(zs, axis1=1, axis2=2))
    mat = ctx.basis_k.reshape(len(ctx.basis_k), m * m).T
    flat = zk.reshape(len(zk), m * m).T
    sol, *_ = np.linalg.lstsq(mat, flat, rcond=None)
    assert np.abs(mat @ sol - flat).max() <= 1e-12 * scale


def test_sorted_frame_roundtrip(sp2):
    rng = substream(29, 4)
    m = rng.standard_normal((4, 4))
    np.testing.assert_array_equal(sp2.to_sorted_frame(sp2.to_standard_frame(m)), m)
    j = sp2.symplectic_form
    np.testing.assert_allclose(j.T, -j, atol=0)
