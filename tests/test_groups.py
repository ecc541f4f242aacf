import numpy as np
import pytest

from crown import CovectorIA, Family, GroupSpec, cartan_involution, killing_r
from crown.errors import SingularInput, UnsupportedFamily
from crown.groups import h_lambda, is_regular, pair_ia, project_a, split_nak
from crown.rng import substream

from conftest import context


def test_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec(Family.SPECIAL_LINEAR, 1)
    with pytest.raises(ValueError):
        GroupSpec(Family.SYMPLECTIC, 0)
    with pytest.raises(UnsupportedFamily):
        GroupSpec("so", 3)


def test_sl2_root_data(sl2):
    datum = sl2.root_datum
    assert datum.rank == 1
    assert len(datum.roots) == 2
    # alpha(diag(t, -t)) = 2t for the positive root up to sign
    vals = datum.evaluate(np.array([1.0, -1.0]))
    assert sorted(vals.tolist()) == [-2.0, 2.0]


def test_sl3_root_data(sl3):
    datum = sl3.root_datum
    assert len(datum.roots) == 6
    assert len(datum.positive_roots) == 3


def test_sp2_root_data(sp2):
    datum = sp2.root_datum
    assert len(datum.roots) == 8
    assert len(datum.positive_roots) == 4
    vals = np.abs(datum.evaluate(np.array([0.5, 0.2])))
    # |+-e1 +- e2| gives 0.3 and 0.7 twice, |+-2e_i| gives 1.0 and 0.4 twice
    np.testing.assert_allclose(
        sorted(vals), [0.3, 0.3, 0.4, 0.4, 0.7, 0.7, 1.0, 1.0], atol=1e-14)


LABELS = ["sl:2", "sl:3", "sl:4", "sl:5", "sp:1", "sp:2", "sp:3"]


@pytest.mark.parametrize("label", LABELS)
def test_root_system_symmetry_and_simple_basis(label):
    ctx = context(label)
    datum = ctx.root_datum
    root_set = {tuple(r) for r in np.round(datum.roots, 12)}
    assert {tuple(-r) for r in np.round(datum.roots, 12)} == root_set
    pos = {tuple(r) for r in np.round(datum.positive_roots, 12)}
    assert pos | {tuple(-np.array(r)) for r in pos} == root_set
    assert len(pos) * 2 == len(root_set)
    assert np.linalg.matrix_rank(datum.roots) == datum.rank
    # the LDL^T route needs every positive root negative where full_diag descends
    x = np.arange(ctx.n, 0.0, -1.0)
    if ctx.family is Family.SPECIAL_LINEAR:
        x -= x.mean()
    assert np.all(np.diff(ctx.full_diag(x)) < 0.0)
    assert np.all(datum.positive_roots @ x < 0.0)


def test_root_sets_explicit(sl3, sp2):
    want_a2 = {(1, -1, 0), (-1, 1, 0), (1, 0, -1), (-1, 0, 1), (0, 1, -1), (0, -1, 1)}
    assert {tuple(int(v) for v in r) for r in sl3.root_datum.roots} == want_a2
    want_c2 = {(1, -1), (-1, 1), (1, 1), (-1, -1), (2, 0), (-2, 0), (0, 2), (0, -2)}
    assert {tuple(int(v) for v in r) for r in sp2.root_datum.roots} == want_c2
    # A_{n-1} has n(n-1) roots and C_n has 2n^2, half of them positive
    for label in LABELS:
        ctx = context(label)
        n = ctx.n
        count = n * (n - 1) if ctx.family is Family.SPECIAL_LINEAR else 2 * n * n
        assert len(ctx.root_datum.roots) == count
        assert len(ctx.root_datum.positive_roots) == count // 2


def test_bases_span_full_algebra(ctx):
    m = ctx.ambient_size
    blocks = np.concatenate([ctx.basis_n, ctx.basis_a, ctx.basis_k])
    rank = np.linalg.matrix_rank(blocks.reshape(len(blocks), m * m))
    assert rank == len(blocks) == ctx.dim_g


def test_theta_fixes_k_negates_a(ctx):
    for b in ctx.basis_k:
        np.testing.assert_allclose(-b.T, b, atol=1e-14)
    for b in ctx.basis_a:
        np.testing.assert_allclose(-b.T, -b, atol=1e-14)


def test_theta_involution_and_automorphism(ctx):
    rng = substream(101, 0)
    from crown.sampling import sample_group_element
    for _ in range(1000):
        g = sample_group_element(ctx, [rng], "full-g")[0]
        h = sample_group_element(ctx, [rng], "full-g")[0]
        gh = cartan_involution(ctx, cartan_involution(ctx, g))
        np.testing.assert_allclose(gh, g, atol=1e-12 * (1 + np.linalg.norm(g)))
        np.testing.assert_allclose(
            cartan_involution(ctx, g @ h),
            cartan_involution(ctx, g) @ cartan_involution(ctx, h),
            atol=1e-12 * (1 + np.linalg.norm(g) * np.linalg.norm(h)))


def test_theta_examples(sl2):
    np.testing.assert_array_equal(cartan_involution(sl2, np.eye(2)), np.eye(2))
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    np.testing.assert_allclose(cartan_involution(sl2, rot), rot, atol=1e-15)
    np.testing.assert_allclose(
        cartan_involution(sl2, np.diag([2.0, 0.5])), np.diag([0.5, 2.0]), atol=1e-15)


def test_theta_singular_input(sl2):
    with pytest.raises(SingularInput):
        cartan_involution(sl2, np.zeros((2, 2)))


def test_root_space_property_exact(ctx):
    # [H, X_alpha] = alpha(H) X_alpha with integer structure constants
    datum = ctx.root_datum
    for vec in ctx.basis_n:
        matched = False
        for h_idx, h in enumerate(ctx.basis_a):
            bracket = h @ vec - vec @ h
            coords = np.zeros(len(ctx.basis_a))
            coords[h_idx] = 1.0
            if ctx.family is Family.SPECIAL_LINEAR:
                x = np.zeros(ctx.n)
                x[h_idx], x[h_idx + 1] = 1.0, -1.0
            else:
                x = coords
            vals = datum.evaluate(x)
            errs = [np.max(np.abs(bracket - v * vec)) for v in vals]
            if min(errs) <= 1e-14:
                matched = True
        assert matched


def test_root_space_eigenvalue_consistent(ctx):
    # every basis_n vector is a simultaneous eigenvector with eigenvalue some positive root
    rng = substream(41, 7)
    x = rng.standard_normal(ctx.n)
    if ctx.family is Family.SPECIAL_LINEAR:
        x -= x.mean()
    h = ctx.a_matrix(x)
    pos_vals = ctx.root_datum.positive_roots @ x
    for vec in ctx.basis_n:
        bracket = h @ vec - vec @ h
        ratios = bracket[np.abs(vec) > 0.5] / vec[np.abs(vec) > 0.5]
        val = ratios.flat[0]
        np.testing.assert_allclose(ratios, val, atol=1e-13)
        assert np.min(np.abs(pos_vals - val)) < 1e-12


def test_killing_r_identity(ctx):
    rng = substream(11, 3)
    m = ctx.ambient_size
    for _ in range(50):
        z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        w = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        lhs = killing_r(ctx, z, w)
        rhs = 2.0 * (killing_r(ctx, z.real, w.real) / 2.0 - killing_r(ctx, z.imag, w.imag) / 2.0)
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))
    x = rng.standard_normal((m, m))
    assert np.isclose(killing_r(ctx, x, x), 2 * ctx.killing_scale * np.trace(x @ x))
    assert np.isclose(killing_r(ctx, 1j * x, 1j * x), -2 * ctx.killing_scale * np.trace(x @ x))


def test_h_lambda_pairing(ctx):
    rng = substream(13, 5)
    m_coords = rng.standard_normal(ctx.n)
    if ctx.family is Family.SPECIAL_LINEAR:
        m_coords -= m_coords.mean()
    lam = CovectorIA(m_coords=m_coords)
    h = h_lambda(ctx, lam)
    assert np.max(np.abs(h.real)) == 0.0
    for _ in range(100):
        zc = rng.standard_normal(ctx.n) + 1j * rng.standard_normal(ctx.n)
        if ctx.family is Family.SPECIAL_LINEAR:
            zc -= zc.mean()
        expected = pair_ia(ctx, zc, m_coords)
        got = killing_r(ctx, ctx.a_matrix(zc), h)
        assert abs(expected - got) <= 1e-12 * (1 + abs(expected))
    zero = h_lambda(ctx, CovectorIA(m_coords=np.zeros(ctx.n)))
    assert np.max(np.abs(zero)) == 0.0


def test_regularity_flag(ctx):
    m = np.arange(1.0, ctx.n + 1.0)
    if ctx.family is Family.SPECIAL_LINEAR:
        m -= m.mean()
    assert is_regular(ctx, m)
    assert not is_regular(ctx, np.zeros(ctx.n))


def test_project_a_fixes_cartan_kills_rest(ctx):
    rng = substream(17, 1)
    x = rng.standard_normal(ctx.n) + 1j * rng.standard_normal(ctx.n)
    if ctx.family is Family.SPECIAL_LINEAR:
        x -= x.mean()
    np.testing.assert_allclose(project_a(ctx, ctx.a_matrix(x)), x, atol=1e-14)
    for vec in list(ctx.basis_k) + list(ctx.basis_n):
        np.testing.assert_allclose(project_a(ctx, (0.3 + 0.2j) * vec), 0.0, atol=1e-14)
    # a (2, m, m) batch gives one row per matrix
    batch = np.stack([ctx.a_matrix(x), ctx.a_matrix(-2.0 * x) + 0.7 * ctx.basis_n[0]])
    got = project_a(ctx, batch)
    assert got.shape == (2, ctx.n)
    for row, z in zip(got, batch):
        np.testing.assert_array_equal(row, project_a(ctx, z))


def test_split_nak_resums(ctx):
    rng = substream(19, 2)
    m = ctx.ambient_size
    blocks = np.concatenate([ctx.basis_n, ctx.basis_a, ctx.basis_k])
    for _ in range(20):
        coeff = rng.standard_normal(len(blocks)) + 1j * rng.standard_normal(len(blocks))
        z = np.tensordot(coeff, blocks, axes=1)
        zn, za, zk = split_nak(ctx, z)
        np.testing.assert_allclose(zn + za + zk, z, atol=1e-12 * (1 + np.abs(coeff).max()))
        np.testing.assert_allclose(project_a(ctx, z), project_a(ctx, za), atol=1e-12)
        # each part lies in its subspace: strict triangularity / skew / diagonal
        assert np.max(np.abs(np.triu(zn))) < 1e-12
        np.testing.assert_allclose(zk, -zk.T, atol=1e-12)


def test_decomposition_residual_thousand(ctx):
    rng = substream(23, 9)
    m = ctx.ambient_size
    blocks = np.concatenate([ctx.basis_n, ctx.basis_a, ctx.basis_k])
    mat = blocks.reshape(len(blocks), m * m).T
    coeffs = rng.standard_normal((1000, len(blocks)))
    zs = coeffs @ blocks.reshape(len(blocks), m * m)
    sol, *_ = np.linalg.lstsq(mat, zs.T, rcond=None)
    resid = np.abs(mat @ sol - zs.T).max()
    assert resid <= 1e-12 * max(1.0, np.abs(zs).max())


def test_sorted_frame_roundtrip(sp2):
    rng = substream(29, 4)
    m = rng.standard_normal((4, 4))
    np.testing.assert_array_equal(sp2.to_sorted_frame(sp2.to_standard_frame(m)), m)
    j = sp2.symplectic_form
    np.testing.assert_allclose(j.T, -j, atol=0)
