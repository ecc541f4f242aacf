import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crown import decompose_real, minor_ratios, project_complex, sample_xi
from crown.errors import NotInGroup, OmegaViolation, PivotBreakdown
from crown.groups import Family
from crown.iwasawa import (
    GRID_STEPS,
    _ldl,
    _path_ratios,
    _track,
    batch_reconstruction_residual,
    normalized_minors,
    project_real_batch,
    track_batch,
    triangular_part,
)
from crown.rng import substream
from crown.sampling import sample_group_element
from crown.weyl import FULL_OMEGA, draw_omega_point

from conftest import context
from oracles import (
    cauchy_binet_log_a,
    reference_ldl,
    reference_path_ratios,
    reference_polyline_log_a,
    sl2_im_log_a,
    sl2_real_log_a,
    sl2_rotation,
)


def residual(ctx, f, z):
    """The reconstruction residual of one factor triple, a batch of one."""
    return batch_reconstruction_residual(
        ctx, np.asarray(z)[None], f.log_full[None], f.n_part[None])[0]


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------- minor ratios

def test_minor_ratios_identity_and_diagonal():
    np.testing.assert_allclose(minor_ratios(np.eye(3)), np.ones(3))
    d = np.diag([2.0, -0.5, 3.0])
    np.testing.assert_allclose(minor_ratios(d), [2.0, -0.5, 3.0])


def test_minor_ratios_worked_complex_point():
    m = np.array([[1j, 0.5], [0.5, 1j]])
    np.testing.assert_allclose(minor_ratios(m), [1j, 1.25j], atol=1e-15)


@st.composite
def complex_symmetric(draw):
    """Complex symmetric m x m matrices, m = 1..5, parts in steps of 0.01, at most 2."""
    m = draw(st.integers(1, 5))
    entries = st.lists(st.integers(-100, 100), min_size=m * m, max_size=m * m)
    z = np.reshape(draw(entries), (m, m)) + 1j * np.reshape(draw(entries), (m, m))
    return (z + z.T) / 100.0


# derandomized and without an example database, so every run draws the same matrices
@settings(derandomize=True, database=None, max_examples=200)
@given(complex_symmetric())
def test_minor_ratios_match_determinant_ratios(z):
    # the elimination runs without pivoting, so compare only where no minor nears zero
    assume(np.min(normalized_minors(z)) > 1e-3)
    minors = np.array([np.linalg.det(z[:j, :j]) for j in range(1, len(z) + 1)])
    want = minors / np.concatenate([[1.0], minors[:-1]])
    np.testing.assert_allclose(minor_ratios(z), want, rtol=1e-9)


def test_minor_ratios_rejects_asymmetric():
    with pytest.raises(ValueError):
        minor_ratios(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_minor_ratios_pivot_breakdown():
    with pytest.raises(PivotBreakdown):
        minor_ratios(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_normalized_minors_scale_free():
    m = np.array([[1j, 0.5], [0.5, 1j]])
    a = normalized_minors(m)
    b = normalized_minors(1e6 * m)
    np.testing.assert_allclose(a, b, rtol=1e-12)


# ---------------------------------------------------------------- elimination kernel

def symmetric_stack(rng, shape, m, cplx):
    a = rng.standard_normal(shape + (m, m))
    if cplx:
        a = a + 1j * rng.standard_normal(shape + (m, m))
    return a + np.swapaxes(a, -1, -2)


@pytest.mark.parametrize("shape", [(9,), (3, 5)], ids=["B", "BxT"])
@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("m", range(1, 7))
def test_ldl_stack_gives_each_matrix_its_own_bits(m, cplx, shape):
    rng = np.random.default_rng(10 * m + cplx)
    mats = symmetric_stack(rng, shape, m, cplx)
    stacked = _ldl(mats)
    for got, want in zip(stacked, reference_ldl(mats)):
        assert_same_bits(got, want)
    for idx in np.ndindex(shape):
        for got, want in zip(_ldl(mats[idx]), stacked):
            assert_same_bits(got, want[idx])


@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
def test_ldl_zero_pivot_stays_in_its_own_matrix(cplx):
    rng = np.random.default_rng(17)
    mats = symmetric_stack(rng, (5,), 4, cplx)
    mats[2, 0, 0] = 0.0
    ratios, lower, minors = _ldl(mats)
    assert not np.all(np.isfinite(lower[2])) and not np.all(np.isfinite(ratios[2]))
    assert minors[2, 0] == 0.0
    rest = [0, 1, 3, 4]
    for out in (ratios, lower, minors):
        assert np.all(np.isfinite(out[rest]))
    for i in range(5):
        for got, want in zip(_ldl(mats[i]), (ratios, lower, minors)):
            assert_same_bits(got, want[i])


@pytest.mark.parametrize("label", ["sl:3", "sp:2"])
def test_empty_batches(label):
    ctx = context(label)
    m = ctx.ambient_size
    log_full, lower, max_steps, bad = track_batch(ctx, np.empty((0, m, m)), np.empty((0, ctx.n)))
    assert log_full.shape == (0, m) and lower.shape == (0, m, m)
    assert max_steps.shape == (0,) and bad.shape == (0,)
    ratios, lower, minors = _ldl(np.empty((0, m, m)))
    assert ratios.shape == (0, m) and lower.shape == (0, m, m) and minors.shape == (0, m)


# ---------------------------------------------------------------- real factors

def test_decompose_identity(ctx):
    f = decompose_real(ctx, np.eye(ctx.ambient_size))
    np.testing.assert_array_equal(f.n_part, np.eye(ctx.ambient_size))
    np.testing.assert_array_equal(f.log_a, np.zeros(ctx.n))
    np.testing.assert_array_equal(f.k_part, np.eye(ctx.ambient_size))


def test_decompose_abelian_element(ctx):
    x = 0.3 * np.arange(1.0, ctx.n + 1)
    if ctx.family is Family.SPECIAL_LINEAR:
        x -= x.mean()
    f = decompose_real(ctx, ctx.a_exp(x))
    np.testing.assert_allclose(f.log_a, x, atol=1e-14)
    np.testing.assert_allclose(f.n_part, np.eye(ctx.ambient_size), atol=1e-14)


def test_decompose_rotation(sl2):
    g = sl2_rotation(np.pi / 6)
    f = decompose_real(sl2, g)
    np.testing.assert_allclose(f.log_a, 0.0, atol=1e-15)
    np.testing.assert_allclose(f.n_part, np.eye(2), atol=1e-15)
    np.testing.assert_allclose(f.k_part, g, atol=1e-15)


def test_decompose_real_closed_form(sl2):
    for theta in (0.2, 1.0, np.pi / 2):
        for s in (0.1, 0.6):
            g = sl2_rotation(theta) @ sl2.a_exp(np.array([s, -s]))
            f = decompose_real(sl2, g)
            assert abs(f.log_a[0] - sl2_real_log_a(theta, s)) < 1e-13
            assert residual(sl2, f, g) < 1e-12
    # theta = pi/2 is the nontrivial Weyl representative: opposite vertex
    g = sl2_rotation(np.pi / 2) @ sl2.a_exp(np.array([0.4, -0.4]))
    assert abs(decompose_real(sl2, g).log_a[0] + 0.4) < 1e-13


def test_decompose_factors_real_and_structured(ctx):
    rng = substream(53, 0)
    for _ in range(25):
        g = sample_group_element(ctx, [rng], "full-g")[0]
        f = decompose_real(ctx, g)
        assert f.n_part.dtype.kind == "f" and f.log_a.dtype.kind == "f"
        assert np.max(np.abs(np.triu(f.n_part, 1))) == 0.0
        np.testing.assert_allclose(np.diagonal(f.n_part), 1.0, atol=0)
        np.testing.assert_allclose(
            f.k_part @ f.k_part.T, np.eye(ctx.ambient_size), atol=1e-10)
        assert residual(ctx, f, g) < 1e-10
        assert np.max(np.abs(f.log_full - ctx.full_diag(f.log_a))) < 1e-10


def test_decompose_rejects_non_member(sl2):
    with pytest.raises(NotInGroup):
        decompose_real(sl2, np.diag([2.0, 1.0]))


# ------------------------------------------------------------- complex factors

def test_project_identity_base(ctx):
    x = draw_omega_point(ctx, FULL_OMEGA, substream(59, 0))
    f = project_complex(ctx, np.eye(ctx.ambient_size), x)
    np.testing.assert_allclose(f.log_a, 1j * x, atol=1e-12)
    np.testing.assert_allclose(f.n_part, np.eye(ctx.ambient_size), atol=1e-12)


def test_project_abelian_base(ctx):
    rng = substream(59, 1)
    x = draw_omega_point(ctx, FULL_OMEGA, rng)
    a0 = 0.2 * rng.standard_normal(ctx.n)
    if ctx.family is Family.SPECIAL_LINEAR:
        a0 -= a0.mean()
    f = project_complex(ctx, ctx.a_exp(a0), x)
    np.testing.assert_allclose(f.log_a, a0 + 1j * x, atol=1e-12)


def test_project_sl2_closed_form():
    from conftest import context
    sl2 = context("sl:2")
    theta, t = np.pi / 3, 0.3
    f = project_complex(sl2, sl2_rotation(theta), np.array([t, -t]))
    oracle = sl2_im_log_a(theta, t)
    assert abs(f.log_a[0].imag - oracle) < 1e-13
    assert abs(oracle - (-0.16479570495708282)) < 1e-15  # frozen oracle value
    z = sl2_rotation(theta) @ sl2.a_exp(1j * np.array([t, -t]))
    assert residual(sl2, f, z) < 1e-12


def test_project_rejects_outside_omega(sl2):
    with pytest.raises(OmegaViolation):
        project_complex(sl2, np.eye(2), np.array([0.8, -0.8]))


def test_project_real_input_matches_decompose(ctx):
    rng = substream(59, 2)
    for _ in range(10):
        g = sample_group_element(ctx, [rng], "full-g")[0]
        f0 = decompose_real(ctx, g)
        f1 = project_complex(ctx, g, np.zeros(ctx.n))
        np.testing.assert_allclose(f1.log_a, f0.log_a, atol=1e-12)


def test_reconstruction_and_k_orthogonality(ctx):
    rng = substream(59, 3)
    for i in range(30):
        x = draw_omega_point(ctx, FULL_OMEGA, rng)
        g = sample_group_element(ctx, [rng], "full-g")[0]
        f = project_complex(ctx, g, x)
        z = g @ ctx.a_exp(1j * x)
        assert residual(ctx, f, z) < 1e-10
        np.testing.assert_allclose(
            f.k_part @ f.k_part.T, np.eye(ctx.ambient_size), atol=1e-10)
        assert np.max(np.abs(np.triu(f.n_part, 1))) == 0.0


def test_path_independence_two_leg(ctx):
    rng = substream(61, 4)
    for _ in range(12):
        x = draw_omega_point(ctx, FULL_OMEGA, rng)
        x0 = draw_omega_point(ctx, FULL_OMEGA, rng)
        g = sample_group_element(ctx, [rng], "k")[0]
        direct = project_complex(ctx, g, x)
        two_leg = reference_polyline_log_a(ctx, g, [x0, x])
        np.testing.assert_allclose(two_leg, direct.log_a, atol=1e-8)


def test_left_translation_equivariance(ctx):
    # a(n0 a0 z) shifts log a by log a0 and keeps the imaginary part
    rng = substream(61, 5)
    for _ in range(10):
        x = draw_omega_point(ctx, FULL_OMEGA, rng)
        g = sample_group_element(ctx, [rng], "k")[0]
        a0 = 0.3 * rng.standard_normal(ctx.n)
        if ctx.family is Family.SPECIAL_LINEAR:
            a0 -= a0.mean()
        # the unit lower factor of h = n a k is a group element of N
        n0 = project_real_batch(sample_group_element(ctx, [rng], "full-g"))[1][0]
        base = project_complex(ctx, g, x)
        shifted = project_complex(ctx, n0 @ ctx.a_exp(a0) @ g, x)
        np.testing.assert_allclose(shifted.log_a, base.log_a + a0, atol=1e-10)


@pytest.mark.parametrize("label", ["sl:3", "sp:2", "sl:4", "sp:3"])
def test_left_n_invariance_batch(label):
    # n' z z^T n'^T keeps every leading minor, so log a(n' z) = log a(z) on the
    # tracked branch too; a wrong branch would show as a jump of pi
    ctx = context(label)
    gs, xs = sample_xi(ctx, FULL_OMEGA, 512, seed=11)
    hs, _ = sample_xi(ctx, FULL_OMEGA, 512, seed=12)
    n0s = project_real_batch(hs)[1]
    base, _, _, bad = track_batch(ctx, gs, xs)
    shifted, _, _, bad_shifted = track_batch(ctx, n0s @ gs, xs)
    assert not bad.any() and not bad_shifted.any()
    assert np.max(np.abs(shifted - base)) <= 1e-12


@pytest.mark.parametrize("label", ["sl:3", "sp:2", "sl:4", "sp:3"])
def test_cauchy_binet_route_on_cone_safe_rows(label):
    ctx = context(label)
    gs, xs = sample_xi(ctx, FULL_OMEGA, 300, seed=13)
    d = np.sort(ctx.full_diag(xs), axis=1)
    m = ctx.ambient_size
    s = np.stack([d[:, m - j:].sum(axis=1) - d[:, :j].sum(axis=1) for j in range(1, m + 1)])
    safe = 2.0 * s.max(axis=0) < np.pi
    # on sl:3 every root value is below pi/2, and s_1 = s_2 = d_1 - d_3 is a root value
    assert safe.all() if label == "sl:3" else safe.any()
    log_full = track_batch(ctx, gs[safe], xs[safe])[0]
    np.testing.assert_allclose(log_full, cauchy_binet_log_a(ctx, gs[safe], xs[safe]),
                               rtol=0, atol=1e-12)


def test_sp_pairing_residual(sp2):
    rng = substream(61, 6)
    for _ in range(20):
        x = draw_omega_point(sp2, FULL_OMEGA, rng)
        g = sample_group_element(sp2, [rng], "full-g")[0]
        f = project_complex(sp2, g, x)
        assert np.max(np.abs(f.log_full - sp2.full_diag(f.log_a))) < 1e-10


def test_triangular_part(ctx):
    rng = substream(61, 7)
    x = draw_omega_point(ctx, FULL_OMEGA, rng)
    g = sample_group_element(ctx, [rng], "full-g")[0]
    f = project_complex(ctx, g, x)
    b = triangular_part(ctx, f)
    assert np.max(np.abs(np.triu(b, 1))) == 0.0
    np.testing.assert_allclose(np.diagonal(b), np.exp(ctx.full_diag(f.log_a)), atol=1e-14)
    z = g @ ctx.a_exp(1j * x)
    np.testing.assert_allclose(b @ f.k_part, z, atol=1e-10 * np.linalg.norm(z))
    ident = decompose_real(ctx, np.eye(ctx.ambient_size))
    np.testing.assert_array_equal(
        triangular_part(ctx, ident), np.eye(ctx.ambient_size))


def test_track_batch_matches_scalar(ctx):
    rng = substream(61, 8)
    count = 40
    xs = np.array([draw_omega_point(ctx, FULL_OMEGA, rng) for _ in range(count)])
    gs = np.array([sample_group_element(ctx, [rng], "k")[0] for _ in range(count)])
    log_full, lower, max_steps, bad = track_batch(ctx, gs, xs)
    assert not bad.any()
    for i in range(0, count, 7):
        f = project_complex(ctx, gs[i], xs[i])
        np.testing.assert_allclose(log_full[i, :ctx.n], f.log_a, atol=1e-12)


@pytest.mark.parametrize("label", ["sl:3", "sp:2"])
def test_track_batch_row_independent_of_batch(label):
    # the batched Armijo ladder of ascend_critical relies on this, bit for bit
    ctx = context(label)
    count = 512
    rngs = [substream(67, i) for i in range(count)]
    xs = np.array([draw_omega_point(ctx, FULL_OMEGA, rng) for rng in rngs])
    gs = sample_group_element(ctx, rngs, "full-g")
    batch = track_batch(ctx, gs, xs)
    assert not batch[3].any()
    for i in range(count):
        alone = track_batch(ctx, gs[i:i + 1], xs[i:i + 1])
        for got, want in zip(alone, batch):
            assert got[0].tobytes() == want[i].tobytes()
        f = project_complex(ctx, gs[i], xs[i])
        assert f.log_a.tobytes() == batch[0][i, :ctx.n].tobytes()
        assert f.n_part.tobytes() == batch[1][i].tobytes()


@pytest.mark.parametrize("label", ["sl:3", "sp:2", "sl:5"])
def test_path_ratios_match_per_matrix_products(label):
    # one stacked product per path must keep the bits of one product per grid matrix
    ctx = context(label)
    count = 64
    rngs = [substream(71, i) for i in range(count)]
    xs = np.array([draw_omega_point(ctx, FULL_OMEGA, rng) for rng in rngs])
    gs = sample_group_element(ctx, rngs, "full-g")
    for steps in (1, GRID_STEPS):
        ts = np.linspace(0.0, 1.0, steps + 1)
        coords = ts[None, :, None] * xs[:, None, :]
        for got, want in zip(_path_ratios(ctx, gs, coords),
                             reference_path_ratios(ctx, gs, coords)):
            assert_same_bits(got, want)
    # leading shape () on a refined, uneven grid, as _track calls it
    ss = np.sort(np.concatenate([ts, 0.5 * (ts[:-1] + ts[1:])[::3]]))
    for i in range(0, count, 9):
        coords = ss[:, None] * xs[i][None, :]
        for got, want in zip(_path_ratios(ctx, gs[i], coords),
                             reference_path_ratios(ctx, gs[i], coords)):
            assert_same_bits(got, want)


def test_branch_on_a_coarse_grid_near_corner(sl2):
    # near the polytope corner a two-step grid still matches the closed form
    t = 0.75 * np.pi / 4
    theta = 1.3
    g, x = sl2_rotation(theta), np.array([t, -t])
    # the largest step is 0.60, below the cap: no sl:2 path needs subdivision, because
    # the top ratio cos 2t + i sin 2t cos 2theta keeps a positive real part
    log_full, _, max_steps, _ = track_batch(sl2, g[None], x[None], steps_hint=2)
    assert abs(log_full[0, 0].imag - sl2_im_log_a(theta, t)) < 1e-12
    assert max_steps[0] < np.pi / 2


def test_branch_subdivides_on_a_one_step_grid(sl3):
    # one grid step over the whole path moves some sl:3 arguments past pi/2, so those
    # rows are bisected (19 of these 256) and land on the branch of the default grid
    gs, xs = sample_xi(sl3, FULL_OMEGA, 256, 1)
    segments = [_track(sl3, g, x, 1)[2] for g, x in zip(gs, xs)]
    assert max(segments) > 1
    coarse, _, max_steps, bad = track_batch(sl3, gs, xs, steps_hint=1)
    fine, _, _, fine_bad = track_batch(sl3, gs, xs)
    assert not bad.any() and not fine_bad.any()
    np.testing.assert_allclose(coarse, fine, rtol=0, atol=1e-12)
    assert np.all(max_steps < np.pi / 2)
