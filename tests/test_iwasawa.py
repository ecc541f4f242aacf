import dataclasses
import os
import pathlib
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crown import (
    decompose_real,
    iwasawa,
    minor_ratios,
    project_complex,
    sample_xi,
    verify_complex_convexity,
)
from crown.errors import NumericalBreakdown
from crown.groups import Family
from crown.iwasawa import (
    GRID_STEPS,
    _ldl,
    _path_ratios,
    batch_reconstruction_residual,
    k_factor,
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


def k_of(f, z):
    """The k of z = n a k from the factors of z, a batch of one."""
    return k_factor(np.asarray(z)[None], f.log_full[None], f.n_part[None])[0]


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
    with pytest.raises(NumericalBreakdown, match="minor 1 degenerated"):
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


# m = 8 is the first size whose row sums numpy adds in blocks of eight, not in
# order, and m = 150 is added as two halves, of 72 and 78 terms
LDL_SIZES = list(range(1, 11)) + [150]


@pytest.mark.parametrize("shape", [(9,), (3, 5)], ids=["B", "BxT"])
@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("m", LDL_SIZES)
def test_ldl_stack_gives_each_matrix_its_own_bits(m, cplx, shape):
    rng = np.random.default_rng(10 * m + cplx)
    # entries spread over six orders of magnitude, so the order in which a row's
    # squares are added shows in the bits of its Hadamard bound
    spread = rng.uniform(-3.0, 0.0, shape + (m, m))
    mats = symmetric_stack(rng, shape, m, cplx) * 10.0 ** (spread + np.swapaxes(spread, -1, -2))
    stacked = _ldl(mats)
    for got, want in zip(stacked, reference_ldl(mats)):
        assert_same_bits(got, want)
    for idx in np.ndindex(shape):
        for got, want in zip(_ldl(mats[idx]), stacked):
            assert_same_bits(got, want[idx])


@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("m", LDL_SIZES[:-1])
def test_ldl_in_a_workspace_keeps_every_bit(m, cplx):
    # track_batch eliminates a block of several rows in its workspace, each array in
    # one of the shape _ldl allocates: every output keeps _ldl's bits
    rng = np.random.default_rng(10 * m + cplx)
    spread = rng.uniform(-3.0, 0.0, (3, 5, m, m))
    mats = symmetric_stack(rng, (3, 5), m, cplx) * 10.0 ** (spread + np.swapaxes(spread, -1, -2))
    for got, want in zip(_ldl(mats, iwasawa._Workspace()), _ldl(mats)):
        assert_same_bits(got, want)


@pytest.mark.parametrize("m, cplx", [
    pytest.param(4, False, id="real"), pytest.param(4, True, id="complex"),
    pytest.param(9, False, id="9-real"), pytest.param(9, True, id="9-complex")])
def test_ldl_zero_pivot_stays_in_its_own_matrix(m, cplx):
    rng = np.random.default_rng(17)
    mats = symmetric_stack(rng, (5,), m, cplx)
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


@pytest.mark.parametrize("shape", [(), (1,), (9,), (3, 5)], ids=["one", "B1", "B", "BxT"])
def test_ldl_ratios_and_minors_are_c_contiguous(shape):
    # the outputs feed the reports through further numpy calls, and a strided
    # operand can send those to loops that round otherwise
    rng = np.random.default_rng(23)
    ratios, _, minors = _ldl(symmetric_stack(rng, shape, 3, True))
    for out in (ratios, minors):
        assert out.shape == shape + (3,) and out.flags.c_contiguous


@pytest.mark.parametrize("label", ["sl:3", "sp:2"])
def test_empty_batches(label):
    ctx = context(label)
    m = ctx.ambient_size
    log_full, lower, max_steps, segments, bad = track_batch(
        ctx, np.empty((0, m, m)), np.empty((0, ctx.n)))
    assert log_full.shape == (0, m) and lower.shape == (0, m, m)
    assert max_steps.shape == segments.shape == bad.shape == (0,)
    ratios, lower, minors = _ldl(np.empty((0, m, m)))
    assert ratios.shape == (0, m) and lower.shape == (0, m, m) and minors.shape == (0, m)


# ---------------------------------------------------------------- real factors

def test_decompose_identity(ctx):
    f = decompose_real(ctx, np.eye(ctx.ambient_size))
    np.testing.assert_array_equal(f.n_part, np.eye(ctx.ambient_size))
    np.testing.assert_array_equal(f.log_a, np.zeros(ctx.n))
    np.testing.assert_array_equal(k_of(f, np.eye(ctx.ambient_size)), np.eye(ctx.ambient_size))


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
    np.testing.assert_allclose(k_of(f, g), g, atol=1e-15)


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
        k = k_of(f, g)
        np.testing.assert_allclose(k @ k.T, np.eye(ctx.ambient_size), atol=1e-10)
        assert residual(ctx, f, g) < 1e-10
        assert np.max(np.abs(f.log_full - ctx.full_diag(f.log_a))) < 1e-10


@pytest.mark.parametrize("label", ["sl:3", "sp:2"])
def test_scalar_factors_solve_for_no_k(label, monkeypatch):
    # the record holds the tracker's row alone; k is solved only where it is read
    def refuse(*args):
        raise AssertionError("np.linalg.solve called")

    ctx = context(label)
    rng = substream(53, 1)
    x = draw_omega_point(ctx, FULL_OMEGA, rng)
    g = sample_group_element(ctx, [rng], "full-g")[0]
    monkeypatch.setattr(np.linalg, "solve", refuse)
    assert np.all(np.isfinite(project_complex(ctx, g, x).log_a))
    assert np.all(np.isfinite(decompose_real(ctx, g).log_a))


def test_decompose_rejects_non_member(sl2):
    with pytest.raises(ValueError, match="group membership"):
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
    with pytest.raises(ValueError, match="admissible polytope"):
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
        k = k_of(f, z)
        np.testing.assert_allclose(k @ k.T, np.eye(ctx.ambient_size), atol=1e-10)
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
    base, _, _, _, bad = track_batch(ctx, gs, xs)
    shifted, _, _, _, bad_shifted = track_batch(ctx, n0s @ gs, xs)
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
    np.testing.assert_allclose(b @ k_of(f, z), z, atol=1e-10 * np.linalg.norm(z))
    ident = decompose_real(ctx, np.eye(ctx.ambient_size))
    np.testing.assert_array_equal(
        triangular_part(ctx, ident), np.eye(ctx.ambient_size))


def test_track_batch_matches_scalar(ctx):
    rng = substream(61, 8)
    count = 40
    xs = np.array([draw_omega_point(ctx, FULL_OMEGA, rng) for _ in range(count)])
    gs = np.array([sample_group_element(ctx, [rng], "k")[0] for _ in range(count)])
    log_full, lower, max_steps, segments, bad = track_batch(ctx, gs, xs)
    assert not bad.any()
    for i in range(0, count, 7):
        f = project_complex(ctx, gs[i], xs[i])
        np.testing.assert_allclose(log_full[i, :ctx.n], f.log_a, atol=1e-12)


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(st.sampled_from(["sl:2", "sl:3", "sl:4", "sp:1", "sp:2", "sp:3"]),
       st.integers(0, 2 ** 32 - 1), st.data())
def test_track_batch_is_weyl_equivariant(label, seed, data):
    # k_w^T exp(i wX) = exp(iX) k_w^T, so g k_w^T exp(itwX) is g exp(itX) moved by an
    # element of K on the right: the same tracked branch of log a
    ctx = context(label)
    i = data.draw(st.integers(0, len(ctx.weyl) - 1), label="weyl index")
    gs, xs = sample_xi(ctx, FULL_OMEGA, 16, seed)
    base = track_batch(ctx, gs, xs)
    moved = track_batch(ctx, gs @ ctx.weyl_k[i].T, xs @ ctx.weyl[i].T)
    assert not base[4].any() and not moved[4].any()
    np.testing.assert_allclose(moved[0], base[0], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("label", ["sl:3", "sp:2"])
def test_track_batch_row_independent_of_batch(label):
    # project_complex is track_batch on a batch of one, so it keeps the batch's bits
    # only while this holds
    ctx = context(label)
    count = 512
    rngs = [substream(67, i) for i in range(count)]
    xs = np.array([draw_omega_point(ctx, FULL_OMEGA, rng) for rng in rngs])
    gs = sample_group_element(ctx, rngs, "full-g")
    batch = track_batch(ctx, gs, xs)
    assert not batch[4].any()
    for i in range(count):
        alone = track_batch(ctx, gs[i:i + 1], xs[i:i + 1])
        for got, want in zip(alone, batch):
            assert got[0].tobytes() == want[i].tobytes()
        f = project_complex(ctx, gs[i], xs[i])
        assert f.log_a.tobytes() == batch[0][i, :ctx.n].tobytes()
        assert f.n_part.tobytes() == batch[1][i].tobytes()


@pytest.mark.parametrize("label", ["sl:3", "sp:2", "sp:3"])
def test_project_complex_rows_equal_one_row_calls(label):
    # gradient_check projects all its configurations in one call: every field of
    # a row keeps the bits of the row's own call, and 40 rows span several blocks
    ctx = context(label)
    m, count = ctx.ambient_size, 40
    gs, xs = sample_xi(ctx, FULL_OMEGA, count, 29)
    stacked = project_complex(ctx, gs, xs)
    assert stacked.n_part.shape == (count, m, m) and stacked.path_steps.shape == (count,)
    for i in range(count):
        alone = project_complex(ctx, gs[i], xs[i])
        assert type(alone.path_steps) is int and type(alone.max_arg_step) is float
        for field in dataclasses.fields(alone):
            got, want = getattr(stacked, field.name)[i], getattr(alone, field.name)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), field.name
    # the fields carry every leading axis of the rows
    grid = project_complex(ctx, gs.reshape(4, 10, m, m), xs.reshape(4, 10, ctx.n))
    assert grid.log_a.shape == (4, 10, ctx.n) and grid.max_arg_step.shape == (4, 10)
    assert grid.n_part.tobytes() == stacked.n_part.tobytes()
    assert grid.log_full.tobytes() == stacked.log_full.tobytes()


@pytest.mark.parametrize("label", ["sl:3", "sp:2"])
def test_project_complex_rejects_a_stack_with_one_bad_row(label):
    ctx = context(label)
    gs, xs = sample_xi(ctx, FULL_OMEGA, 8, 31)
    outside = xs.copy()
    # a largest root value of 4 lies beyond the cutoff pi/2
    outside[5] *= 4.0 / np.abs(xs[5] @ ctx.roots.T).max()
    with pytest.raises(ValueError, match="admissible polytope"):
        project_complex(ctx, gs, outside)
    off = gs.copy()
    off[3] *= 1.1
    with pytest.raises(ValueError, match="group membership"):
        project_complex(ctx, off, xs)


def test_project_complex_breakdown_on_one_row_raises(sl2):
    # at theta = pi/4 the first minor of z z^T is cos 2t, which row 3 takes 2e-14 from zero
    ts = np.array([0.1, 0.3, 0.5, np.pi / 4 - 1e-14, 0.2])
    xs = np.stack([ts, -ts], axis=1)
    gs = np.tile(sl2_rotation(np.pi / 4), (len(ts), 1, 1))
    assert not track_batch(sl2, gs, xs)[4][[0, 1, 2, 4]].any()
    with pytest.raises(NumericalBreakdown, match="minor degenerated"):
        project_complex(sl2, gs, xs)


@pytest.mark.parametrize("label, count, steps_hint", [
    ("sl:3", 300, GRID_STEPS), ("sl:3", 2000, 1), ("sp:4", 200, GRID_STEPS), ("sp:4", 200, 1)])
def test_track_batch_row_bits_do_not_depend_on_its_block(label, count, steps_hint):
    # the batch spans several blocks (sp:4 holds 15 rows a block at the default grid,
    # sl:3 910 at steps_hint=1); at steps_hint=1 some sl:3 rows are tracked again
    # from inside a block, in the same workspace
    ctx = context(label)
    m = ctx.ambient_size
    block = max(1, iwasawa.TRACK_BLOCK_BYTES // (16 * (steps_hint + 1) * m * m))
    assert count > block
    gs, xs = sample_xi(ctx, FULL_OMEGA, count, 13)
    batch = track_batch(ctx, gs, xs, steps_hint)
    assert not batch[4].any()
    if label == "sl:3" and steps_hint == 1:
        assert np.sum(batch[3] > 1) == 203
    for i in range(count):
        alone = track_batch(ctx, gs[i:i + 1], xs[i:i + 1], steps_hint)
        for got, want in zip(alone, batch):
            assert_same_bits(got, want[i:i + 1])


def test_track_batch_working_set_is_bounded():
    # 2,048 sp:4 rows on one grid would hold 35 MiB a complex temporary; blocks keep
    # the peak to the outputs (2.3 MiB) and a few blocks' temporaries
    ctx = context("sp:4")
    gs, xs = sample_xi(ctx, FULL_OMEGA, 2048, 17)
    tracemalloc.start()
    try:
        out = track_batch(ctx, gs, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not out[4].any()
    assert peak < 8 * 2 ** 20


def test_track_batch_returns_nothing_that_views_its_workspace():
    # every block of several rows runs in the thread's workspace, and later calls
    # reuse it: what a one-block call, a several-block call and a call whose rows are
    # tracked again (steps_hint=1, a nested call) returned keeps its bytes
    sl3, sp4 = context("sl:3"), context("sp:4")
    calls = [(40, 3, GRID_STEPS), (600, 5, GRID_STEPS), (300, 13, 1)]
    outs = [track_batch(sl3, *sample_xi(sl3, FULL_OMEGA, count, seed), hint)
            for count, seed, hint in calls]
    assert np.sum(outs[2][3] > 1) == 39
    saved = [[field.copy() for field in out] for out in outs]
    for ctx in (sp4, sl3):
        track_batch(ctx, *sample_xi(ctx, FULL_OMEGA, 600, 7))
    workspace = iwasawa._workspace().buf
    for out, want in zip(outs, saved):
        for got, field in zip(out, want):
            assert not np.shares_memory(got, workspace)
            assert_same_bits(got, field)


def test_track_batch_threads_get_the_bits_of_serial_calls():
    # each thread carves its blocks from a workspace of its own: four threads, more
    # than the cores of a small host, tracking four groups at once with a short
    # switch interval get the bits of the serial calls
    labels = ("sl:3", "sp:4", "sp:2", "sl:4")
    jobs = {label: (context(label), *sample_xi(context(label), FULL_OMEGA, 300, 11))
            for label in labels}
    serial = {label: track_batch(*job) for label, job in jobs.items()}
    results = {}
    start = threading.Barrier(len(labels))

    def run(label):
        start.wait(timeout=60)
        results[label] = [track_batch(*jobs[label]) for _ in range(3)]

    threads = [threading.Thread(target=run, args=(label,)) for label in labels]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(results) == sorted(labels)
    for label, runs in results.items():
        for out in runs:
            for got, want in zip(out, serial[label]):
                assert_same_bits(got, want)


# minor page faults of ten warm 512-row sl:3 calls, counted by the interpreter that makes them
FAULT_SCRIPT = """
import resource
from crown import build_group, sample_xi
from crown.groups import Family, GroupSpec
from crown.iwasawa import track_batch
from crown.weyl import FULL_OMEGA
ctx = build_group(GroupSpec(Family("sl"), 3))
gs, xs = sample_xi(ctx, FULL_OMEGA, 512, 5)
track_batch(ctx, gs, xs)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    track_batch(ctx, gs, xs)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_warm_tracking_faults_in_no_heap_pages():
    # glibc hands the free top of the heap back to the kernel once it passes 128 KiB
    # (until a large free raises that threshold), and the next allocation faults it in
    # again.  Blocks of 256 KiB take their arrays from the thread's workspace, so in a
    # fresh interpreter ten warm 512-row calls fault in fewer than 64 pages; with every
    # block allocating its own arrays they fault in about 15,800.  This test's own
    # process has made large frees, so it would not see the difference.
    src = pathlib.Path(iwasawa.__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-c", FAULT_SCRIPT], capture_output=True, text=True,
                          timeout=300, env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 64


@pytest.mark.parametrize("label", ["sl:3", "sp:2", "sl:5", "sp:4"])
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
    # one row alone on a doubled grid, as a retry of track_batch calls it
    ts = np.linspace(0.0, 1.0, 2 * GRID_STEPS + 1)
    for i in range(0, count, 9):
        coords = ts[None, :, None] * xs[i:i + 1, None, :]
        for got, want in zip(_path_ratios(ctx, gs[i:i + 1], coords),
                             reference_path_ratios(ctx, gs[i:i + 1], coords)):
            assert_same_bits(got, want)


def test_branch_on_a_coarse_grid_near_corner(sl2):
    # near the polytope corner a two-step grid still matches the closed form
    t = 0.75 * np.pi / 4
    theta = 1.3
    g, x = sl2_rotation(theta), np.array([t, -t])
    # the largest step is 0.60, below the cap: no sl:2 path needs subdivision, because
    # the top ratio cos 2t + i sin 2t cos 2theta keeps a positive real part
    log_full, _, max_steps, _, _ = track_batch(sl2, g[None], x[None], steps_hint=2)
    assert abs(log_full[0, 0].imag - sl2_im_log_a(theta, t)) < 1e-12
    assert max_steps[0] < np.pi / 2


def test_branch_subdivides_on_a_one_step_grid(sl3):
    # one grid step over the whole path moves some sl:3 arguments past pi/2, so those
    # rows (19 of these 256) are tracked again on two segments and land on the branch
    # of the default grid
    gs, xs = sample_xi(sl3, FULL_OMEGA, 256, 1)
    coarse, _, max_steps, segments, bad = track_batch(sl3, gs, xs, steps_hint=1)
    fine, _, _, fine_segments, fine_bad = track_batch(sl3, gs, xs)
    assert np.sum(segments == 2) == 19 and np.all((segments == 1) | (segments == 2))
    assert np.all(fine_segments == GRID_STEPS)
    assert not bad.any() and not fine_bad.any()
    np.testing.assert_allclose(coarse, fine, rtol=0, atol=1e-12)
    assert np.all(max_steps < np.pi / 2)


def test_segment_cap_marks_retried_rows_bad(sl3, monkeypatch):
    # with a cap of one segment the 19 rows that need two cannot be tracked again
    gs, xs = sample_xi(sl3, FULL_OMEGA, 256, 1)
    free = track_batch(sl3, gs, xs, steps_hint=1)
    retried = free[3] == 2
    assert np.sum(retried) == 19
    sweep = dict(omega=FULL_OMEGA, samples=256, seed=1, mode="full-g", steps_hint=1)
    assert verify_complex_convexity(sl3, **sweep).samples_indeterminate == 0
    monkeypatch.setattr(iwasawa, "MAX_SEGMENTS", 1)
    capped = track_batch(sl3, gs, xs, steps_hint=1)
    np.testing.assert_array_equal(capped[4], retried)
    assert np.all(np.isnan(capped[0][retried]))
    for got, want in zip(capped, free):
        assert got[~retried].tobytes() == want[~retried].tobytes()
    rep = verify_complex_convexity(sl3, **sweep)
    assert rep.samples_indeterminate == 19 and rep.tolerance_set["max_segments"] == 1


def test_retry_doubles_again_until_the_grid_is_fine(sl3, monkeypatch):
    # four of these rows are still too coarse on two segments, so the retry of each
    # retries again on four; a cap of two segments stops exactly those rows
    gs, xs = sample_xi(sl3, FULL_OMEGA, 4096, 2)
    coarse, _, _, segments, bad = track_batch(sl3, gs, xs, steps_hint=1)
    deep = segments == 4
    assert np.sum(deep) == 4 and np.all(segments <= 4) and not bad.any()
    np.testing.assert_allclose(coarse[deep], track_batch(sl3, gs[deep], xs[deep])[0],
                               rtol=0, atol=1e-12)
    monkeypatch.setattr(iwasawa, "MAX_SEGMENTS", 2)
    np.testing.assert_array_equal(track_batch(sl3, gs, xs, steps_hint=1)[4], deep)


def test_retry_is_one_call_a_doubling(sl3, monkeypatch):
    # the 390 rows too coarse on one segment are tracked again together, and the four
    # of them still too coarse on two in one more call; each keeps its one-row bits
    gs, xs = sample_xi(sl3, FULL_OMEGA, 4096, 2)
    calls, real = [], iwasawa._track

    def counting(ctx, g, x, steps):
        calls.append((len(x), steps))
        return real(ctx, g, x, steps)
    monkeypatch.setattr(iwasawa, "_track", counting)
    batch = track_batch(sl3, gs, xs, steps_hint=1)
    assert calls == [(390, 2), (4, 4)]
    for i in (batch[3] > 1).nonzero()[0]:
        row = track_batch(sl3, gs[i:i + 1], xs[i:i + 1], steps_hint=1)
        for got, want in zip(batch, row):
            assert got[i].tobytes() == want[0].tobytes()
