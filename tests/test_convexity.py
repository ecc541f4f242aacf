import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import crown
import crown.convexity as convexity
import crown.iwasawa as iwasawa
from crown import ascend_critical, f_a, f_a_lambda, grad_f
from crown.convexity import (
    GRAD_TOL,
    KOSTANT_BOX,
    STEP_FLOOR,
    directional_derivative_triangular,
    metric_inner,
    normalizer_elements,
    random_k_direction,
    sample_covector,
    sample_regular_direction,
    weyl_values,
)
from crown.errors import NumericalBreakdown
from crown.groups import Family, pair_ia
from crown.iwasawa import GRID_STEPS, MAX_SEGMENTS, project_real_batch, triangular_part
from crown.rng import substream
from crown.sampling import haar_k
from crown.weyl import FULL_OMEGA, OmegaSpec, draw_omega_point, helmert, hull_contains

import oracles
from conftest import context
from oracles import reference_ascend_critical, sl2_im_log_a, sl2_rotation


def _random_a_point(ctx, rng, with_real=True):
    x = draw_omega_point(ctx, OmegaSpec("scale", scale=0.9), rng)
    re = 0.3 * rng.standard_normal(ctx.n) if with_real else np.zeros(ctx.n)
    if ctx.family is Family.SPECIAL_LINEAR:
        re -= re.mean()
    return re + 1j * x


# ------------------------------------------------------------------ f_a basics

def test_f_a_at_identity(ctx):
    a_point = _random_a_point(ctx, substream(71, 0))
    np.testing.assert_allclose(
        f_a(ctx, a_point, np.eye(ctx.ambient_size)), a_point, atol=1e-12)


def test_f_a_at_weyl_representatives(ctx):
    # k_w exp(a) = exp(w.a) k_w, so the projection permutes coordinates
    a_point = _random_a_point(ctx, substream(71, 1))
    for w, kw in zip(ctx.weyl, ctx.weyl_k):
        got = f_a(ctx, a_point, kw)
        want = w @ a_point
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_f_a_sl2_oracle(sl2):
    theta, t = np.pi / 3, 0.3
    got = f_a(sl2, 1j * np.array([t, -t]), sl2_rotation(theta))
    assert abs(got[0].imag - sl2_im_log_a(theta, t)) < 1e-13


def test_f_a_lambda_basics(ctx):
    rng = substream(71, 2)
    lam = sample_covector(ctx, rng)
    k = haar_k(ctx, [rng])[0]
    assert f_a_lambda(ctx, np.zeros(ctx.n, dtype=complex), k, lam) == pytest.approx(0.0, abs=1e-12)
    x = draw_omega_point(ctx, FULL_OMEGA, rng)
    want = pair_ia(ctx, 1j * x, lam)
    assert f_a_lambda(ctx, 1j * x, np.eye(ctx.ambient_size), lam) == pytest.approx(want, rel=1e-12)


def test_f_a_lambda_linearity(ctx):
    rng = substream(71, 3)
    a_point = _random_a_point(ctx, rng)
    k = haar_k(ctx, [rng])[0]
    l1 = sample_covector(ctx, rng)
    l2 = sample_covector(ctx, rng)
    both = l1 + l2
    v = f_a_lambda(ctx, a_point, k, both)
    v1 = f_a_lambda(ctx, a_point, k, l1)
    v2 = f_a_lambda(ctx, a_point, k, l2)
    assert abs(v - (v1 + v2)) < 1e-10 * (1 + abs(v))


@pytest.mark.parametrize("label", ["sl:2", "sl:3", "sl:4", "sp:1", "sp:2", "sp:3"])
def test_f_a_rows_equal_one_row_calls(label):
    # gradient_check evaluates f_a_lambda, the gradient, its pairing and the
    # triangular route on all its configurations at once
    ctx = context(label)
    m, count = ctx.ambient_size, 40
    rngs = [substream(79, i) for i in range(count)]
    a_points = np.array([_random_a_point(ctx, rng) for rng in rngs])
    ks = haar_k(ctx, rngs)
    lams = np.array([sample_covector(ctx, rng) for rng in rngs])
    directions = np.array([random_k_direction(ctx, rng) for rng in rngs])
    logs, values = f_a(ctx, a_points, ks), f_a_lambda(ctx, a_points, ks, lams)
    assert logs.shape == (count, ctx.n) and values.shape == (count,)
    factors = convexity._project(ctx, a_points, ks)
    grads = grad_f(ctx, a_points, ks, lams, factors)
    assert grads.shape == (count, m, m)
    assert grad_f(ctx, a_points, ks, lams).tobytes() == grads.tobytes()
    inners, tris = metric_inner(ctx, directions, grads), triangular_part(ctx, factors)
    routes = directional_derivative_triangular(ctx, factors, lams, directions)
    assert inners.shape == routes.shape == (count,) and tris.shape == (count, m, m)
    for i in range(count):
        assert logs[i].tobytes() == f_a(ctx, a_points[i], ks[i]).tobytes()
        value = f_a_lambda(ctx, a_points[i], ks[i], lams[i])
        assert type(value) is float
        assert values[i].tobytes() == np.float64(value).tobytes()
        row = convexity._project(ctx, a_points[i], ks[i])
        grad = grad_f(ctx, a_points[i], ks[i], lams[i], row)
        inner = metric_inner(ctx, directions[i], grad)
        route = directional_derivative_triangular(ctx, row, lams[i], directions[i])
        assert type(inner) is float and type(route) is float
        assert grads[i].tobytes() == grad.tobytes()
        assert tris[i].tobytes() == triangular_part(ctx, row).tobytes()
        assert inners[i].tobytes() == np.float64(inner).tobytes()
        assert routes[i].tobytes() == np.float64(route).tobytes()


def test_f_a_lambda_rejects_a_stack_with_one_non_real_value(sl3, monkeypatch):
    rngs = [substream(79, i) for i in range(6)]
    a_points = np.array([_random_a_point(sl3, rng) for rng in rngs])
    ks = haar_k(sl3, rngs)
    lams = np.array([sample_covector(sl3, rng) for rng in rngs])
    original = convexity.project_complex

    def project_complex(ctx, g, x):
        factors = original(ctx, g, x)
        factors.log_a[4] = complex(np.nan, np.nan)
        return factors
    monkeypatch.setattr(convexity, "project_complex", project_complex)
    with pytest.raises(NumericalBreakdown, match="not a finite real number"):
        f_a_lambda(sl3, a_points, ks, lams)


# ------------------------------------------------------------------- gradients

def test_grad_vanishes_at_normalizer(ctx):
    rng = substream(73, 0)
    x = sample_regular_direction(ctx, OmegaSpec("scale", scale=0.9), rng)
    lam = sample_covector(ctx, rng)
    for kw in ctx.weyl_k:
        grad = grad_f(ctx, 1j * x, kw, lam)
        assert np.sqrt(metric_inner(ctx, grad, grad)) < 1e-10


def test_grad_matches_finite_differences(ctx):
    rng = substream(73, 1)
    h = 1e-5
    rel_errs = []
    for _ in range(20):
        a_point = _random_a_point(ctx, rng)
        k = haar_k(ctx, [rng])[0]
        lam = sample_covector(ctx, rng)
        direction = random_k_direction(ctx, rng)
        grad = grad_f(ctx, a_point, k, lam)
        exact = metric_inner(ctx, direction, grad)
        fp = f_a_lambda(ctx, a_point, scipy.linalg.expm(h * direction) @ k, lam)
        fm = f_a_lambda(ctx, a_point, scipy.linalg.expm(-h * direction) @ k, lam)
        fd = (fp - fm) / (2 * h)
        rel_errs.append(abs(exact - fd) / (1 + abs(exact)))
    assert np.median(rel_errs) < 1e-7
    assert max(rel_errs) < 1e-5


def test_grad_triangular_route_agrees(ctx):
    rng = substream(73, 2)
    for _ in range(10):
        a_point = _random_a_point(ctx, rng)
        k = haar_k(ctx, [rng])[0]
        lam = sample_covector(ctx, rng)
        direction = random_k_direction(ctx, rng)
        exact = metric_inner(ctx, direction, grad_f(ctx, a_point, k, lam))
        other = directional_derivative_triangular(ctx, convexity._project(ctx, a_point, k),
                                                  lam, direction)
        assert abs(exact - other) < 1e-10 * (1 + abs(exact))


# ---------------------------------------------------------------------- ascent

def test_ascent_zero_iterations_at_normalizer(sl3):
    rng = substream(79, 0)
    x = sample_regular_direction(sl3, OmegaSpec("scale", scale=0.9), rng)
    lam = sample_covector(sl3, rng)
    w, kw = sl3.weyl[2], sl3.weyl_k[2]
    run = ascend_critical(sl3, 1j * x, kw, lam)
    assert run.converged and run.iterations == 0
    own_value = pair_ia(sl3, 1j * (w @ x), lam)
    assert abs(run.f_values[0] - own_value) < 1e-10


def test_ascent_sl2_reaches_best_vertex(sl2):
    rng = substream(79, 1)
    for i in range(5):
        x = sample_regular_direction(sl2, OmegaSpec("scale", scale=0.9), rng)
        lam = sample_covector(sl2, rng)
        k0 = haar_k(sl2, [rng])[0]
        run = ascend_critical(sl2, 1j * x, k0, lam)
        vals = weyl_values(sl2, x, lam)
        assert len(vals) == 2
        assert run.converged
        assert abs(run.f_values[-1] - max(vals)) < 1e-6


def test_ascent_monotone_and_matches_weyl_max(sl3):
    rng = substream(79, 2)
    x = sample_regular_direction(sl3, OmegaSpec("scale", scale=0.9), rng)
    lam = sample_covector(sl3, rng)
    run = ascend_critical(sl3, 1j * x, haar_k(sl3, [rng])[0], lam)
    assert np.all(np.diff(run.f_values) >= 0)
    assert run.converged and run.gap < 1e-6


def test_ascent_requires_regular_data(sl3):
    lam = np.zeros(3)
    with pytest.raises(ValueError):
        ascend_critical(sl3, 1j * np.array([0.2, 0.0, -0.2]), np.eye(3), lam)


def _ascent_case(ctx, stream, index, scale=1.0):
    """(a_point, k0, lam) drawn as critical_point_scan draws them; scale stretches lam."""
    rng = substream(stream, index)
    x = sample_regular_direction(ctx, OmegaSpec("scale", scale=0.9), rng)
    lam = scale * sample_covector(ctx, rng)
    return 1j * x, haar_k(ctx, [rng])[0], lam


def _assert_same_run(got, want):
    np.testing.assert_array_equal(got.end_k, want.end_k)
    np.testing.assert_array_equal(got.f_values, want.f_values)
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert got.grad_norm_final == want.grad_norm_final


# label -> (case name, substream, index, covector scale, max_iter, tol); in
# "expand" a Barzilai-Borwein step (not a restart at STEP_CAP) goes above 8
# (8.35 on sl:2, 9.71 on sl:3, 76.0 on sp:2), a stretched covector makes the
# first steps overshoot, so the shrink passes 1/16, and with tol 0 the sl:3
# "stall" run halves below STEP_FLOOR before max_iter
ORACLE_CASES = {
    "sl:2": [("expand", 99, 1, 1.0, 40, GRAD_TOL), ("shrink", 98, 2, 60.0, 12, GRAD_TOL),
             ("deep-shrink", 98, 2, 60.0, 60, 0.0)],
    "sl:3": [("expand", 99, 3, 1.0, 40, GRAD_TOL), ("shrink", 98, 0, 60.0, 12, GRAD_TOL),
             ("stall", 99, 0, 1.0, 200, 0.0)],
    "sp:2": [("expand", 99, 7, 1.0, 40, GRAD_TOL), ("shrink", 98, 0, 60.0, 12, GRAD_TOL)],
}


@pytest.mark.parametrize("label", list(ORACLE_CASES))
def test_ascent_matches_scalar_oracle_bit_for_bit(label):
    ctx = context(label)
    cases = ORACLE_CASES[label] + [("no-step", 99, 0, 1.0, 0, GRAD_TOL),
                                   ("one-step", 99, 0, 1.0, 1, GRAD_TOL),
                                   ("real-part", 99, 2, 1.0, 20, GRAD_TOL)]
    for name, stream, index, scale, max_iter, tol in cases:
        a_point, k0, lam = _ascent_case(ctx, stream, index, scale)
        if name == "real-part":
            a_point = a_point + _random_a_point(ctx, substream(stream, index)).real
        trials, starts = [], []
        want = reference_ascend_critical(ctx, a_point, k0, lam, max_iter, tol, trials, starts)
        got = ascend_critical(ctx, a_point, k0, lam, max_iter=max_iter, tol=tol)
        _assert_same_run(got, want)
        if name == "expand":
            assert max(trials) > 8.0
            assert max(eta for rule, eta in starts if rule == "bb") > 8.0
        elif name.endswith("shrink"):
            assert min(trials) < 1.0 / 16.0
        elif name == "stall":
            assert not got.converged and got.iterations < max_iter
            assert min(trials) < 2.0 * STEP_FLOOR
        elif name == "no-step":
            assert got.iterations == 0 and trials == []


@pytest.mark.parametrize("label", list(ORACLE_CASES))
def test_ascent_clamps_barzilai_borwein_steps_at_step_cap(label, monkeypatch):
    # a cap below the "expand" case's largest step binds on a positive <s,y>
    # (1, 36 and 39 steps on sl:2, sl:3 and sp:2), so a step that skipped the
    # clamp would leave the oracle's run
    cap = 2.0
    monkeypatch.setattr(convexity, "STEP_CAP", cap)
    monkeypatch.setattr(oracles, "STEP_CAP", cap)
    ctx = context(label)
    _, stream, index, scale, max_iter, tol = ORACLE_CASES[label][0]
    a_point, k0, lam = _ascent_case(ctx, stream, index, scale)
    trials, starts = [], []
    want = reference_ascend_critical(ctx, a_point, k0, lam, max_iter, tol, trials, starts)
    got = ascend_critical(ctx, a_point, k0, lam, max_iter=max_iter, tol=tol)
    _assert_same_run(got, want)
    assert max(trials) == cap
    assert ("clamped", cap) in starts


def test_ascent_survives_an_underflowed_y_y(sl3, monkeypatch):
    # a gradient near 1e-162 underflows <y,y> to 0 while <s,y> stays positive;
    # the step then restarts at STEP_CAP, where a division would raise
    def underflow_y_y(original):
        crossed = []

        def metric_inner(ctx, x, y):
            after_s_y = bool(crossed) and crossed[-1]
            crossed.append(x is not y)
            return 0.0 if after_s_y else original(ctx, x, y)
        return metric_inner
    monkeypatch.setattr(convexity, "metric_inner", underflow_y_y(convexity.metric_inner))
    monkeypatch.setattr(oracles, "metric_inner", underflow_y_y(oracles.metric_inner))
    a_point, k0, lam = _ascent_case(sl3, 5, 0)
    starts = []
    want = reference_ascend_critical(sl3, a_point, k0, lam, 5, GRAD_TOL, starts=starts)
    got = ascend_critical(sl3, a_point, k0, lam, max_iter=5)
    _assert_same_run(got, want)
    assert got.iterations == 5 and not got.converged
    assert starts[1:] == [("clamped", convexity.STEP_CAP)] * 4


def _fault_trials(monkeypatch, fault):
    """Break every trial point: it leaves the group, its branch breaks down or its value is not real.

    A trial is a project_complex call after the first, which projects the
    start point and is left intact.
    """
    original_project = convexity.project_complex
    trials = []
    started = False

    def project_complex(ctx, g, x):
        nonlocal started
        if started:
            trials.append(g)
            if fault == "leaves-group":
                g = 2.0 * g
            elif fault == "breakdown":
                # no minor clears an infinite floor, so the tracker itself raises
                monkeypatch.setattr(iwasawa, "PIVOT_FLOOR", np.inf)
        factors = original_project(ctx, g, x)
        if started and fault == "non-real":
            factors.log_a = np.full_like(factors.log_a, complex(np.nan, np.nan))
        started = True
        return factors
    monkeypatch.setattr(convexity, "project_complex", project_complex)
    return trials


@pytest.mark.parametrize("fault, error, match", [
    ("breakdown", NumericalBreakdown, "minor degenerated"),
    ("leaves-group", ValueError, "group membership"),
    ("non-real", NumericalBreakdown, "not a finite real number")],
    ids=["breakdown", "leaves-group", "non-real"])
def test_consumed_failure_raises_the_scalar_class(sl3, monkeypatch, fault, error, match):
    a_point, k0, lam = _ascent_case(sl3, 99, 3)
    trials = _fault_trials(monkeypatch, fault)
    with pytest.raises(error, match=match):
        ascend_critical(sl3, a_point, k0, lam, max_iter=40)
    assert len(trials) == 1


def test_ascent_rejects_x_outside_polytope_before_evaluating(sl2, monkeypatch):
    evaluations = []
    monkeypatch.setattr(convexity, "project_complex", lambda *a: evaluations.append(a))
    lam = np.array([0.6, -0.6])
    # the root value 2 lies beyond the cutoff pi/2 of the admissible polytope
    with pytest.raises(ValueError, match="admissible polytope"):
        ascend_critical(sl2, 1j * np.array([1.0, -1.0]), np.eye(2), lam)
    assert evaluations == []


@pytest.mark.parametrize("label", ["sl:2", "sl:3", "sl:4", "sp:1", "sp:2", "sp:3"])
def test_cayley_trial_stays_in_group(label):
    # (I - eta X/2)^{-1} (I + eta X/2) k is orthogonal for skew X, and the
    # Cayley transform of an element of k lies in K for both families
    ctx = context(label)
    eye = np.eye(ctx.ambient_size)
    rng = substream(83, 0)
    for _ in range(5):
        k = haar_k(ctx, [rng])[0]
        direction = random_k_direction(ctx, rng)
        for eta in (1e-3, 1.0, 1e3):
            half = 0.5 * eta * direction
            cayley = np.linalg.solve(eye - half, (eye + half) @ k)
            np.testing.assert_allclose(cayley.T @ cayley, eye, rtol=0.0, atol=1e-12)
            assert ctx.in_group(cayley)
            assert ctx.in_group(convexity.k_project(ctx, cayley))


@pytest.mark.parametrize("label, runs", [("sl:3", (0, 1)), ("sp:3", (0, 6))])
def test_long_ascents_stay_in_the_group_without_a_polar_step(label, runs):
    # tol 0 never converges, so each run takes all its Cayley steps; these runs
    # of seed 13 take 300 steps, where the others stall below STEP_FLOOR first
    ctx = context(label)
    eye = np.eye(ctx.ambient_size)
    for i in runs:
        a_point, k0, lam = _ascent_case(ctx, 13, i)
        run = ascend_critical(ctx, a_point, k0, lam, max_iter=300, tol=0.0)
        assert run.iterations == 300
        assert ctx.group_residual(run.end_k) <= 1e-12
        assert np.abs(run.end_k.T @ run.end_k - eye).max() <= 1e-12


@pytest.mark.parametrize("label", ["sl:2", "sl:3", "sl:4", "sp:1", "sp:2", "sp:3"])
def test_k_combination_and_metric_keep_the_numpy_bits(label):
    # the gradient's basis combination is the one dot np.tensordot makes, and the
    # metric reads np.trace's sum through the ndarray method
    ctx = context(label)
    rng = substream(89, 0)
    for _ in range(20):
        coeff = rng.standard_normal(len(ctx.basis_k))
        got = convexity._k_combination(ctx, coeff)
        want = np.tensordot(coeff, ctx.basis_k, axes=1)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        y = np.tensordot(rng.standard_normal(len(ctx.basis_k)), ctx.basis_k, axes=1)
        want_inner = float(-2.0 * ctx.killing_scale * np.trace(got @ y).real)
        assert np.float64(metric_inner(ctx, got, y)).tobytes() == np.float64(want_inner).tobytes()


@pytest.mark.parametrize("label", ["sl:2", "sl:4", "sp:1", "sp:2", "sp:3"])
def test_critical_point_scan_converges_up_the_rank_ladder(label):
    rep = crown.critical_point_scan(context(label), 20, seed=5, max_iter=1500)
    assert rep.extras["convergence_rate"] == 1.0
    assert rep.violations == 0
    assert rep.extras["max_gap_converged"] < 1e-8


def test_critical_point_scan_projection_budget(sl3, monkeypatch):
    # the benchmark's ascent scan: the short Barzilai-Borwein step with a
    # reachable restart cap projects 591 times, <s,s>/<s,y> under a 2^20 cap 1,358
    original, calls = convexity.project_complex, []

    def project_complex(ctx, g, x):
        calls.append(None)
        return original(ctx, g, x)
    monkeypatch.setattr(convexity, "project_complex", project_complex)
    rep = crown.critical_point_scan(sl3, 20, seed=5, max_iter=1500)
    assert rep.extras["convergence_rate"] == 1.0
    assert len(calls) <= 650


# ------------------------------------------------------------------- verifiers

def test_verify_complex_convexity_clean(ctx):
    rep = crown.verify_complex_convexity(ctx, FULL_OMEGA, 300, seed=7)
    assert rep.violations == 0
    assert rep.samples_completed == 300
    assert rep.min_margin > -1e-9
    assert rep.extras["max_reconstruction_residual"] < 1e-10
    assert rep.tolerance_set["grid_steps"] == GRID_STEPS
    assert rep.tolerance_set["max_segments"] == MAX_SEGMENTS


def test_report_records_the_tracking_grid(sl3):
    rep = crown.verify_complex_convexity(sl3, FULL_OMEGA, 20, seed=7, steps_hint=1)
    assert rep.tolerance_set["grid_steps"] == 1


def test_verify_complex_convexity_full_g(ctx):
    rep = crown.verify_complex_convexity(ctx, FULL_OMEGA, 200, seed=7, mode="full-g")
    assert rep.violations == 0


def test_convexity_sl2_margin_oracle(sl2):
    # worked point: k = rotation(pi/3), X = (0.3, -0.3)
    theta, t = np.pi / 3, 0.3
    y = f_a(sl2, 1j * np.array([t, -t]), sl2_rotation(theta)).imag
    inside, margin = hull_contains(sl2, np.array([t, -t]), y)
    assert inside
    oracle_margin = t - abs(sl2_im_log_a(theta, t))
    assert abs(margin - oracle_margin) < 1e-12
    assert abs(oracle_margin - 0.13520429504291718) < 1e-15  # frozen oracle value


def test_verify_kostant_real_clean(ctx):
    rep = crown.verify_kostant_real(ctx, 300, seed=11)
    assert rep.violations == 0
    assert rep.min_margin > -1e-9
    assert rep.extras["max_vertex_error"] < 1e-10


@pytest.mark.parametrize("label", ["sl:3", "sp:2"])
def test_kostant_counts_each_vertex_miss(label, monkeypatch):
    # with no vertex tolerance every sample whose vertices carry roundoff misses one,
    # and each such sample is its own violation; the hull half stays clean
    ctx = context(label)
    monkeypatch.setattr(convexity, "VERTEX_TOL", 0.0)
    rep = crown.verify_kostant_real(ctx, 600, 13)
    n, rngs = ctx.n, [substream(13, i) for i in range(600)]
    if ctx.family is Family.SPECIAL_LINEAR:
        xs = np.array([helmert(n) @ rng.uniform(-KOSTANT_BOX, KOSTANT_BOX, n - 1) for rng in rngs])
    else:
        xs = np.array([rng.uniform(-KOSTANT_BOX, KOSTANT_BOX, n) for rng in rngs])
    got = project_real_batch(ctx.weyl_k[:, None] @ ctx.a_exp(xs)[None])[0][..., :n]
    errs = np.abs(got - xs @ np.swapaxes(ctx.weyl, 1, 2)).max(axis=(0, 2))
    assert 1 < np.count_nonzero(errs) == rep.violations < 600
    assert rep.extras["max_vertex_error"] == errs.max()
    assert rep.min_margin > -1e-9


def test_normalizer_enumeration_counts(sl2, sl3, sp2):
    assert len(normalizer_elements(sl2)) == 4
    assert len(normalizer_elements(sl3)) == 24
    assert len(normalizer_elements(sp2)) == 32
    for mat in normalizer_elements(sp2)[:5]:
        np.testing.assert_allclose(mat @ mat.T, np.eye(4), atol=1e-12)


def test_lemma24_sl2_closed_form(sl2):
    # oracle: for theta = pi/4, M = z z^T has M11 = cos 2t and M21 = i sin 2t,
    # so the unipotent entry is n21 = M21 / M11 = i tan 2t, purely imaginary
    t = 0.3
    from crown import project_complex
    f = project_complex(sl2, sl2_rotation(np.pi / 4), np.array([t, -t]))
    assert abs(f.n_part[1, 0] - 1j * np.tan(2 * t)) < 1e-13


def test_lemma24_probe_report(sl2):
    rep = crown.lemma24_probe(sl2, 100, seed=2)
    assert rep.violations == 0
    assert rep.extras["min_im_n"] > 1e-10


@pytest.mark.parametrize("label", ["sl:2", "sp:1"])
def test_lemma24_probe_keeps_its_stream_contract(label, monkeypatch):
    # row i's k is the first draw of substream(2, i) farther than the gap from
    # every normalizer element, however the probe batches its draws
    ctx = context(label)
    chunks = []
    track_batch = convexity.track_batch

    def record(ctx, gs, *args):
        chunks.append(gs.copy())
        return track_batch(ctx, gs, *args)

    monkeypatch.setattr(convexity, "track_batch", record)
    crown.lemma24_probe(ctx, 200, seed=2)
    normalizers = normalizer_elements(ctx)
    want, redrawn = [], 0
    for i in range(200):
        rng = substream(2, i)
        k = haar_k(ctx, [rng])[0]
        while np.min(np.linalg.norm(normalizers - k, axis=(1, 2))) <= convexity.NORMALIZER_GAP:
            redrawn += 1
            k = haar_k(ctx, [rng])[0]
        want.append(k)
    assert redrawn > 0
    assert np.concatenate(chunks).tobytes() == np.array(want).tobytes()


def test_lemma24_probe_working_set_is_bounded():
    # sl:5 has 1,920 normalizer elements: the distances of 128 rows at once would
    # hold a 47 MiB temporary; one row at a time holds 0.4 MiB
    ctx = context("sl:5")
    tracemalloc.start()
    try:
        rep = crown.lemma24_probe(ctx, 128, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.samples_completed == 128
    assert peak < 8 * 2 ** 20


def test_gradient_check_report(sl2):
    rep = crown.gradient_check(sl2, 15, seed=3)
    assert rep.violations == 0
    assert rep.extras["median_rel_err"] < 1e-7
    assert rep.extras["max_route_gap"] < 1e-10


def test_gradient_check_applies_median_tol(monkeypatch, sp2):
    from crown.cli import main

    monkeypatch.setattr(convexity, "MEDIAN_REL_TOL", 0.0)
    rep = crown.gradient_check(sp2, 4, seed=3)
    assert rep.extras["max_rel_err"] <= convexity.MAX_REL_TOL
    assert rep.violations == 1
    assert main(["gradient-check", "--group", "sp:2", "--configs", "4", "--seed", "3"]) == 2


def test_gradient_check_counts_a_route_gap(monkeypatch, sp2):
    # a triangular route off by 1e-9 on one config violates although its
    # relative error passes; the worst relative error keeps the witness
    clean = crown.gradient_check(sp2, 6, seed=3)
    original = convexity.directional_derivative_triangular

    def triangular(*args):
        values = original(*args)
        values[2] += 1e-9
        return values
    monkeypatch.setattr(convexity, "directional_derivative_triangular", triangular)
    rep = crown.gradient_check(sp2, 6, seed=3)
    assert clean.violations == 0
    assert rep.violations == 1
    assert rep.extras["max_route_gap"] > convexity.ROUTE_TOL
    assert rep.extras["max_rel_err"] <= convexity.MAX_REL_TOL
    assert rep.worst_witness == clean.worst_witness


@pytest.mark.parametrize("label", ["sl:3", "sp:2"])
@pytest.mark.parametrize("scale", [1.0 + 1e-6, -1.0], ids=["stretched", "reversed"])
def test_gradient_check_fails_a_wrong_gradient(label, scale, monkeypatch):
    # a gradient off by a relative 1e-6 leaves the triangular route by more than
    # ROUTE_TOL on every configuration, and its median error passes MEDIAN_REL_TOL
    original = convexity._grad_from_n
    monkeypatch.setattr(convexity, "_grad_from_n", lambda *args: scale * original(*args))
    rep = crown.gradient_check(context(label), 10, seed=3)
    assert rep.violations == 10
    assert rep.extras["max_route_gap"] > convexity.ROUTE_TOL
    assert rep.extras["median_rel_err"] > convexity.MEDIAN_REL_TOL


def test_critical_point_scan_report(sl2):
    rep = crown.critical_point_scan(sl2, 10, seed=5)
    assert rep.violations == 0
    assert rep.extras["convergence_rate"] >= 0.9


def _patch_runs(monkeypatch, edit):
    # rewrite run i of the scan as edit(i, run) returns it
    original, calls = convexity.ascend_critical, []

    def ascend(*args, **kwargs):
        calls.append(None)
        return edit(len(calls) - 1, original(*args, **kwargs))
    monkeypatch.setattr(convexity, "ascend_critical", ascend)


def test_critical_point_scan_folds_stalled_and_missed_runs(monkeypatch, sl2):
    # a stalled run is indeterminate whatever its gap; a converged miss violates and witnesses
    edits = {1: {"converged": False, "gap": 1.0}, 3: {"gap": 1e-3}}
    _patch_runs(monkeypatch, lambda i, run: dataclasses.replace(run, **edits.get(i, {})))
    rep = crown.critical_point_scan(sl2, 6, seed=5)
    assert rep.samples_indeterminate == 1
    assert rep.violations == 1
    assert rep.worst_witness["sample_index"] == 3
    assert rep.extras["max_gap_converged"] == 1e-3
    assert rep.min_margin == 1e-6 - 1e-3
    assert rep.exit_code == 2


def test_critical_point_scan_with_no_converged_run(monkeypatch, sl2):
    _patch_runs(monkeypatch, lambda i, run: dataclasses.replace(run, converged=False))
    rep = crown.critical_point_scan(sl2, 6, seed=5)
    assert rep.samples_indeterminate == 6
    assert rep.min_margin is None
    assert rep.worst_witness is None
    assert rep.extras["max_gap_converged"] == 0.0
    assert rep.exit_code == 3
