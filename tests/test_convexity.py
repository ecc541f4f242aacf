import numpy as np
import pytest
import scipy.linalg

import crown
import crown.convexity as convexity
from crown import ascend_critical, f_a, f_a_lambda, grad_f
from crown.convexity import (
    ARMIJO_LADDER,
    GRAD_TOL,
    directional_derivative_triangular,
    metric_inner,
    normalizer_elements,
    random_k_direction,
    sample_covector,
    sample_regular_direction,
    weyl_k_representatives,
    weyl_values,
)
from crown.errors import (
    BranchBreakdown,
    NonRealValue,
    NotInGroup,
    OmegaViolation,
)
from crown.groups import Family, pair_ia
from crown.iwasawa import GRID_STEPS, MAX_SEGMENTS
from crown.rng import substream
from crown.sampling import haar_k
from crown.weyl import FULL_OMEGA, OmegaSpec, apply_weyl, draw_omega_point, hull_contains

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
    for element, kw in weyl_k_representatives(ctx):
        got = f_a(ctx, a_point, kw)
        want = apply_weyl(a_point, element)
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


# ------------------------------------------------------------------- gradients

def test_grad_vanishes_at_normalizer(ctx):
    rng = substream(73, 0)
    x = sample_regular_direction(ctx, OmegaSpec("scale", scale=0.9), rng)
    lam = sample_covector(ctx, rng)
    for _, kw in weyl_k_representatives(ctx):
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
        other = directional_derivative_triangular(ctx, a_point, k, lam, direction)
        assert abs(exact - other) < 1e-10 * (1 + abs(exact))


# ---------------------------------------------------------------------- ascent

def test_ascent_zero_iterations_at_normalizer(sl3):
    rng = substream(79, 0)
    x = sample_regular_direction(sl3, OmegaSpec("scale", scale=0.9), rng)
    lam = sample_covector(sl3, rng)
    element, kw = weyl_k_representatives(sl3)[2]
    run = ascend_critical(sl3, 1j * x, kw, lam)
    assert run.converged and run.iterations == 0
    own_value = pair_ia(sl3, 1j * apply_weyl(x, element), lam)
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


# label -> (case name, substream, index, covector scale, max_iter, tol); a
# stretched covector makes the first steps overshoot, so the shrink passes 1/16
ORACLE_CASES = {
    "sl:2": [("expand", 99, 1, 1.0, 40, GRAD_TOL), ("shrink", 98, 2, 60.0, 12, GRAD_TOL),
             ("deep-shrink", 98, 2, 60.0, 60, 0.0)],
    "sl:3": [("expand", 99, 3, 1.0, 40, GRAD_TOL), ("shrink", 98, 0, 60.0, 12, GRAD_TOL)],
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
        trials = []
        want = reference_ascend_critical(ctx, a_point, k0, lam, max_iter, tol, trials)
        got = ascend_critical(ctx, a_point, k0, lam, max_iter=max_iter, tol=tol)
        _assert_same_run(got, want)
        if name == "expand":
            assert max(trials) > 8.0
        elif name.endswith("shrink"):
            assert min(trials) < 1.0 / 16.0
        elif name == "no-step":
            assert got.iterations == 0 and trials == []


def _fault_rows(monkeypatch, fault, row):
    """Break one row of every ladder batch: it leaves the group, breaks down or is not real."""
    if fault == "leaves-group":
        original = convexity.k_project

        def patched(ctx, k):
            out = original(ctx, k)
            if out.ndim == 3:
                out = out.copy()
                out[row] *= 2.0
            return out
        monkeypatch.setattr(convexity, "k_project", patched)
        return
    original = convexity.track_batch

    def patched(ctx, g, xs, *args):
        log_full, lower, max_steps, bad = original(ctx, g, xs, *args)
        if len(g) == len(ARMIJO_LADDER):
            log_full[row] = complex(np.nan, np.nan)
            bad[row] = fault == "breakdown"
        return log_full, lower, max_steps, bad
    monkeypatch.setattr(convexity, "track_batch", patched)


@pytest.mark.parametrize("fault", ["breakdown", "leaves-group", "non-real"])
def test_unconsumed_speculative_failure_does_not_raise(sl3, monkeypatch, fault):
    a_point, k0, lam = _ascent_case(sl3, 99, 3)
    trials = []
    want = reference_ascend_critical(sl3, a_point, k0, lam, 40, GRAD_TOL, trials)
    # the run never shrinks, so the last ladder row (eta = 1/16) is never consumed
    assert min(trials) > ARMIJO_LADDER[-1]
    _fault_rows(monkeypatch, fault, len(ARMIJO_LADDER) - 1)
    _assert_same_run(ascend_critical(sl3, a_point, k0, lam, max_iter=40), want)


@pytest.mark.parametrize("fault, error", [("breakdown", BranchBreakdown),
                                          ("leaves-group", NotInGroup),
                                          ("non-real", NonRealValue)])
def test_consumed_failure_raises_the_scalar_class(sl3, monkeypatch, fault, error):
    a_point, k0, lam = _ascent_case(sl3, 99, 3)
    _fault_rows(monkeypatch, fault, ARMIJO_LADDER.index(1.0))
    with pytest.raises(error):
        ascend_critical(sl3, a_point, k0, lam, max_iter=40)


def test_ascent_rejects_x_outside_polytope_before_evaluating(sl2, monkeypatch):
    evaluations = []
    monkeypatch.setattr(convexity, "track_batch", lambda *a: evaluations.append(a))
    monkeypatch.setattr(scipy.linalg, "expm", lambda *a: evaluations.append(a))
    lam = np.array([0.6, -0.6])
    # the root value 2 lies beyond the cutoff pi/2 of the admissible polytope
    with pytest.raises(OmegaViolation):
        ascend_critical(sl2, 1j * np.array([1.0, -1.0]), np.eye(2), lam)
    assert evaluations == []


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


def test_critical_point_scan_report(sl2):
    rep = crown.critical_point_scan(sl2, 10, seed=5)
    assert rep.violations == 0
    assert rep.extras["convergence_rate"] >= 0.9
