import numpy as np
import pytest

from crown import cross_check_crown, minor_ratios, sample_siegel, sample_xi, verify_siegel
from crown.cli import EXIT_BREAKDOWN, main
from crown.errors import NumericalBreakdown
from crown.rng import substream
from crown.sampling import sample_group_element
from crown.siegel import fractional_action
from crown.weyl import FULL_OMEGA

from conftest import context
from oracles import reference_fractional_action, reference_sample_siegel


def test_chi_base_point_and_diagonal():
    np.testing.assert_allclose(minor_ratios(1j * np.eye(4)), 1j * np.ones(4))
    w = np.diag([0.3 + 0.2j, -1.0 + 1.5j, 2.0 + 0.7j])
    np.testing.assert_allclose(minor_ratios(w), np.diagonal(w))


def test_chi_worked_point():
    ratios = minor_ratios(np.array([[1j, 0.5], [0.5, 1j]]))
    np.testing.assert_allclose(ratios, [1j, 1.25j], atol=1e-12)


def test_fractional_action_identity_and_base(sp2):
    g = np.eye(4)
    np.testing.assert_allclose(fractional_action(g, 1j * np.eye(2)), 1j * np.eye(2))


def test_fractional_action_is_action():
    ctx = context("sp:2")
    rng = substream(83, 0)
    w = 1j * np.eye(2)
    for _ in range(30):
        g1 = ctx.to_standard_frame(sample_group_element(ctx, [rng], "full-g")[0])
        g2 = ctx.to_standard_frame(sample_group_element(ctx, [rng], "full-g")[0])
        lhs = fractional_action(g1 @ g2, w)
        rhs = fractional_action(g1, fractional_action(g2, w))
        np.testing.assert_allclose(lhs, rhs, atol=1e-10 * (1 + np.abs(lhs).max()))


def test_orbit_strategy_stays_in_upper_half_space():
    ctx = context("sp:3")
    rng = substream(83, 1)
    w = 1j * np.eye(3)
    for _ in range(100):
        g = ctx.to_standard_frame(sample_group_element(ctx, [rng], "full-g")[0])
        im = fractional_action(g, w).imag
        assert np.min(np.linalg.eigvalsh(im)) > 0


def test_sample_siegel_postconditions():
    z = sample_siegel(2, 32, seed=5)
    assert z.shape == (32, 2, 2) and z.dtype == complex
    np.testing.assert_array_equal(z, np.swapaxes(z, 1, 2))
    assert np.min(np.linalg.eigvalsh(z.imag)) > 0
    np.testing.assert_array_equal(sample_siegel(2, 32, seed=5), z)


@pytest.mark.parametrize("count", [1, 3, 513, 1100])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sample_siegel_matches_per_index_reference(n, count):
    # chunked rows: one Gaussian buffer and one stacked fractional action a chunk
    assert sample_siegel(n, count, 7).tobytes() == reference_sample_siegel(n, count, 7).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cross_check_fractional_action_is_stacked(n):
    # the two stacked calls of cross_check_crown keep the bits of one call a row
    ctx = context(f"sp:{n}")
    gs, xs = sample_xi(ctx, FULL_OMEGA, 600, 31)
    g_std = ctx.to_standard_frame(gs)
    ax_std = ctx.to_standard_frame(ctx.a_exp(1j * xs))
    eye = 1j * np.eye(n)
    stacked = fractional_action(g_std, fractional_action(ax_std, eye))
    rows = [fractional_action(g, fractional_action(a, eye)) for g, a in zip(g_std, ax_std)]
    frozen = [reference_fractional_action(g, reference_fractional_action(a, eye))
              for g, a in zip(g_std, ax_std)]
    assert stacked.tobytes() == np.array(rows).tobytes() == np.array(frozen).tobytes()


def test_non_positive_draw_is_a_breakdown(monkeypatch):
    # L L^T - 100 I is not positive definite: a numerical breakdown, not a usage error
    import crown.siegel as siegel_mod
    monkeypatch.setattr(siegel_mod, "DIRECT_EPS", -100.0)
    with pytest.raises(NumericalBreakdown, match="non-positive-definite imaginary part"):
        sample_siegel(2, 4, seed=1)
    assert main(["siegel", "--n", "2", "--samples", "4"]) == EXIT_BREAKDOWN


def test_verify_siegel_clean():
    for n in (2, 3):
        rep = verify_siegel(n, 400, seed=9)
        assert rep.violations == 0
        assert rep.extras["min_im_chi"] > 0
        assert rep.extras["min_normalized_minor"] > 1e-12
        assert rep.extras["pivot_breakdowns"] == 0


def test_chi_of_a_one_by_one_point():
    # verify_siegel(1, ...) eliminates 1 x 1 matrices
    z = np.array([[0.3 + 1.7j]])
    ratios = minor_ratios(z)
    assert ratios.shape == (1,) and ratios.tobytes() == z[0].tobytes()
    rep = verify_siegel(1, 64, seed=3)
    assert rep.violations == 0 and rep.extras["pivot_breakdowns"] == 0


def test_verify_siegel_base_point_minimum():
    rep = verify_siegel(2, 1, seed=1)
    assert rep.samples_completed == 1
    assert rep.extras["min_im_chi"] > 0


def test_verify_siegel_keeps_the_breakdown_witness(monkeypatch):
    # a breakdown on sample 0 stays the witness although later samples set min_im_chi
    import crown.siegel as siegel_mod
    real = siegel_mod.minor_ratios
    calls = []

    def breaks_first(z):
        calls.append(z)
        if len(calls) == 1:
            raise NumericalBreakdown("forced")
        return real(z)

    monkeypatch.setattr(siegel_mod, "minor_ratios", breaks_first)
    rep = verify_siegel(2, 8, seed=9)
    assert rep.extras["pivot_breakdowns"] == 1
    assert rep.violations == 1
    assert rep.worst_witness["sample_index"] == 0
    assert rep.worst_witness["pivot_breakdown"] is True
    assert rep.extras["min_im_chi"] > 0


def test_verify_siegel_late_breakdown_is_the_witness(monkeypatch):
    # the smallest Im chi is at row 4; a breakdown at row 9 still takes the witness
    import crown.siegel as siegel_mod
    clean = verify_siegel(3, 40, seed=9)
    assert clean.worst_witness["sample_index"] == 4 and clean.violations == 0
    real = siegel_mod.minor_ratios
    calls = []

    def breaks_row_9(z):
        calls.append(z)
        if len(calls) == 10:
            raise NumericalBreakdown("forced")
        return real(z)

    monkeypatch.setattr(siegel_mod, "minor_ratios", breaks_row_9)
    rep = verify_siegel(3, 40, seed=9)
    assert rep.extras["pivot_breakdowns"] == 1 and rep.violations == 1
    assert rep.worst_witness["sample_index"] == 9
    assert rep.worst_witness["pivot_breakdown"] is True
    assert rep.min_margin == clean.min_margin
    assert rep.extras["min_im_chi"] == clean.extras["min_im_chi"] == clean.min_margin


def test_verify_siegel_every_row_breaks_down(monkeypatch):
    # only the n x n samples break; the 2 x 2 kernel fixture still runs
    import crown.siegel as siegel_mod
    real = siegel_mod.minor_ratios

    def breaks_samples(z):
        if z.shape == (3, 3):
            raise NumericalBreakdown("forced")
        return real(z)

    monkeypatch.setattr(siegel_mod, "minor_ratios", breaks_samples)
    rep = verify_siegel(3, 16, seed=9)
    assert rep.violations == rep.samples_completed == 16
    assert rep.extras["pivot_breakdowns"] == 16
    assert rep.min_margin is None
    assert rep.extras["min_im_chi"] is None
    assert rep.extras["min_normalized_minor"] is None
    assert rep.extras["fixture_error"] == 0.0
    assert rep.worst_witness["sample_index"] == 0
    assert rep.worst_witness["pivot_breakdown"] is True


def test_cross_check_crown_verdicts_agree(sp2):
    rep = cross_check_crown(sp2, 150, seed=9)
    assert rep.violations == 0
    assert rep.samples_indeterminate == 0


def test_cross_check_crown_diagonal_slice(sp2):
    # abelian case: both sides produce exactly the sampled coordinates
    from crown.weyl import FULL_OMEGA, draw_omega_point
    from crown.siegel import fractional_action
    from crown.iwasawa import minor_ratios, project_complex
    rng = substream(83, 2)
    for _ in range(20):
        x = draw_omega_point(sp2, FULL_OMEGA, rng)
        f = project_complex(sp2, np.eye(4), x)
        np.testing.assert_allclose(f.log_a.imag, x, atol=1e-12)
        ax_std = sp2.to_standard_frame(sp2.a_exp(1j * x))
        w = fractional_action(ax_std, 1j * np.eye(2))
        y_siegel = 0.5 * np.angle(minor_ratios(w) / 1j)
        np.testing.assert_allclose(np.sort(y_siegel), np.sort(x), atol=1e-10)


def test_cross_check_requires_symplectic(sl3):
    with pytest.raises(ValueError):
        cross_check_crown(sl3, 10, seed=1)
