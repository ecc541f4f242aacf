import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crown import dominant_rep, hull_contains, omega_margin
from crown.errors import NumericalBreakdown
from crown.groups import Family, GroupSpec, build_group
from crown.rng import substream
from crown.weyl import (
    FULL_OMEGA,
    MEMBERSHIP_TOL,
    OmegaSpec,
    draw_omega_point,
    hull_margins_batch,
    omega_distance,
)

from conftest import context
from oracles import lp_hull_membership, lp_hull_slacks, reference_weyl_orbit


def test_orbit_of_zero(ctx):
    orbit = reference_weyl_orbit(ctx, np.zeros(ctx.n))
    assert orbit.shape == (1, ctx.n)


def test_orbit_sizes(sl3, sp2):
    assert reference_weyl_orbit(sl3, np.array([0.3, 0.0, -0.3])).shape[0] == 6
    assert reference_weyl_orbit(sp2, np.array([0.5, 0.5])).shape[0] == 4
    assert reference_weyl_orbit(sp2, np.array([0.5, 0.2])).shape[0] == 8


def test_orbit_size_divides_group_order(ctx):
    rng = substream(31, 0)
    for _ in range(20):
        x = np.round(rng.standard_normal(ctx.n), 1)
        if ctx.family is Family.SPECIAL_LINEAR:
            x -= x.mean()
        assert len(ctx.weyl) % reference_weyl_orbit(ctx, x).shape[0] == 0


@pytest.mark.parametrize("label, x, size", [
    ("sl:3", [0.3, 0.3 + 1e-13, -0.6 - 1e-13], 3),
    ("sp:2", [1e-14, 0.5], 4)], ids=["sl3-near-tie", "sp2-near-zero"])
def test_orbit_drops_near_duplicates_the_sort_separates(label, x, size):
    # the oracle drops a point within DEDUP_TOL of any earlier one, though the
    # lexicographic sort puts other points between the two
    ctx = context(label)
    orbit = reference_weyl_orbit(ctx, np.array(x))
    assert orbit.shape[0] == size
    assert len(ctx.weyl) % size == 0


def test_dominant_examples(sl3, sp2):
    np.testing.assert_array_equal(
        dominant_rep(sl3, np.array([-0.3, 0.3, 0.0])), np.array([0.3, 0.0, -0.3]))
    np.testing.assert_array_equal(
        dominant_rep(sp2, np.array([-0.5, 0.2])), np.array([0.5, 0.2]))


def test_dominant_idempotent(ctx):
    rng = substream(31, 1)
    for _ in range(100):
        x = rng.standard_normal(ctx.n)
        d = dominant_rep(ctx, x)
        np.testing.assert_array_equal(dominant_rep(ctx, d), d)
        # the representative lies on the orbit
        orbit = reference_weyl_orbit(ctx, x)
        assert np.min(np.max(np.abs(orbit - d), axis=1)) < 1e-12


def test_hull_examples_type_a(sl3):
    x = np.array([0.3, 0.0, -0.3])
    inside, margin = hull_contains(sl3, x, np.array([0.25, 0.05, -0.3]))
    assert inside and np.isclose(margin, 0.0, atol=1e-12)
    inside, margin = hull_contains(sl3, x, np.array([0.4, -0.1, -0.3]))
    assert not inside and np.isclose(margin, -0.1)
    for w in sl3.weyl:
        assert hull_contains(sl3, x, w @ x)[0]


def test_hull_examples_type_c(sp2):
    x = np.array([0.5, 0.2])
    assert hull_contains(sp2, x, np.array([0.4, 0.1]))[0]
    inside, margin = hull_contains(sp2, x, np.array([0.6, 0.0]))
    assert not inside and np.isclose(margin, -0.1)


def test_hull_against_lp_oracle(ctx):
    rng = substream(37, 2)
    for _ in range(150):
        x = rng.uniform(-1, 1, ctx.n)
        if ctx.family is Family.SPECIAL_LINEAR:
            x -= x.mean()
        # mix near-hull and generic points
        if rng.uniform() < 0.5:
            orbit = reference_weyl_orbit(ctx, x)
            w = rng.dirichlet(np.ones(orbit.shape[0]))
            y = w @ orbit + rng.standard_normal(ctx.n) * 0.05
        else:
            y = rng.uniform(-1.2, 1.2, ctx.n)
        if ctx.family is Family.SPECIAL_LINEAR:
            y -= y.mean()
        inside, margin = hull_contains(ctx, x, y)
        if abs(margin) > 1e-7:
            assert inside == lp_hull_membership(ctx, x, y)


@st.composite
def hull_query(draw):
    """(ctx, x, y) on sl:2-5 or sp:1-4, coordinates on a 0.01 grid in [-1, 1].

    For sl the last coordinate is minus the sum of the others, so x and y stay
    trace-zero on the grid.
    """
    ctx = context(draw(st.sampled_from(["sl:2", "sl:3", "sl:4", "sl:5",
                                        "sp:1", "sp:2", "sp:3", "sp:4"])))
    free = ctx.n - 1 if ctx.family is Family.SPECIAL_LINEAR else ctx.n
    coords = st.lists(st.integers(-100, 100), min_size=free, max_size=free)
    x, y = np.array(draw(coords)) / 100.0, np.array(draw(coords)) / 100.0
    if ctx.family is Family.SPECIAL_LINEAR:
        x, y = np.append(x, -x.sum()), np.append(y, -y.sum())
    return ctx, x, y


# derandomized and without an example database, so every run draws the same queries
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(hull_query())
def test_majorization_agrees_with_the_lp_up_to_rank_4(query):
    ctx, x, y = query
    inside, margin = hull_contains(ctx, x, y)
    assume(abs(margin) > 1e-7)
    assert inside == (lp_hull_slacks(ctx, [x], [y])[0] <= 1e-9)


def test_hull_weyl_invariance(ctx):
    rng = substream(37, 3)
    x = rng.standard_normal(ctx.n)
    y = rng.standard_normal(ctx.n) * 0.5
    if ctx.family is Family.SPECIAL_LINEAR:
        x -= x.mean()
        y -= y.mean()
    base = hull_contains(ctx, x, y)
    for w in ctx.weyl:
        assert hull_contains(ctx, w @ x, y) == base
        assert hull_contains(ctx, x, w @ y) == base


def test_hull_nesting_monotone(ctx):
    rng = substream(37, 4)
    for _ in range(100):
        x = rng.standard_normal(ctx.n)
        if ctx.family is Family.SPECIAL_LINEAR:
            x -= x.mean()
        orbit = reference_weyl_orbit(ctx, x)
        y = rng.dirichlet(np.ones(orbit.shape[0])) @ orbit
        orbit_y = reference_weyl_orbit(ctx, y)
        z = rng.dirichlet(np.ones(orbit_y.shape[0])) @ orbit_y
        assert hull_contains(ctx, x, y)[0]
        assert hull_contains(ctx, y, z)[0]
        assert hull_contains(ctx, x, z)[0]


def test_hull_margins_batch_matches_scalar(ctx):
    rng = substream(37, 5)
    xs = rng.standard_normal((50, ctx.n))
    ys = rng.standard_normal((50, ctx.n)) * 0.7
    if ctx.family is Family.SPECIAL_LINEAR:
        xs -= xs.mean(axis=1, keepdims=True)
        ys -= ys.mean(axis=1, keepdims=True)
    batch = hull_margins_batch(ctx, xs, ys, MEMBERSHIP_TOL)
    singles = [hull_contains(ctx, x, y)[1] for x, y in zip(xs, ys)]
    np.testing.assert_allclose(batch, singles, atol=1e-14)


def test_omega_margin_values(sl2, sp2):
    assert np.isclose(omega_margin(sl2, FULL_OMEGA, np.zeros(2)), np.pi / 2)
    t = 0.3
    assert np.isclose(omega_margin(sl2, FULL_OMEGA, np.array([t, -t])), np.pi / 2 - 2 * t)
    assert np.isclose(
        omega_margin(sp2, FULL_OMEGA, np.array([0.5, 0.2])), np.pi / 2 - 1.0)
    half = OmegaSpec("scale", scale=0.5)
    assert np.isclose(omega_margin(sl2, half, np.zeros(2)), 0.25 * np.pi)


def test_omega_margin_weyl_invariant_exact(ctx):
    rng = substream(41, 6)
    x = rng.standard_normal(ctx.n) * 0.3
    if ctx.family is Family.SPECIAL_LINEAR:
        x -= x.mean()
    base = omega_margin(ctx, FULL_OMEGA, x)
    for w in ctx.weyl:
        assert omega_margin(ctx, FULL_OMEGA, w @ x) == base


@pytest.mark.parametrize("label", ["sl:3", "sp:2", "sl:5"])
@pytest.mark.parametrize("spec", [FULL_OMEGA, OmegaSpec("ball", radius=0.4)],
                         ids=["scale", "ball"])
def test_batches_match_rows_bit_for_bit(label, spec):
    family, _, n = label.partition(":")
    ctx = build_group(GroupSpec(Family(family), int(n)))
    rng = substream(41, 7)
    xs = rng.standard_normal((200, ctx.n)) * 0.3
    if ctx.family is Family.SPECIAL_LINEAR:
        xs -= xs.mean(axis=1, keepdims=True)

    def margin_of_row(x):
        margin = spec.cutoff - np.max(np.abs(x @ ctx.roots.T))
        return min(margin, spec.radius - np.linalg.norm(x)) if spec.shape == "ball" else margin

    # the imaginary part of a complex batch has strided rows, as tracked log a does
    strided = (1j * xs + 0.5).imag
    for batch in (xs, strided):
        np.testing.assert_array_equal(omega_margin(ctx, spec, batch),
                                      [margin_of_row(x) for x in batch])
        np.testing.assert_array_equal(omega_distance(ctx, spec, batch),
                                      [omega_distance(ctx, spec, x) for x in batch])


def test_omega_ball_shape(sl2):
    ball = OmegaSpec("ball", radius=0.1)
    assert omega_margin(sl2, ball, np.zeros(2)) == pytest.approx(0.1)
    assert omega_margin(sl2, ball, np.array([0.09, -0.09])) < 0.0
    assert omega_distance(sl2, ball, np.array([0.01, -0.01])) > 0.0


def test_omega_spec_validation():
    with pytest.raises(ValueError):
        OmegaSpec("scale", scale=1.5)
    with pytest.raises(ValueError):
        OmegaSpec("ball", radius=-1.0)
    with pytest.raises(ValueError):
        OmegaSpec.parse("cube:1")
    assert OmegaSpec.parse("scale:0.8").scale == 0.8
    assert OmegaSpec.parse("ball:1.25").radius == 1.25


def _omega_draws(ctx, spec, seed, count):
    """Draw i of a sweep seeded by seed: one omega point from substream (seed, i)."""
    return np.array([draw_omega_point(ctx, spec, substream(seed, i)) for i in range(count)])


def test_sample_omega_postcondition_and_determinism(ctx):
    spec = OmegaSpec("scale", scale=0.8)
    xs = _omega_draws(ctx, spec, seed=5, count=64)
    assert all(omega_margin(ctx, spec, x) > 0 for x in xs)
    xs2 = _omega_draws(ctx, spec, seed=5, count=64)
    np.testing.assert_array_equal(xs, xs2)
    xs3 = _omega_draws(ctx, spec, seed=6, count=64)
    assert np.max(np.abs(xs - xs3)) > 1e-3


def test_sample_omega_symmetry_three_sigma(ctx):
    xs = _omega_draws(ctx, FULL_OMEGA, seed=12, count=10_000)
    mean = xs.mean(axis=0)
    sigma = xs.std(axis=0) / np.sqrt(len(xs))
    assert np.all(np.abs(mean) <= 3.0 * sigma)


def test_tiny_ball_still_samples(sl2):
    # the bounding box tracks the ball radius, so tiny balls stay efficient
    spec = OmegaSpec("ball", radius=1e-9)
    x = draw_omega_point(sl2, spec, substream(1, 0))
    assert omega_margin(sl2, spec, x) > 0


def test_rejection_stall(sl2, monkeypatch):
    import crown.weyl as weyl_mod
    attempts = []
    monkeypatch.setattr(weyl_mod, "omega_margin", lambda *a: attempts.append(1) or -1.0)
    with pytest.raises(NumericalBreakdown, match="acceptance rate below"):
        draw_omega_point(sl2, FULL_OMEGA, substream(1, 0))
    # the acceptance-rate floor REJECTION_MIN_RATE = 1e-4 gives up after 10,001 misses
    assert len(attempts) == 10_001
