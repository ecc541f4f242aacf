import numpy as np
import pytest

import crown
from crown import boundary_path, boundary_probe, sample_xi
from crown.domains import _tube_margins
from crown.iwasawa import minor_ratios
from crown.rng import NS_TUBE, substream
from crown.sampling import haar_k
from crown.weyl import OmegaSpec, draw_omega_point, omega_distance, omega_margin

from conftest import context

OM8 = OmegaSpec("scale", scale=0.8)


def tube_margin(ctx, omega, k, g, x):
    """The tube margin of one crown point g exp(iX) over base k, a batch of one."""
    margins, _, bad = _tube_margins(ctx, omega, k[None], np.asarray(g)[None],
                                    np.asarray(x)[None])
    assert not bad[0]
    return margins[0]


def test_sample_xi_postconditions(ctx):
    gs, xs = sample_xi(ctx, OM8, 16, seed=3)
    m = ctx.ambient_size
    assert gs.shape == (16, m, m) and xs.shape == (16, ctx.n)
    assert np.all(omega_margin(ctx, OM8, xs) > 0)
    assert np.all(ctx.in_group(gs))
    again = sample_xi(ctx, OM8, 16, seed=3)
    np.testing.assert_array_equal(gs, again[0])
    np.testing.assert_array_equal(xs, again[1])


def test_tube_identity_base_reads_off_direction(ctx):
    x = draw_omega_point(ctx, OM8, substream(5, 0))
    eye = np.eye(ctx.ambient_size)
    margin = tube_margin(ctx, OM8, eye, eye, x)
    assert margin > 0
    assert np.isclose(margin, omega_margin(ctx, OM8, x), atol=1e-12)


def test_tube_rejects_direction_outside_omega(ctx):
    # X inside the full polytope but outside the scaled omega
    grow = OmegaSpec("scale", scale=0.95)
    x = None
    rng = substream(5, 77)
    while x is None:
        cand = draw_omega_point(ctx, grow, rng)
        if omega_margin(ctx, OmegaSpec("scale", scale=0.5), cand) < 0:
            x = cand
    eye = np.eye(ctx.ambient_size)
    assert tube_margin(ctx, OmegaSpec("scale", scale=0.5), eye, eye, x) < 0


def test_tube_membership_right_k_invariant(ctx):
    # right multiplication by K leaves z z^T, hence every minor ratio, unchanged
    rng = substream(5, 78)
    gs, xs = sample_xi(ctx, OM8, 1, seed=9)
    k0 = haar_k(ctx, [rng])[0]
    z = gs[0] @ ctx.a_exp(1j * xs[0])
    np.testing.assert_allclose((z @ k0) @ (z @ k0).T, z @ z.T, atol=1e-12)
    m = z @ z.T
    np.testing.assert_allclose(
        minor_ratios(0.5 * (m + m.T)),
        minor_ratios(0.5 * ((z @ k0) @ (z @ k0).T + ((z @ k0) @ (z @ k0).T).T)),
        atol=1e-9)


def test_verify_tube_intersection_clean(sl3):
    rep = crown.verify_tube_intersection(sl3, OM8, 40, 15, seed=3)
    assert rep.violations == 0
    assert rep.samples_requested == 600
    assert rep.min_margin > -1e-9


@pytest.mark.parametrize("label", ["sl:3", "sp:2"])
def test_tube_contains_is_a_batch_of_one_of_the_sweep(label):
    # every (z, k) pair queried alone through _tube_margins gives the sweep's margin bit for bit
    ctx = context(label)
    seed, z_count, k_count = 4, 6, 5
    rep = crown.verify_tube_intersection(ctx, OM8, z_count, k_count, seed)
    gs, xs = sample_xi(ctx, OM8, z_count, seed)
    bases = [haar_k(ctx, [substream(seed, NS_TUBE + j)])[0] for j in range(k_count)]
    margins = np.array([[tube_margin(ctx, OM8, k, g, x) for k in bases]
                        for g, x in zip(gs, xs)])
    z_index, k_index = np.unravel_index(np.argmin(margins), margins.shape)
    assert margins.min() == rep.min_margin
    assert (z_index, k_index) == (rep.worst_witness["z_index"], rep.worst_witness["k_index"])


def test_tube_margins_boundary_scan(sl3):
    # with X at a fixed relative depth, deeper omegas keep proportional margins
    from crown.convexity import sample_regular_direction
    mins = []
    for c in (0.5, 0.8, 0.95):
        om = OmegaSpec("scale", scale=c)
        rng = substream(13, 0)
        u = sample_regular_direction(sl3, om, rng)
        vals = np.abs(u @ sl3.roots.T)
        x = 0.9 * (c * np.pi / 2 / vals.max()) * u
        g = haar_k(sl3, [rng])[0]
        margins = [tube_margin(sl3, om, haar_k(sl3, [rng])[0], g, x) for _ in range(10)]
        assert min(margins) > 0
        mins.append(min(margins))
    # frozen observation: margins grow linearly with the omega scale at fixed depth
    assert mins[0] < mins[1] < mins[2]


def test_verify_image_clean(ctx):
    rep = crown.verify_image(ctx, OM8, 150, seed=3)
    assert rep.violations == 0
    assert rep.extras["max_slice_witness_error"] < 1e-10
    assert rep.min_margin > -1e-9


def test_boundary_path_construction(sl3):
    from crown.convexity import sample_regular_direction
    rng = substream(17, 0)
    u = sample_regular_direction(sl3, OM8, rng)
    path = boundary_path(sl3, OM8, u, steps=12)
    dists = [omega_distance(sl3, OM8, x) for x in path]
    assert all(b < a for a, b in zip(dists, dists[1:]))
    assert dists[-1] < 1e-3


def test_boundary_probe_identity_base_exact(sl3):
    from crown.convexity import sample_regular_direction
    rng = substream(17, 1)
    u = sample_regular_direction(sl3, OM8, rng)
    path = boundary_path(sl3, OM8, u, steps=12)
    pairs = boundary_probe(sl3, OM8, np.eye(3), path)
    for (step, dist), x in zip(pairs, path):
        assert np.isclose(dist, omega_distance(sl3, OM8, x), atol=1e-12)


def test_boundary_probe_rotation_monotone(sl2):
    from crown.convexity import sample_regular_direction
    import scipy.stats
    rng = substream(17, 2)
    u = sample_regular_direction(sl2, OM8, rng)
    path = boundary_path(sl2, OM8, u, steps=12)
    g = haar_k(sl2, [rng])[0]
    pairs = boundary_probe(sl2, OM8, g, path)
    out = [d for _, d in pairs]
    inp = [omega_distance(sl2, OM8, x) for x in path]
    rho = scipy.stats.spearmanr(inp, out).statistic
    assert rho > 0.9


def test_boundary_probe_validates_path(sl3):
    with pytest.raises(ValueError):
        boundary_probe(sl3, OM8, np.eye(3),
                       [np.array([0.1, 0.0, -0.1]), np.array([0.2, 0.0, -0.2])])
