import numpy as np
import pytest

import crown
from crown import TubeSpec, boundary_path, boundary_probe, sample_xi, tube_contains
from crown.iwasawa import CrownPoint, minor_ratios
from crown.rng import substream
from crown.sampling import haar_k
from crown.weyl import OmegaSpec, omega_distance, omega_margin

OM8 = OmegaSpec("scale", scale=0.8)


def test_sample_xi_postconditions(ctx):
    points = sample_xi(ctx, OM8, 16, seed=3)
    for p in points:
        assert omega_margin(ctx, OM8, p.direction_x) > 0
        z = p.base_g @ ctx.a_exp(1j * p.direction_x)
        np.testing.assert_allclose(p.z, z, atol=1e-12 * (1 + np.linalg.norm(z)))
    again = sample_xi(ctx, OM8, 16, seed=3)
    for p, q in zip(points, again):
        np.testing.assert_array_equal(p.z, q.z)


def test_tube_identity_base_reads_off_direction(ctx):
    x = crown.sample_omega(ctx, OM8, seed=5, count=1)[0]
    point = CrownPoint(z=ctx.a_exp(1j * x), base_g=np.eye(ctx.ambient_size),
                       direction_x=x, omega_tag=OM8)
    tube = TubeSpec(base_k=np.eye(ctx.ambient_size), omega=OM8)
    member, margin = tube_contains(ctx, tube, point)
    assert member
    assert np.isclose(margin, omega_margin(ctx, OM8, x), atol=1e-12)


def test_tube_rejects_direction_outside_omega(ctx):
    # X inside the full polytope but outside the scaled omega
    grow = OmegaSpec("scale", scale=0.95)
    x = None
    rng = substream(5, 77)
    from crown.weyl import draw_omega_point
    while x is None:
        cand = draw_omega_point(ctx, grow, rng)
        if omega_margin(ctx, OmegaSpec("scale", scale=0.5), cand) < 0:
            x = cand
    point = CrownPoint(z=ctx.a_exp(1j * x), base_g=np.eye(ctx.ambient_size),
                       direction_x=x, omega_tag=grow)
    tube = TubeSpec(base_k=np.eye(ctx.ambient_size), omega=OmegaSpec("scale", scale=0.5))
    member, margin = tube_contains(ctx, tube, point)
    assert not member and margin < 0


def test_tube_spec_validates_base(sl2):
    with pytest.raises(ValueError):
        TubeSpec(base_k=np.diag([2.0, 0.5]), omega=OM8)


def test_tube_membership_right_k_invariant(ctx):
    # right multiplication by K leaves z z^T, hence every minor ratio, unchanged
    rng = substream(5, 78)
    point = sample_xi(ctx, OM8, 1, seed=9)[0]
    k0 = haar_k(ctx, [rng])[0]
    z = point.z
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


def test_tube_margins_boundary_scan(sl3):
    # with X at a fixed relative depth, deeper omegas keep proportional margins
    from crown.convexity import sample_regular_direction
    mins = []
    for c in (0.5, 0.8, 0.95):
        om = OmegaSpec("scale", scale=c)
        rng = substream(13, 0)
        u = sample_regular_direction(sl3, om, rng)
        vals = np.abs(sl3.root_datum.evaluate(u))
        x = 0.9 * (c * np.pi / 2 / vals.max()) * u
        g = haar_k(sl3, [rng])[0]
        point = CrownPoint(z=g @ sl3.a_exp(1j * x), base_g=g, direction_x=x, omega_tag=om)
        margins = [tube_contains(sl3, TubeSpec(base_k=haar_k(sl3, [rng])[0], omega=om), point)[1]
                   for _ in range(10)]
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
