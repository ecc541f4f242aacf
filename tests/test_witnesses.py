"""Independent 50-digit witnesses: the numbers behind golden verdicts, recomputed in mpmath.

Nothing here runs crown's elimination or branch tracker.  Leading minors are
mpmath determinants at 50 digits, and the branch of log a(g exp(iX)) is the
continuous argument of each minor of g exp(2itD) g^T along a fixed grid in t,
anchored at the positive definite g g^T of t = 0.  Tube witnesses store no
group element; crown's seeded samplers redraw it from the witness's indices.
"""

import json
import pathlib

import numpy as np
import pytest
from mpmath import mp

from crown import Family, GroupSpec, build_group, sample_xi
from crown.rng import NS_TUBE, substream
from crown.sampling import haar_k
from crown.weyl import OmegaSpec

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
DIGITS = 50
GRID = 64


def _golden(name):
    return json.loads((GOLDEN / f"{name}.json").read_text())


def _numbers(pairs):
    return [mp.mpc(re, im) for re, im in pairs]


def _matrix(wire):
    data, cols = _numbers(wire["data"]), wire["cols"]
    return mp.matrix([data[r * cols:(r + 1) * cols] for r in range(wire["rows"])])


def _leading_minors(mat):
    return [mp.det(mat[:j, :j]) for j in range(1, mat.rows + 1)]


def test_siegel_witness_chi_at_50_digits():
    witness = _golden("siegel_n3")["worst_witness"]
    with mp.workdps(DIGITS):
        minors = [mp.mpf(1)] + _leading_minors(_matrix(witness["z"]))
        chi = [minors[j + 1] / minors[j] for j in range(len(minors) - 1)]
        rel = max(abs(c - s) / abs(c) for c, s in zip(chi, _numbers(witness["chi"])))
        assert rel < 1e-12
        assert min(c.imag for c in chi) > 0


def _tracked_im_log_a(g, d):
    """Im of the full diagonal of log a(g exp(iX)), D = diag(d), on a GRID-step path."""
    m = len(d)
    arg = [mp.mpf(0)] * m
    largest = mp.mpf(0)
    prev = None
    for k in range(GRID + 1):
        phase = [mp.expj(2 * mp.mpf(k) / GRID * dj) for dj in d]
        path = mp.matrix([[mp.fsum(g[r, s] * phase[s] * g[c, s] for s in range(m))
                           for c in range(m)] for r in range(m)])
        minors = _leading_minors(path)
        if prev is not None:
            steps = [mp.arg(now / before) for now, before in zip(minors, prev)]
            largest = max([largest] + [abs(s) for s in steps])
            arg = [a + s for a, s in zip(arg, steps)]
        prev = minors
    # every grid step moves every argument well inside the pi/2 of a continuous branch
    assert largest < mp.pi / 8
    return [(arg[j] - (arg[j - 1] if j else 0)) / 2 for j in range(m)]


def _hull_margin(family, x, y):
    """Least majorization slack of y against conv(W.x); sl skips the trace equality."""
    if family is Family.SYMPLECTIC:
        x, y = [abs(v) for v in x], [abs(v) for v in y]
    slacks, total = [], mp.mpf(0)
    for a, b in zip(sorted(x, reverse=True), sorted(y, reverse=True)):
        total += a - b
        slacks.append(total)
    return min(slacks if family is Family.SYMPLECTIC else slacks[:-1])


@pytest.mark.parametrize("name", ["convexity_sl3_k", "convexity_sp2_full_g",
                                  "convexity_sl3_ball"])
def test_convexity_witness_at_50_digits(name):
    report = _golden(name)
    witness = report["worst_witness"]
    family = Family(report["group"]["family"])
    ctx = build_group(GroupSpec(family, report["group"]["n"]))
    x = [re for re, _ in witness["x"]]
    with mp.workdps(DIGITS):
        g = _matrix(witness["g"]).apply(mp.re)
        d = [mp.mpf(v) for v in ctx.full_diag(x)]
        y = _tracked_im_log_a(g, d)[: ctx.n]
        assert max(abs(a - re) for a, (re, _) in zip(y, witness["y"])) < 1e-12
        margin = _hull_margin(family, [mp.mpf(v) for v in x], y)
        assert abs(margin - witness["margin"]) < 1e-12
        # the verdict: every witness lies inside the hull
        assert margin > 0


def _omega_margin(ctx, omega, y):
    """Least slack of y against the root cutoff of omega and, for a ball, its radius."""
    margin = mp.mpf(omega.cutoff) - max(abs(mp.fsum(r * v for r, v in zip(row, y)))
                                        for row in ctx.roots.tolist())
    if omega.shape == "ball":
        margin = min(margin, mp.mpf(omega.radius) - mp.sqrt(mp.fsum(v * v for v in y)))
    return margin


@pytest.mark.parametrize("name", ["image_sl3", "image_sp2_ball", "tubes_sl3", "tubes_sp2_ball"])
def test_omega_witness_at_50_digits(name):
    report = _golden(name)
    witness = report["worst_witness"]
    ctx = build_group(GroupSpec(Family(report["group"]["family"]), report["group"]["n"]))
    omega = OmegaSpec(**report["omega"])
    x = [re for re, _ in witness["x"]]
    if "g" in witness:
        g = np.array([re for re, _ in witness["g"]["data"]]).reshape(
            witness["g"]["rows"], witness["g"]["cols"])
    else:
        # the tube sweep translates crown point z_index by tube base k_index
        gs, xs = sample_xi(ctx, omega, report["extras"]["z_count"], report["seed"])
        assert xs[witness["z_index"]].tolist() == x
        base = haar_k(ctx, [substream(report["seed"], NS_TUBE + witness["k_index"])])[0]
        g = base.T @ gs[witness["z_index"]]
    with mp.workdps(DIGITS):
        d = [mp.mpf(v) for v in ctx.full_diag(x)]
        y = _tracked_im_log_a(mp.matrix(g.tolist()), d)[: ctx.n]
        margin = _omega_margin(ctx, omega, y)
        assert abs(margin - witness["margin"]) < 1e-12
        # the verdict: the witness, the sweep's worst point, lies inside omega
        assert margin > 0
