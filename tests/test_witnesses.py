"""Independent 50-digit witnesses: the numbers behind golden verdicts, recomputed in mpmath.

No witness here comes from crown's elimination or branch tracker.  Leading
minors are mpmath determinants at 50 digits, and the branch of log a(g exp(iX))
is the continuous argument of each minor of g exp(2itD) g^T along a fixed grid
in t, anchored at the positive definite g g^T of t = 0.  Tube witnesses store no
group element; crown's seeded samplers redraw it from the witness's indices.
"""

import itertools
import json
import pathlib

import numpy as np
import pytest
from mpmath import mp
from test_golden import CASES

from crown import Family, GroupSpec, build_group, sample_xi
from crown.convexity import IM_N_FLOOR
from crown.iwasawa import track_batch
from crown.rng import NS_TUBE, substream
from crown.sampling import haar_k
from crown.weyl import FULL_OMEGA, OmegaSpec

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


def _gram(g, d, t=1):
    """g exp(2itD) g^T for real g and D = diag(d), the matrix whose minors give a(g exp(itD))."""
    m = len(d)
    phase = [mp.expj(2 * t * dj) for dj in d]
    return mp.matrix([[mp.fsum(g[r, s] * phase[s] * g[c, s] for s in range(m))
                       for c in range(m)] for r in range(m)])


def _ldl(mat):
    """(L, pivots) of M = L diag(pivots) L^T, L unit lower triangular, by elimination."""
    m = mat.rows
    work, lower = mat.copy(), mp.eye(m)
    for j in range(m):
        for r in range(j + 1, m):
            lower[r, j] = work[r, j] / work[j, j]
            for c in range(j + 1, m):
                work[r, c] -= lower[r, j] * work[j, c]
    return lower, [work[j, j] for j in range(m)]


def _tracked_im_log_a(g, d):
    """Im of the full diagonal of log a(g exp(iX)), D = diag(d), on a GRID-step path."""
    m = len(d)
    arg = [mp.mpf(0)] * m
    largest = mp.mpf(0)
    prev = None
    for k in range(GRID + 1):
        minors = _leading_minors(_gram(g, d, mp.mpf(k) / GRID))
        if prev is not None:
            steps = [mp.arg(now / before) for now, before in zip(minors, prev)]
            largest = max([largest] + [abs(s) for s in steps])
            arg = [a + s for a, s in zip(arg, steps)]
        prev = minors
    # every grid step moves every argument well inside the pi/2 of a continuous branch
    assert largest < mp.pi / 8
    return [(arg[j] - (arg[j - 1] if j else 0)) / 2 for j in range(m)]



def test_retried_rows_at_50_digits():
    # a one-step grid is too coarse for 19 of these rows, so track_batch tracks each
    # again, alone, on two segments; the branch it lands on is the 50-digit one
    ctx = build_group(GroupSpec(Family.SPECIAL_LINEAR, 3))
    gs, xs = sample_xi(ctx, FULL_OMEGA, 256, 1)
    log_full, _, _, segments, bad = track_batch(ctx, gs, xs, steps_hint=1)
    retried = np.flatnonzero(segments == 2)
    assert len(retried) == 19 and not bad.any()
    with mp.workdps(DIGITS):
        for i in retried:
            d = [mp.mpf(v) for v in ctx.full_diag(xs[i])]
            y = _tracked_im_log_a(mp.matrix(gs[i].tolist()), d)
            assert max(abs(a - b) for a, b in zip(y, log_full[i].imag)) < 1e-12


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


def _group(report):
    return build_group(GroupSpec(Family(report["group"]["family"]), report["group"]["n"]))


def _flag(argv, name):
    """The float list a golden command line passes to name, or None when it passes none."""
    if name not in argv:
        return None
    return [float(v) for v in argv[argv.index(name) + 1].split(",")]


@pytest.mark.parametrize("name", ["kostant_sl3", "kostant_sp2"])
def test_kostant_vertex_error_at_50_digits(name):
    # k_w exp(X) = exp(wX) k_w, so log a(k_w exp X) is the vertex wX: the exact vertex
    # error is 0, and the golden's max_vertex_error is rounding alone
    report = _golden(name)
    ctx = _group(report)
    x = [re for re, _ in report["worst_witness"]["x"]]
    reps = ctx.weyl_k
    assert len(reps) == report["extras"]["weyl_order"]
    signs = (itertools.product([1, -1], repeat=ctx.n) if ctx.family is Family.SYMPLECTIC
             else [[1] * ctx.n])
    orbit = [[s * v for s, v in zip(sign, perm)]
             for sign in signs for perm in itertools.permutations(x)]
    m = ctx.ambient_size
    with mp.workdps(DIGITS):
        exp_x = mp.diag([mp.exp(v) for v in ctx.full_diag(x)])
        hit, error = set(), mp.mpf(0)
        for kw in reps:
            # z = g has z z^T = n a^2 n^T: the LDL^T pivots of g g^T are a^2
            _, pivots = _ldl(_gram(mp.matrix(kw.tolist()) * exp_x, [mp.mpf(0)] * m))
            log_a = [mp.log(p.real) / 2 for p in pivots][: ctx.n]
            gaps = [max(abs(a - v) for a, v in zip(log_a, w)) for w in orbit]
            hit.add(gaps.index(min(gaps)))
            error = max(error, min(gaps))
        # every Weyl image of x is attained, each by one representative
        assert hit == set(range(len(orbit))) and len(orbit) == len(reps)
        assert error < mp.mpf(10) ** -40
        assert abs(error - report["extras"]["max_vertex_error"]) < 1e-12


@pytest.mark.parametrize("name", ["decompose_sl3_real", "decompose_sp2_real",
                                  "decompose_sl3_x", "decompose_sp2_x"])
def test_decompose_factors_at_50_digits(name):
    # z = g exp(iX) has z z^T = n a^2 n^T: the LDL^T of g exp(2iD) g^T gives n and |a|^2
    report = _golden(name)
    ctx = _group(report)
    entries = _flag(CASES[name], "--entries")
    x = _flag(CASES[name], "--x") or [0.0] * ctx.n
    m = ctx.ambient_size
    with mp.workdps(DIGITS):
        g = mp.matrix([entries[r * m:(r + 1) * m] for r in range(m)])
        d = [mp.mpf(v) for v in ctx.full_diag(x)]
        lower, pivots = _ldl(_gram(g, d))
        im_log_a = _tracked_im_log_a(g, d)
        log_a = [mp.log(abs(p)) / 2 + 1j * y for p, y in zip(pivots, im_log_a)][: ctx.n]
        assert max(abs(a - b) for a, b in zip(log_a, _numbers(report["extras"]["log_a"]))) < 1e-12
        n_part = _matrix(report["extras"]["n_part"])
        assert max(abs(lower[r, c] - n_part[r, c]) for r in range(m) for c in range(m)) < 1e-12


@pytest.mark.parametrize("name", ["lemma24_sl3", "lemma24_sp2"])
def test_lemma24_witness_at_50_digits(name):
    # the worst k keeps an imaginary unipotent part: the largest |Im n| of k exp(iX)
    report = _golden(name)
    witness = report["worst_witness"]
    ctx = _group(report)
    with mp.workdps(DIGITS):
        k = _matrix(witness["k"]).apply(mp.re)
        d = [mp.mpf(v) for v in ctx.full_diag(report["extras"]["x"])]
        lower, _ = _ldl(_gram(k, d))
        m = ctx.ambient_size
        im_n = max(abs(lower[r, c].imag) for r in range(m) for c in range(m))
        assert abs(im_n - witness["im_n"]) < 1e-12
        # the verdict: far from the normalizer, n is not real
        assert im_n > IM_N_FLOOR
