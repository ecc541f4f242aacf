"""Acceptance checklist, one test per criterion, printed one line per check.

Run with `pytest tests/test_acceptance.py -v -s`.  Criteria run at full desk
scale with fixed seeds; the determinism criterion reruns earlier commands and
compares reports byte for byte modulo the timing field.
"""

import re
import time

import numpy as np

import crown
from crown import OmegaSpec
from crown.cli import run as cli_run
from crown.groups import Family
from crown.rng import substream
from crown.sampling import sample_group_element
from crown.weyl import FULL_OMEGA, draw_omega_point, hull_contains

from conftest import context
from oracles import lp_hull_slacks, reference_polyline_log_a, reference_weyl_orbit

GROUPS = ["sl:2", "sl:3", "sp:2"]
MARGIN_TOL = 1e-9
_cache = {}


def _check(label, ok, detail=""):
    print(f"[{label}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{label}: {detail}"


def _strip_timing(text):
    return re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": 0', text)


def test_a01_complex_convexity_sweep():
    for label in GROUPS:
        ctx = context(label)
        for mode in ("k", "full-g"):
            start = time.monotonic()
            rep = crown.verify_complex_convexity(
                ctx, FULL_OMEGA, 10_000, seed=7, tol=MARGIN_TOL, mode=mode)
            elapsed = time.monotonic() - start
            _cache[f"a01:{label}:{mode}"] = rep
            _check(
                f"A01 {label} {mode}",
                rep.violations == 0 and rep.samples_indeterminate == 0
                and rep.min_margin > -MARGIN_TOL and elapsed < 120.0,
                f"violations={rep.violations} min_margin={rep.min_margin:.3e} {elapsed:.1f}s",
            )


def test_a02_kostant_real_sweep():
    for label in GROUPS:
        ctx = context(label)
        rep = crown.verify_kostant_real(ctx, 10_000, seed=13, tol=MARGIN_TOL)
        _cache[f"a02:{label}"] = rep
        _check(
            f"A02 {label}",
            rep.violations == 0 and rep.min_margin > -MARGIN_TOL
            and rep.extras["max_vertex_error"] <= 1e-10,
            f"violations={rep.violations} min_margin={rep.min_margin:.3e} "
            f"vertex_err={rep.extras['max_vertex_error']:.2e}",
        )


def test_a03_reconstruction_and_path_independence():
    # residuals tracked across the full A01/A02 sweeps
    worst = 0.0
    for key, rep in _cache.items():
        worst = max(worst, rep.extras.get("max_reconstruction_residual", 0.0))
    _check("A03 reconstruction", 0.0 < worst <= 1e-10, f"max_residual={worst:.2e}")
    for label in GROUPS:
        ctx = context(label)
        rng_gap = 0.0
        for i in range(100):
            rng = substream(23, i)
            x = draw_omega_point(ctx, FULL_OMEGA, rng)
            x0 = draw_omega_point(ctx, FULL_OMEGA, rng)
            g = sample_group_element(ctx, [rng], "k")[0]
            direct = crown.project_complex(ctx, g, x)
            two_leg = reference_polyline_log_a(ctx, g, [x0, x])
            rng_gap = max(rng_gap, float(np.max(np.abs(direct.log_a - two_leg))))
        _check(f"A03 path-independence {label}", rng_gap <= 1e-8, f"max_gap={rng_gap:.2e}")


def test_a04_gradient_formula():
    for label in GROUPS:
        ctx = context(label)
        rep = crown.gradient_check(ctx, 100, seed=3)
        _check(
            f"A04 {label}",
            rep.extras["median_rel_err"] < 1e-7 and rep.extras["max_rel_err"] < 1e-5
            and rep.extras["max_route_gap"] <= 1e-10,
            f"median={rep.extras['median_rel_err']:.2e} max={rep.extras['max_rel_err']:.2e} "
            f"routes={rep.extras['max_route_gap']:.2e}",
        )


def test_a05_critical_points():
    ctx = context("sl:3")
    rep = crown.critical_point_scan(ctx, 100, seed=5, max_iter=1500)
    rate = rep.extras["convergence_rate"]
    _check(
        "A05 sl:3",
        rep.violations == 0 and rate >= 0.95
        and rep.extras["max_gap_converged"] < 1e-6,
        f"rate={rate:.2f} max_gap={rep.extras['max_gap_converged']:.2e} "
        f"flagged={rep.samples_indeterminate}",
    )


def test_a06_hull_oracle_equivalence():
    # both families up to rank 3
    for label in GROUPS + ["sl:4", "sp:3"]:
        ctx = context(label)
        rng = substream(29, 0)
        xs, ys, inside = [], [], []
        band = 0
        for _ in range(1000):
            x = rng.uniform(-1, 1, ctx.n)
            if ctx.family is Family.SPECIAL_LINEAR:
                x -= x.mean()
            if rng.uniform() < 0.5:
                orbit = reference_weyl_orbit(ctx, x)
                y = rng.dirichlet(np.ones(orbit.shape[0])) @ orbit
                y = y + rng.standard_normal(ctx.n) * 0.02
            else:
                y = rng.uniform(-1.2, 1.2, ctx.n)
            if ctx.family is Family.SPECIAL_LINEAR:
                y -= y.mean()
            member, margin = hull_contains(ctx, x, y, tol=MARGIN_TOL)
            if abs(margin) <= 1e-7:
                band += 1
                continue
            xs.append(x)
            ys.append(y)
            inside.append(member)
        # one LP for the group's points: inside when the least L1 slack is at most 1e-9
        lp_inside = lp_hull_slacks(ctx, xs, ys) <= 1e-9
        disagreements = int(np.sum(lp_inside != np.array(inside)))
        _check(f"A06 {label}", disagreements == 0,
               f"disagreements={disagreements} tolerance_band_hits={band}")


def test_a07_tubes_and_image():
    ctx = context("sl:3")
    omega = OmegaSpec("scale", scale=0.8)
    rep = crown.verify_tube_intersection(ctx, omega, 1000, 100, seed=21, tol=MARGIN_TOL)
    _cache["a07:tubes"] = rep
    _check(
        "A07 tubes sl:3",
        rep.violations == 0 and rep.samples_indeterminate == 0
        and rep.min_margin > -MARGIN_TOL,
        f"pairs={rep.samples_requested} violations={rep.violations} "
        f"min_margin={rep.min_margin:.3e}",
    )
    rep = crown.verify_image(ctx, omega, 10_000, seed=22, tol=MARGIN_TOL)
    _cache["a07:image"] = rep
    _check(
        "A07 image sl:3",
        rep.violations == 0 and rep.min_margin > -MARGIN_TOL
        and rep.extras["max_slice_witness_error"] <= 1e-10,
        f"violations={rep.violations} min_margin={rep.min_margin:.3e}",
    )


def test_a08_siegel_minors():
    for n in (2, 3):
        rep = crown.verify_siegel(n, 10_000, seed=31)
        _cache[f"a08:{n}"] = rep
        _check(
            f"A08 n={n}",
            rep.violations == 0 and rep.extras["pivot_breakdowns"] == 0
            and rep.extras["min_im_chi"] > 0.0
            and rep.extras["min_normalized_minor"] > 1e-12,
            f"min_im_chi={rep.extras['min_im_chi']:.3e} "
            f"min_minor={rep.extras['min_normalized_minor']:.2e}",
        )
    ratios = crown.minor_ratios(np.array([[1j, 0.5], [0.5, 1j]]))
    err = float(np.max(np.abs(ratios - np.array([1j, 1.25j]))))
    _check("A08 worked point", err <= 1e-12, f"chi_err={err:.2e}")


def test_a09_lemma24_probe():
    for label in ("sl:2", "sl:3"):
        rep = crown.lemma24_probe(context(label), 1000, seed=17)
        _check(
            f"A09 {label}",
            rep.violations == 0 and rep.extras["min_im_n"] > 1e-10,
            f"min_im_n={rep.extras['min_im_n']:.3e}",
        )


def test_a10_determinism():
    # rerun the A01, A07 and A08 configurations; library reports carry no timing to strip
    ctx = context("sl:2")
    for label in GROUPS:
        for mode in ("k", "full-g"):
            rep = crown.verify_complex_convexity(
                context(label), FULL_OMEGA, 10_000, seed=7, tol=MARGIN_TOL, mode=mode)
            _check(f"A10 rerun A01 {label} {mode}",
                   _cache[f"a01:{label}:{mode}"].to_json() == rep.to_json())
    omega = OmegaSpec("scale", scale=0.8)
    ctx3 = context("sl:3")
    rep = crown.verify_tube_intersection(ctx3, omega, 1000, 100, seed=21, tol=MARGIN_TOL)
    _check("A10 rerun A07 tubes",
           _cache["a07:tubes"].to_json() == rep.to_json())
    rep = crown.verify_image(ctx3, omega, 10_000, seed=22, tol=MARGIN_TOL)
    _check("A10 rerun A07 image",
           _cache["a07:image"].to_json() == rep.to_json())
    for n in (2, 3):
        rep = crown.verify_siegel(n, 10_000, seed=31)
        _check(f"A10 rerun A08 n={n}",
               _cache[f"a08:{n}"].to_json() == rep.to_json())
    # end-to-end CLI determinism including serialization
    argv = ["verify-convexity", "--group", "sl:2", "--omega", "scale:1.0",
            "--samples", "2000", "--seed", "7", "--tol", "1e-9", "--format", "json"]
    _, out1, _ = cli_run(argv)
    _, out2, _ = cli_run(argv)
    _check("A10 CLI byte-identical", _strip_timing(out1) == _strip_timing(out2))
