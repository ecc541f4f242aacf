"""The benchmark's workloads: seeded verifier calls and their acceptance checks.

A workload is a fixed list of library calls made one after another by a single
caller (a closed loop).  One pass makes every call once and serializes every
report.  Passes are sized to a second or two, so that a timed run holds many
of them.  Workload seed 0 uses the acceptance seeds of the test suite; seed s
shifts a call's seed by SEED_STRIDE * s, so calls never share seeds.
"""

from __future__ import annotations

import dataclasses
import operator
import re
import time

import crown
from crown.groups import Family, GroupSpec, build_group
from crown.weyl import FULL_OMEGA, OmegaSpec

SEED_STRIDE = 1000
MARGIN_TOL = 1e-9
RESIDUAL_TOL = 1e-10
OMEGA_08 = OmegaSpec("scale", scale=0.8)


def strip_timing(text: str) -> str:
    return re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": 0', text)


def _extra(name, ok, bound):
    """Acceptance check that report extra `name` satisfies ok(value, bound)."""
    def check(rep):
        value = rep.extras[name]
        if value is not None and ok(value, bound):
            return None
        return f"{name}={value!r} fails {ok.__name__} {bound!r}"
    return check


@dataclasses.dataclass(frozen=True)
class Call:
    """One verifier call: crown.<func>(ctx?, *args, seed=..., **kwargs)."""

    func: str
    group: str | None
    args: tuple
    seed: int
    kwargs: dict = dataclasses.field(default_factory=dict)
    checks: tuple = ()
    # critical-point runs that do not converge are flagged, not failed (A05)
    indeterminate_ok: bool = False
    # False keeps the acceptance seed for every workload seed
    seeded: bool = True

    @property
    def label(self) -> str:
        parts = [self.func] + ([self.group] if self.group else [])
        parts += [a.label if isinstance(a, OmegaSpec) else str(a) for a in self.args]
        parts += [f"{k}={v}" for k, v in self.kwargs.items() if k != "tol"]
        return " ".join(parts)

    def seed_for(self, workload_seed: int) -> int:
        return self.seed + SEED_STRIDE * workload_seed if self.seeded else self.seed

    def invoke(self, ctxs: dict, workload_seed: int):
        fn = getattr(crown, self.func)
        head = (ctxs[self.group],) if self.group else ()
        return fn(*head, *self.args, seed=self.seed_for(workload_seed), **self.kwargs)

    def judge(self, rep) -> tuple[int, list[str]]:
        """Acceptance predicates for one report.

        Returns the count that enters fail_frac (violations, indeterminate
        samples the call does not allow, failed checks) and one message per
        failed predicate.
        """
        indeterminate = 0 if self.indeterminate_ok else rep.samples_indeterminate
        messages = [msg for msg in (check(rep) for check in self.checks) if msg]
        failed = rep.violations + indeterminate + len(messages)
        if indeterminate:
            messages.insert(0, f"{indeterminate} indeterminate samples")
        if rep.violations:
            messages.insert(0, f"{rep.violations} violations")
        return failed, messages


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    calls: tuple
    groups: tuple

    def build_groups(self) -> dict:
        ctxs = {}
        for label in self.groups:
            family, _, n = label.partition(":")
            ctxs[label] = build_group(GroupSpec(Family(family), int(n)))
        return ctxs


@dataclasses.dataclass
class PassResult:
    wall_s: float
    call_s: list
    reports: list
    texts: list

    @property
    def samples(self) -> int:
        return sum(rep.samples_requested for rep in self.reports)


def run_pass(workload: Workload, ctxs: dict, seed: int, after_call=None) -> PassResult:
    """Make every call of the workload once; serialization is part of the pass.

    after_call(seconds), if given, runs after each call, outside the pass time.
    """
    call_s, reports, texts = [], [], []
    for call in workload.calls:
        t0 = time.perf_counter()
        rep = call.invoke(ctxs, seed)
        texts.append(strip_timing(rep.to_json()))
        call_s.append(time.perf_counter() - t0)
        reports.append(rep)
        if after_call is not None:
            after_call(call_s[-1])
    return PassResult(sum(call_s), call_s, reports, texts)


def _recon():
    return _extra("max_reconstruction_residual", operator.le, RESIDUAL_TOL)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="sweep",
        why="convexity, Kostant and image sweeps, 10k samples: per-sample drawing "
            "(substream, omega rejection, Haar K) dominates, so batched sampling shows here",
        groups=("sl:3", "sp:2"),
        calls=(
            Call("verify_complex_convexity", "sl:3", (FULL_OMEGA, 2_000), 7,
                 {"tol": MARGIN_TOL, "mode": "k"}, checks=(_recon(),)),
            Call("verify_complex_convexity", "sp:2", (FULL_OMEGA, 2_000), 7,
                 {"tol": MARGIN_TOL, "mode": "full-g"}, checks=(_recon(),)),
            Call("verify_kostant_real", "sp:2", (2_000,), 13, {"tol": MARGIN_TOL},
                 checks=(_recon(), _extra("max_vertex_error", operator.le, RESIDUAL_TOL))),
            Call("verify_image", "sl:3", (OMEGA_08, 2_000), 22, {"tol": MARGIN_TOL},
                 checks=(_extra("max_slice_witness_error", operator.le, RESIDUAL_TOL),)),
        ),
    ),
    Workload(
        name="tubes",
        why="20k tube pairs: batched tracking, elimination and per-row omega margins "
            "dominate and sampling is small, so sampling work must not move it",
        groups=("sl:3",),
        calls=(
            Call("verify_tube_intersection", "sl:3", (OMEGA_08, 200, 100), 21,
                 {"tol": MARGIN_TOL}),
        ),
    ),
    Workload(
        name="ascent",
        why="gradient ascents and gradient checks: the scalar project_complex path "
            "with expm and k_project, the batch layers idle; warm-started ascent shows only here",
        groups=("sl:3", "sp:2"),
        calls=(
            # The iterations of the ascents vary from seed to seed by more than
            # the timing bound allows (mean 62 to 89 over seeds 0-6 for 100
            # runs, more for 20), so the scan keeps its acceptance inputs and
            # only gradient_check follows the workload seed.
            Call("critical_point_scan", "sl:3", (20,), 5, {"max_iter": 1500},
                 checks=(_extra("convergence_rate", operator.ge, 0.95),
                         _extra("max_gap_converged", operator.lt, 1e-6)),
                 indeterminate_ok=True, seeded=False),
            Call("gradient_check", "sp:2", (100,), 3,
                 checks=(_extra("median_rel_err", operator.lt, 1e-7),
                         _extra("max_rel_err", operator.lt, 1e-5),
                         _extra("max_route_gap", operator.le, RESIDUAL_TOL))),
        ),
    ),
    Workload(
        name="siegel",
        why="Siegel minors and the crown cross-check, 2.6k samples: one elimination "
            "per matrix from a Python loop; the only workload that measures the siegel module",
        groups=("sp:2",),
        calls=(
            Call("verify_siegel", None, (3, 2_000), 31,
                 checks=(_extra("pivot_breakdowns", operator.eq, 0),
                         _extra("min_im_chi", operator.gt, 0.0),
                         _extra("min_normalized_minor", operator.gt, 1e-12),
                         _extra("fixture_error", operator.le, 1e-12))),
            Call("cross_check_crown", "sp:2", (600,), 31),
        ),
    ),
)}
