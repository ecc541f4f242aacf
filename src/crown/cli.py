"""Command-line surface: seeded verification runs with serialized reports.

Exit codes: 0 clean, 2 violations, 3 indeterminate samples only, 64 usage
error (a bad argument, or a ValueError for invalid input), 70 numerical
breakdown (a NumericalBreakdown, whose causes errors.py lists, or numpy's
LinAlgError for a singular linear solve), 73 the --out report file cannot be
written.
run is the one place that times a command: it stamps wall_time_ms on the
report, so reports are byte-identical across reruns of the same argv except
for that field.  Each subparser names the library call that runs it beside its
flags; the only handlers here check the shape of a single query (decompose,
hull) or pick the siegel verifier.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import convexity, domains, siegel
from .errors import NumericalBreakdown
from .groups import GROUP_TOL, Family, GroupContext, GroupSpec, build_group
from .iwasawa import (
    batch_reconstruction_residual,
    decompose_real,
    grid_tolerances,
    k_factor,
    project_complex,
)
from .report import VerificationReport, group_wire
from .weyl import MEMBERSHIP_TOL, OmegaSpec, hull_contains

EXIT_USAGE = 64
EXIT_BREAKDOWN = 70
EXIT_CANTCREAT = 73


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def parse_group(text: str) -> GroupContext:
    kind, _, value = text.partition(":")
    try:
        return build_group(GroupSpec(Family(kind), int(value)))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse group spec {text!r}: {exc}") from None


def parse_omega(text: str) -> OmegaSpec:
    try:
        return OmegaSpec.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def tolerance(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < np.inf:
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text!r}")
    return value


def parse_coords(text: str) -> np.ndarray:
    try:
        coords = np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse coordinates {text!r}") from None
    if not np.all(np.isfinite(coords)):
        raise argparse.ArgumentTypeError(f"coordinates must be finite, got {text!r}")
    return coords


def _add_common(sub, omega_default=None):
    if omega_default is not None:
        sub.add_argument("--omega", type=parse_omega, default=parse_omega(omega_default),
                         metavar="scale:C|ball:R")
    sub.add_argument("--samples", type=int, default=10000)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--tol", type=tolerance, default=MEMBERSHIP_TOL)


def build_parser() -> _Parser:
    parser = _Parser(prog="crown")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", default=None, help="report path (default: stdout)")
    on_group = argparse.ArgumentParser(add_help=False, parents=[common])
    on_group.add_argument("--group", type=parse_group, required=True, metavar="sl:N|sp:N")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_parser(name, help, parent=on_group):
        return sub.add_parser(name, help=help, parents=[parent])

    p = add_parser("decompose", help="Iwasawa factors of one group element")
    p.add_argument("--entries", type=parse_coords, required=True,
                   help="row-major real entries of the group element")
    p.add_argument("--x", type=parse_coords, default=None,
                   help="imaginary direction; tracks the complex projection")
    p.set_defaults(run=_run_decompose)

    p = add_parser("hull", help="orbit-hull membership query")
    p.add_argument("--x", type=parse_coords, required=True)
    p.add_argument("--y", type=parse_coords, required=True)
    p.add_argument("--tol", type=tolerance, default=MEMBERSHIP_TOL)
    p.set_defaults(run=_run_hull)

    p = add_parser("verify-convexity", help="hull containment of the tracked projection")
    _add_common(p, omega_default="scale:1.0")
    p.add_argument("--mode", choices=("k", "full-g"), default="k")
    p.set_defaults(run=lambda a: convexity.verify_complex_convexity(
        a.group, a.omega, a.samples, a.seed, a.tol, mode=a.mode))

    p = add_parser("verify-kostant", help="real containment and vertex sharpness")
    _add_common(p)
    p.set_defaults(run=lambda a: convexity.verify_kostant_real(a.group, a.samples, a.seed, a.tol))

    p = add_parser("gradient-check", help="finite-difference gradient validation")
    p.add_argument("--configs", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=lambda a: convexity.gradient_check(a.group, a.configs, a.seed))

    p = add_parser("critical-points", help="gradient ascents against Weyl maxima")
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gap-tol", type=tolerance, default=1e-6)
    p.add_argument("--max-iter", type=int, default=1000)
    p.set_defaults(run=lambda a: convexity.critical_point_scan(
        a.group, a.runs, a.seed, gap_tol=a.gap_tol, max_iter=a.max_iter))

    p = add_parser("tubes", help="crown points against horospherical tubes")
    p.add_argument("--omega", type=parse_omega, default=parse_omega("scale:0.8"))
    p.add_argument("--z-count", type=int, default=1000)
    p.add_argument("--k-count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=tolerance, default=MEMBERSHIP_TOL)
    p.set_defaults(run=lambda a: domains.verify_tube_intersection(
        a.group, a.omega, a.z_count, a.k_count, a.seed, a.tol))

    p = add_parser("image", help="projection image of the crown domain")
    _add_common(p, omega_default="scale:0.8")
    p.set_defaults(run=lambda a: domains.verify_image(a.group, a.omega, a.samples, a.seed, a.tol))

    p = add_parser("boundary", help="boundary approach of the projection")
    p.add_argument("--omega", type=parse_omega, default=parse_omega("scale:0.8"))
    p.add_argument("--steps", type=int, default=12,
                   help=f"path points, at most {domains.MAX_PATH_STEPS}; too few are rejected")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=lambda a: domains.verify_boundary(a.group, a.omega, a.steps, a.seed))

    p = add_parser("siegel", help="upper half-space minor positivity", parent=common)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cross-check", action="store_true",
                   help="also compare against the crown projection on matched points")
    p.set_defaults(run=_run_siegel)

    p = add_parser("lemma24", help="imaginary unipotent part far from the normalizer")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=lambda a: convexity.lemma24_probe(a.group, a.samples, a.seed))

    return parser


def _run_decompose(args) -> VerificationReport:
    ctx = args.group
    m = ctx.ambient_size
    if args.entries.size != m * m:
        raise ValueError(f"expected {m * m} entries for {ctx.spec.label}")
    if args.x is not None and args.x.size != ctx.n:
        raise ValueError(f"--x needs {ctx.n} coordinates for {ctx.spec.label}")
    g = args.entries.reshape(m, m)
    tolerances = {"group_tol": GROUP_TOL}
    tracking = {}
    if args.x is None:
        factors = decompose_real(ctx, g)
        z = g
    else:
        factors = project_complex(ctx, g, args.x)
        z = g @ ctx.a_exp(1j * args.x)
        tolerances.update(grid_tolerances())
        tracking = {"path_steps": factors.path_steps, "max_arg_step": factors.max_arg_step}
    batch = z[None], factors.log_full[None], factors.n_part[None]
    return VerificationReport(
        command="decompose", group=group_wire(ctx), seed=0, samples_requested=1,
        tolerance_set=tolerances,
        extras={"n_part": factors.n_part, "log_a": factors.log_a, "k_part": k_factor(*batch)[0],
                "reconstruction_residual": batch_reconstruction_residual(ctx, *batch)[0],
                **tracking},
    )


def _run_hull(args) -> VerificationReport:
    ctx = args.group
    if args.x.size != ctx.n or args.y.size != ctx.n:
        raise ValueError(f"--x and --y need {ctx.n} coordinates for {ctx.spec.label}")
    member, margin = hull_contains(ctx, args.x, args.y, args.tol)
    return VerificationReport(
        command="hull", group=group_wire(ctx), seed=0, samples_requested=1,
        min_margin=margin, tolerance_set={"membership_tol": args.tol},
        extras={"inside": member, "verdict": "inside" if member else "outside"},
    )


def _run_siegel(args) -> VerificationReport:
    if args.cross_check:
        ctx = build_group(GroupSpec(Family.SYMPLECTIC, args.n))
        return siegel.cross_check_crown(ctx, args.samples, args.seed)
    return siegel.verify_siegel(args.n, args.samples, args.seed)


def run(argv) -> tuple[int, str, str | None]:
    """Execute one command line; returns (exit_code, rendered report, out path).

    The report's wall_time_ms is the time args.run takes, parsing excluded.
    """
    args = build_parser().parse_args(argv)
    start = time.monotonic()
    report = args.run(args)
    report.wall_time_ms = int((time.monotonic() - start) * 1000)
    return report.exit_code, report.render(args.format), args.out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        code, rendered, out = run(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    # LinAlgError subclasses ValueError, so breakdowns are caught first
    except (NumericalBreakdown, np.linalg.LinAlgError) as exc:
        print(f"crown: error: {exc}", file=sys.stderr)
        return EXIT_BREAKDOWN
    except ValueError as exc:
        print(f"crown: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            print(f"crown: error: {exc}", file=sys.stderr)
            return EXIT_CANTCREAT
    else:
        sys.stdout.write(rendered)
    return code


if __name__ == "__main__":
    sys.exit(main())
