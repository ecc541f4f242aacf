"""Golden reports: every command's timing-stripped JSON report, pinned byte for byte.

A change that moves any number of any report fails here.  When such a change
is intended, regenerate the files with

    PYTHONPATH=src python3 -c "import sys; sys.path.insert(0, 'tests'); \
import test_golden as t; [(t.GOLDEN / f'{n}.json').write_text(t.render(a)) \
for n, a in t.CASES.items()]"

and say in CHANGES.md which reports changed and why.
"""

import json
import pathlib
import re

import pytest

from crown import lemma24_probe, verify_boundary
from crown.cli import build_parser, run

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

CASES = {
    "decompose_sl3_real": ["decompose", "--group", "sl:3", "--entries", "1,1,0,1,2,1,0,1,2"],
    "decompose_sp2_real": ["decompose", "--group", "sp:2",
                           "--entries", "2,1,-1,1,1,1,0,0,0,0,2,-1,0,0,-1,1"],
    "decompose_sl3_x": ["decompose", "--group", "sl:3", "--entries", "1,1,0,1,2,1,0,1,2",
                        "--x", "0.2,0.1,-0.3"],
    "decompose_sp2_x": ["decompose", "--group", "sp:2",
                        "--entries", "2,1,-1,1,1,1,0,0,0,0,2,-1,0,0,-1,1", "--x", "0.2,-0.1"],
    "hull_sl3": ["hull", "--group", "sl:3", "--x", "0.3,0,-0.3", "--y", "0.1,0.1,-0.2"],
    "hull_sp2": ["hull", "--group", "sp:2", "--x", "0.5,0.2", "--y", "0.6,0.0"],
    "convexity_sl3_k": ["verify-convexity", "--group", "sl:3", "--samples", "1100",
                        "--seed", "7", "--mode", "k"],
    "convexity_sp2_full_g": ["verify-convexity", "--group", "sp:2", "--samples", "300",
                             "--seed", "7", "--mode", "full-g"],
    "kostant_sl3": ["verify-kostant", "--group", "sl:3", "--samples", "600", "--seed", "13"],
    "kostant_sp2": ["verify-kostant", "--group", "sp:2", "--samples", "300", "--seed", "13"],
    "gradient_check_sp2": ["gradient-check", "--group", "sp:2", "--configs", "10",
                           "--seed", "3"],
    "critical_points_sl3": ["critical-points", "--group", "sl:3", "--runs", "3",
                            "--seed", "5"],
    "tubes_sl3": ["tubes", "--group", "sl:3", "--z-count", "30", "--k-count", "20",
                  "--seed", "21"],
    "image_sl3": ["image", "--group", "sl:3", "--samples", "300", "--seed", "22"],
    "lemma24_sl3": ["lemma24", "--group", "sl:3", "--samples", "200", "--seed", "2"],
    "lemma24_sp2": ["lemma24", "--group", "sp:2", "--samples", "200", "--seed", "2"],
    "boundary_sl3": ["boundary", "--group", "sl:3", "--seed", "3"],
    "siegel_n3": ["siegel", "--n", "3", "--samples", "300", "--seed", "31"],
    "siegel_cross_check_sp2": ["siegel", "--n", "2", "--samples", "100", "--seed", "31",
                               "--cross-check"],
    "tubes_sl3_ball": ["tubes", "--group", "sl:3", "--omega", "ball:0.5", "--z-count", "30",
                       "--k-count", "20", "--seed", "21"],
    "tubes_sp2_ball": ["tubes", "--group", "sp:2", "--omega", "ball:0.6", "--z-count", "30",
                       "--k-count", "20", "--seed", "21"],
    "image_sp2_ball": ["image", "--group", "sp:2", "--omega", "ball:0.5", "--samples", "300",
                       "--seed", "22"],
    "boundary_sl3_ball": ["boundary", "--group", "sl:3", "--omega", "ball:0.5", "--seed", "3"],
    "boundary_sp2_ball": ["boundary", "--group", "sp:2", "--omega", "ball:0.5", "--seed", "3"],
    "convexity_sl3_ball": ["verify-convexity", "--group", "sl:3", "--omega", "ball:0.7",
                           "--samples", "600", "--seed", "7", "--mode", "k"],
}


def render(argv) -> str:
    _, text, _ = run(argv)
    return re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": 0', text)


@pytest.mark.parametrize("name", list(CASES))
def test_report_matches_golden(name):
    assert render(CASES[name]) == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize("name", ["boundary_sl3", "boundary_sl3_ball", "boundary_sp2_ball",
                                  "lemma24_sl3", "lemma24_sp2"])
def test_library_call_matches_golden(name):
    # the command is one library call: called directly, it gives the golden report
    args = build_parser().parse_args(CASES[name])
    if args.command == "boundary":
        report = verify_boundary(args.group, args.omega, args.steps, args.seed)
    else:
        report = lemma24_probe(args.group, args.samples, args.seed)
    assert report.to_json() == (GOLDEN / f"{name}.json").read_text()


def _tolerance_sets():
    return {name: json.loads((GOLDEN / f"{name}.json").read_text())["tolerance_set"]
            for name in CASES}


def test_tolerance_sets_name_only_applied_tolerances():
    # nothing compares against a reconstruction tolerance, and only the commands that
    # call ctx.in_group apply GROUP_TOL
    sets = _tolerance_sets()
    assert not any("reconstruction_rtol" in tols for tols in sets.values())
    applies_group_tol = ("decompose_", "gradient_check_", "critical_points_")
    for name, tols in sets.items():
        assert ("group_tol" in tols) == name.startswith(applies_group_tol), name


def _tracks(argv):
    # track_batch applies the tracking rule and the pivot floor; verify-kostant and
    # decompose without --x project real points, and siegel applies the floor alone
    tracking = {"verify-convexity", "tubes", "image", "lemma24", "gradient-check",
                "critical-points", "boundary"}
    return (argv[0] in tracking or (argv[0] == "decompose" and "--x" in argv)
            or "--cross-check" in argv)


def test_tracking_tolerances_appear_exactly_where_a_branch_is_tracked():
    for name, tols in _tolerance_sets().items():
        argv = CASES[name]
        for key in ("arg_step_cap", "grid_steps", "max_segments"):
            assert (key in tols) == _tracks(argv), (name, key)
        assert ("pivot_floor" in tols) == (_tracks(argv) or argv[0] == "siegel"), name


def test_tracking_statistics_appear_only_where_a_branch_is_tracked():
    for name, argv in CASES.items():
        extras = json.loads((GOLDEN / f"{name}.json").read_text())["extras"]
        for key in ("max_arg_step", "path_steps"):
            assert key not in extras or _tracks(argv), (name, key)
