import itertools
import json
import re
import types

import numpy as np
import pytest

import crown
from crown import cli
from crown.cli import EXIT_BREAKDOWN, EXIT_CANTCREAT, EXIT_USAGE, main, run
from crown.errors import (
    BranchBreakdown,
    NonRealValue,
    NumericalBreakdown,
    PivotBreakdown,
    RejectionStall,
)
from crown.report import VerificationReport, matrix_wire, vector_wire
from crown.weyl import FULL_OMEGA


def _report(**overrides):
    base = dict(
        command="verify-convexity",
        group={"family": "sl", "n": 2},
        omega={"shape": "scale", "scale": 1.0, "radius": None},
        seed=7,
        samples_requested=10,
        samples_indeterminate=1,
        violations=0,
        min_margin=0.25,
        worst_witness=None,
        wall_time_ms=3,
        tolerance_set={"membership_tol": 1e-9},
        extras={"max_arg_step": 0.1},
    )
    base.update(overrides)
    return VerificationReport(**base)


def test_report_invariant_enforced():
    assert _report().samples_completed == 9
    for indeterminate in (-1, 11):
        with pytest.raises(ValueError):
            _report(samples_indeterminate=indeterminate)
    assert _report(violations=9).violations == 9
    with pytest.raises(ValueError):
        _report(violations=10)


def test_report_exit_codes():
    assert _report(samples_indeterminate=0).exit_code == 0
    assert _report(violations=2).exit_code == 2
    assert _report().exit_code == 3


def test_wire_formats():
    v = vector_wire(np.array([1.0, 2.0 - 1.0j]))
    assert v == [[1.0, 0.0], [2.0, -1.0]]
    m = matrix_wire(np.array([[1.0, 1j], [0.0, 2.0]]))
    assert m["rows"] == 2 and m["cols"] == 2
    assert m["data"][1] == [0.0, 1.0]


def test_report_json_roundtrip_and_csv():
    rep = _report()
    parsed = json.loads(rep.to_json())
    assert parsed["violations"] == 0
    assert parsed["tolerance_set"]["membership_tol"] == 1e-9
    csv = rep.to_csv()
    lines = csv.strip().split("\n")
    assert len(lines) == 2
    assert "tol.membership_tol" in lines[0]


def _strip_timing(text):
    return re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": 0', text)


def test_library_reports_are_byte_identical_untouched(sl2, sp2):
    for call in (lambda: crown.verify_complex_convexity(sl2, FULL_OMEGA, 50, seed=4),
                 lambda: crown.gradient_check(sp2, 3, seed=4),
                 lambda: crown.verify_siegel(2, 20, seed=4)):
        first, second = call(), call()
        assert first.wall_time_ms == second.wall_time_ms == 0
        assert first.to_json() == second.to_json()


def test_cli_run_stamps_the_time(monkeypatch):
    # the clock cli reads alternates, so each run reads 0.25 s between its two calls
    readings = itertools.cycle([10.0, 10.25])
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(monotonic=lambda: next(readings)))
    argv = ["hull", "--group", "sl:2", "--x", "0.1,-0.1", "--y", "0,0"]
    _, out, _ = run(argv)
    assert '"wall_time_ms": 250' in out
    _, out, _ = run(argv + ["--format", "csv"])
    header, row = (line.split(",") for line in out.strip().split("\n"))
    assert dict(zip(header, row))["wall_time_ms"] == "250"


def test_cli_determinism_byte_identical():
    argv = ["verify-convexity", "--group", "sl:2", "--omega", "scale:1.0",
            "--samples", "150", "--seed", "7", "--tol", "1e-9", "--format", "json"]
    code1, out1, _ = run(argv)
    code2, out2, _ = run(argv)
    assert code1 == code2 == 0
    assert _strip_timing(out1) == _strip_timing(out2)


def test_cli_hull_example():
    code, out, _ = run(["hull", "--group", "sp:2", "--x", "0.5,0.2", "--y", "0.6,0.0"])
    report = json.loads(out)
    assert report["extras"]["verdict"] == "outside"
    assert abs(report["min_margin"] + 0.1) < 1e-12
    assert code == 0


def test_cli_decompose_real_and_complex():
    code, out, _ = run(["decompose", "--group", "sl:2",
                        "--entries", "1,0,1,1"])
    rep = json.loads(out)
    assert code == 0
    assert rep["extras"]["reconstruction_residual"] < 1e-10
    code, out, _ = run(["decompose", "--group", "sl:2",
                        "--entries", "1,0,1,1", "--x", "0.3,-0.3"])
    rep = json.loads(out)
    assert code == 0
    assert rep["extras"]["path_steps"] >= 1


def test_cli_siegel_fixed_point():
    code, out, _ = run(["siegel", "--n", "2", "--samples", "1", "--seed", "1"])
    rep = json.loads(out)
    assert code == 0
    assert rep["extras"]["min_im_chi"] > 0
    assert rep["extras"]["fixture_min_im_chi"] == 1.0
    assert rep["extras"]["fixture_error"] <= 1e-12


def test_cli_lemma24():
    code, out, _ = run(["lemma24", "--group", "sl:2", "--samples", "50", "--seed", "2"])
    rep = json.loads(out)
    assert code == 0
    assert rep["extras"]["min_im_n"] > 1e-10


def test_cli_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == EXIT_USAGE
    assert main(["hull", "--group", "zz:9", "--x", "1", "--y", "1"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE
    # wrong entry count and a path too short to reach the boundary
    assert main(["decompose", "--group", "sl:2", "--entries", "1,0,1"]) == EXIT_USAGE
    assert main(["boundary", "--group", "sl:2", "--steps", "3"]) == EXIT_USAGE
    # hull vectors whose length is not the rank
    assert main(["hull", "--group", "sl:3", "--x", "0.1,-0.1", "--y", "0,0"]) == EXIT_USAGE
    assert main(["hull", "--group", "sp:3", "--x", "0.3", "--y", "0.9"]) == EXIT_USAGE
    assert "need 3 coordinates" in capsys.readouterr().err
    # negative tolerances
    assert main(["verify-convexity", "--group", "sl:3", "--samples", "5",
                 "--tol", "-1"]) == EXIT_USAGE
    assert main(["hull", "--group", "sl:3", "--x", "0.3,0,-0.3", "--y", "0.1,0.1,-0.2",
                 "--tol", "-1"]) == EXIT_USAGE
    assert main(["tubes", "--group", "sl:3", "--z-count", "2", "--k-count", "2",
                 "--tol", "-1"]) == EXIT_USAGE
    assert main(["critical-points", "--group", "sl:2", "--runs", "1",
                 "--gap-tol", "-1"]) == EXIT_USAGE
    assert main(["hull", "--group", "sl:3", "--x", "0.3,0,-0.3", "--y", "5,5,-10",
                 "--tol", "inf"]) == EXIT_USAGE
    assert "tolerance must be finite and >= 0" in capsys.readouterr().err
    # out-of-range sizes: rank 0, a direction of the wrong length, no samples, no steps
    assert main(["siegel", "--n", "0", "--samples", "3"]) == EXIT_USAGE
    assert "n and samples must be >= 1" in capsys.readouterr().err
    assert main(["decompose", "--group", "sl:3", "--entries", "1,1,0,1,2,1,0,1,2",
                 "--x", "0.1,-0.1"]) == EXIT_USAGE
    assert "--x needs 3 coordinates" in capsys.readouterr().err
    assert main(["lemma24", "--group", "sl:3", "--samples", "0"]) == EXIT_USAGE
    assert "samples must be >= 1" in capsys.readouterr().err
    assert main(["boundary", "--group", "sl:3", "--steps", "0"]) == EXIT_USAGE
    assert "non-empty" in capsys.readouterr().err
    # a negative iteration cap
    assert main(["critical-points", "--group", "sl:2", "--runs", "2",
                 "--max-iter", "-1"]) == EXIT_USAGE
    assert "max_iter must be >= 0" in capsys.readouterr().err
    # non-finite coordinates
    assert main(["hull", "--group", "sl:3", "--x", "nan,0,0", "--y", "0,0,0"]) == EXIT_USAGE
    assert main(["hull", "--group", "sl:3", "--x", "inf,0,-inf", "--y", "0,0,0"]) == EXIT_USAGE
    assert main(["decompose", "--group", "sl:2", "--entries", "1,0,0,1",
                 "--x", "nan,nan"]) == EXIT_USAGE
    assert "coordinates must be finite" in capsys.readouterr().err
    # a NaN ball radius, which fails no ordered comparison
    assert main(["verify-convexity", "--group", "sl:3", "--samples", "3",
                 "--omega", "ball:nan"]) == EXIT_USAGE
    assert main(["boundary", "--group", "sl:3", "--omega", "ball:nan"]) == EXIT_USAGE
    assert "ball shape needs radius > 0" in capsys.readouterr().err


def test_cli_breakdown_exit_code(capsys, monkeypatch):
    # a direction 2.2e-16 inside the polytope: the tracked minor degenerates at t = 1
    assert main(["decompose", "--group", "sl:2", "--entries",
                 "0.7071067811865476,-0.7071067811865476,0.7071067811865476,0.7071067811865476",
                 "--x", "0.7853981633974482,-0.7853981633974482"]) == EXIT_BREAKDOWN
    assert "minor degenerated" in capsys.readouterr().err
    # no point of so small a ball clears the regularity floor
    assert main(["boundary", "--group", "sl:3", "--omega", "ball:1e-5"]) == EXIT_BREAKDOWN
    assert "acceptance rate below" in capsys.readouterr().err
    import crown.weyl as weyl_mod
    monkeypatch.setattr(weyl_mod, "omega_margin", lambda *a: -1.0)
    assert main(["verify-convexity", "--group", "sl:2", "--samples", "1"]) == EXIT_BREAKDOWN
    assert "acceptance rate below" in capsys.readouterr().err


def test_cli_non_real_functional_exits_breakdown(capsys, monkeypatch):
    import crown.convexity as convexity_mod

    def fail(*args):
        raise NonRealValue("functional evaluation is not a finite real number")
    monkeypatch.setattr(convexity_mod, "f_a_lambda", fail)
    assert main(["gradient-check", "--group", "sl:2", "--configs", "1"]) == EXIT_BREAKDOWN
    assert "not a finite real number" in capsys.readouterr().err


def test_cli_singular_solve_exits_breakdown(capsys, monkeypatch):
    # numpy's LinAlgError is a ValueError, which otherwise exits as a usage error
    import crown.convexity as convexity_mod

    def fail(*args):
        raise np.linalg.LinAlgError("Singular matrix")
    monkeypatch.setattr(convexity_mod, "batch_reconstruction_residual", fail)
    assert main(["verify-convexity", "--group", "sl:2", "--samples", "1"]) == EXIT_BREAKDOWN
    assert "Singular matrix" in capsys.readouterr().err


@pytest.mark.parametrize("error", [BranchBreakdown, PivotBreakdown, RejectionStall,
                                   NonRealValue, NumericalBreakdown, np.linalg.LinAlgError])
def test_cli_breakdown_family_exits_70(error, capsys, monkeypatch):
    # the exit code follows the class: every NumericalBreakdown and a singular solve exit 70
    def fail(*args):
        raise error("broke down")
    monkeypatch.setattr(cli, "hull_contains", fail)
    assert main(["hull", "--group", "sl:2", "--x", "0.1,-0.1", "--y", "0,0"]) == EXIT_BREAKDOWN
    assert capsys.readouterr().err == "crown: error: broke down\n"


def test_cli_indeterminate_exit_code(capsys):
    # one-iteration ascents cannot converge; flagged runs exit with code 3
    code = main(["critical-points", "--group", "sl:2", "--runs", "2",
                 "--max-iter", "1", "--seed", "5"])
    assert code == 3


def test_cli_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["hull", "--group", "sl:2", "--x", "0.1,-0.1", "--y", "0,0",
                 "--out", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["extras"]["verdict"] == "inside"
    # a report path that cannot be written exits 73 with a message, not a traceback
    missing = tmp_path / "missing" / "r.json"
    assert main(["hull", "--group", "sl:3", "--x", "0.3,0,-0.3", "--y", "0.1,0.1,-0.2",
                 "--out", str(missing)]) == EXIT_CANTCREAT == 73
    err = capsys.readouterr().err
    assert err.startswith("crown: error: ") and str(missing) in err


def test_cli_csv_format():
    code, out, _ = run(["verify-kostant", "--group", "sl:2", "--samples", "50",
                        "--seed", "3", "--format", "csv"])
    assert code == 0
    header, row = out.strip().split("\n")
    assert header.split(",")[0] == "command"
    assert row.split(",")[0] == "verify-kostant"


def test_cli_boundary_report():
    code, out, _ = run(["boundary", "--group", "sl:2", "--omega", "scale:0.8",
                        "--steps", "12", "--seed", "3"])
    rep = json.loads(out)
    assert code == 0
    assert rep["extras"]["spearman"] > 0.9
    dists = rep["extras"]["output_distances"]
    assert all(b < a for a, b in zip(dists, dists[1:]))
