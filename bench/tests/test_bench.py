"""Checks of the benchmark itself: exact counts, a transparent tracer, the exit contract.

    python3 -m pytest bench/tests -q

Every workload is traced twice at seed 0, so the module takes about half a
minute.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import crown.convexity  # noqa: E402
import scipy.linalg  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

# per-layer counts each workload must reach; README.md gives the predictions
REACHED = {
    "sweep": ["rng.substream.calls", "sampling.group_element.calls", "weyl.draw.calls",
              "weyl.draw.attempts", "iwasawa.track.rows", "iwasawa.elim.calls",
              "parallel.chunks"],
    "tubes": ["weyl.margin.calls", "iwasawa.track.rows", "iwasawa.elim.matrices",
              "parallel.chunks"],
    "ascent": ["convexity.ascent.calls", "convexity.ascent.iterations",
               "convexity.f_evals", "convexity.grad_evals", "convexity.expm.calls",
               "iwasawa.project.calls", "iwasawa.elim.calls"],
    "siegel": ["siegel.minors.calls", "iwasawa.elim.calls", "iwasawa.track.rows",
               "rng.substream.calls"],
}

_passes = {}


def passes(name):
    """(untraced pass, [(traced pass, metrics), (traced pass, metrics)]) at seed 0."""
    if name not in _passes:
        workload = workloads.WORKLOADS[name]
        ctxs = workload.build_groups()
        plain = workloads.run_pass(workload, ctxs, 0)
        traced = []
        for _ in range(2):
            t = tracer.Tracer()
            with t.installed():
                result = workloads.run_pass(workload, ctxs, 0)
            traced.append((result, t.metrics(result.samples)))
        _passes[name] = (plain, traced)
    return _passes[name]


def counts(metrics):
    return {name: value for name, (value, _) in metrics.items() if tracer.is_count(name)}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_count_metrics_repeat_exactly(name):
    _, ((_, first), (_, second)) = passes(name)
    assert counts(first) == counts(second)
    assert all(first[metric][0] > 0 for metric in REACHED[name])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tracing_leaves_reports_unchanged(name):
    plain, traced = passes(name)
    for result, _ in traced:
        assert result.texts == plain.texts
        for call, rep in zip(workloads.WORKLOADS[name].calls, result.reports):
            assert call.judge(rep) == (0, [])


def test_known_counts_at_default_seeds():
    sweep = passes("sweep")[1][0][1]
    assert sweep["iwasawa.fallback.calls"][0] == 0
    assert sweep["weyl.draw.calls"][0] == 8_000
    assert sweep["weyl.draw.attempts"][0] == 20_381
    assert passes("tubes")[1][0][1]["iwasawa.track.rows"][0] == 20_000
    assert passes("siegel")[1][0][1]["iwasawa.elim.calls"][0] == 7_802


def test_tracer_restores_wrapped_attributes():
    originals = (crown.convexity.track_batch, scipy.linalg.expm,
                 crown.report.VerificationReport.to_json)
    with tracer.Tracer().installed():
        assert crown.convexity.track_batch is not originals[0]
        assert scipy.linalg.expm is not originals[1]
    assert (crown.convexity.track_batch, scipy.linalg.expm,
            crown.report.VerificationReport.to_json) == originals


def test_fallback_counts_only_scalar_tracks_inside_track_batch():
    ctx = workloads.WORKLOADS["tubes"].build_groups()["sl:3"]
    t = tracer.Tracer()
    with t.installed():
        # a one-step grid is too coarse for most samples, so track_batch falls back
        crown.verify_complex_convexity(ctx, workloads.FULL_OMEGA, 20, seed=7, steps_hint=1)
        fallbacks = t.counts["iwasawa.fallback.calls"]
        crown.convexity.f_a(ctx, [0.1j, 0.2j, -0.3j], ctx.a_exp([0.0, 0.0, 0.0]))
    assert fallbacks > 0
    assert t.counts["iwasawa.fallback.calls"] == fallbacks


def test_self_time_subtracts_child_spans():
    t = tracer.Tracer()
    t.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1],
               ["b", 5.0, 6.0, 0]]
    table = t.layer_table()
    assert table["a"] == (1, 10.0, 6.0)
    assert table["b"] == (2, 4.0, 3.0)
    assert table["c"] == (1, 1.0, 1.0)


def test_directory_without_sources_fails_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    done = subprocess.run(
        [sys.executable, *command[1:], "--workload", "tubes", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_command_line_names_every_workload():
    import run
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
