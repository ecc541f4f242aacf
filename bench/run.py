"""Closed-loop benchmark of the crown verifiers.

    python3 bench/run.py --workload sweep|tubes|ascent|siegel
                         [--seed N] [--seconds S] [--trace 0|1]

One caller makes the workload's verifier calls back to back, with
CROWN_THREADS unset and one BLAS thread, and imports crown from the src/ tree
next to this directory.  Every pass is checked: the acceptance predicates of
each report, and the timing-stripped report JSON against the first pass.

--trace 0 makes one untimed warm-up pass, then times whole passes for
--seconds.  After each call it runs a fixed reference task that does not use
crown, for about a fifth of the call's time.  It reports the end-to-end
metrics: ref_wall_s and ref_samples_per_s (pass time and throughput rescaled
to the host speed of the reference machine by the reference task's time),
setup_s and peak_rss_mb.
--trace 1 makes a warm-up pass, then three rounds of an untraced pass, a
traced pass and an untraced pass with CROWN_THREADS=2.  It reports the
per-layer metrics of the first traced pass, the tracing overhead and the
two-thread speedup.  The last line of stdout is one JSON object; the exit
code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# listed here because arguments are parsed before crown can be imported
WORKLOAD_NAMES = ("sweep", "tubes", "ascent", "siegel")
MAX_SEED = 2 ** 48
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
TRACE_ROUNDS = 3
# mean time of reference_task() on the machine of the baseline (bench/README.md)
REFERENCE_TASK_S = 0.085
# reference-task time after each call, as a share of the call's time
REFERENCE_SHARE = 0.2
# BLAS worker threads spin on the small matrices of these workloads and take
# the second core of a small machine; one caller means one BLAS thread
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}

# run in a fresh interpreter: import crown and build the workload's groups
SETUP_SCRIPT = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from crown.groups import Family, GroupSpec, build_group
for label in sys.argv[2:]:
    family, _, n = label.partition(":")
    build_group(GroupSpec(Family(family), int(n)))
print(time.perf_counter() - start)
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 gives the acceptance seeds")
    parser.add_argument("--seconds", type=int, default=27,
                        help="time spent on timed passes (--trace 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not 0 <= args.seed < MAX_SEED:
        parser.error(f"--seed must lie in [0, {MAX_SEED})")
    return args


def _env_without_threads():
    env = dict(os.environ)
    env.pop("CROWN_THREADS", None)
    return env


def reference_task() -> float:
    """Seconds for a fixed task in the library's style that does not use crown.

    A Python loop over small numpy factorizations, then a pure-Python loop.
    The speed of a shared host drifts by a third within minutes; the task
    slows with it, so pass time over task time measured next to it does not.
    """
    import numpy as np
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    for _ in range(2_500):
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        float((q @ r).sum())
    total, table = 0, {}
    for i in range(150_000):
        total += i * i % 7
        table[i & 255] = total
    return time.perf_counter() - start


def measure_setup(groups) -> float:
    """Seconds to import crown and build the groups, in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_SCRIPT, str(SRC), *groups],
        cwd=ROOT, env=_env_without_threads(), capture_output=True, text=True,
        timeout=SETUP_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


class Gate:
    """Correctness of every pass: acceptance predicates and byte-identical reports."""

    def __init__(self, workload):
        self.workload = workload
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, result, tag: str):
        if self.reference is None:
            self.reference = result.texts
        for call, rep, text, ref in zip(self.workload.calls, result.reports,
                                        result.texts, self.reference):
            failed, messages = call.judge(rep)
            if text != ref:
                failed += 1
                messages.append("timing-stripped report differs from the first pass")
            self.attempted += rep.samples_requested
            self.failed += failed
            self.messages += [f"{tag}: {call.label}: {m}" for m in messages]


class Reference:
    """Reference-task time, taken after each call of a pass."""

    def __init__(self):
        self.seconds = 0.0
        self.tasks = 0

    def after_call(self, call_s: float):
        for _ in range(max(1, round(REFERENCE_SHARE * call_s / REFERENCE_TASK_S))):
            self.seconds += reference_task()
            self.tasks += 1

    @property
    def mean_s(self) -> float:
        return self.seconds / self.tasks


def timed_run(workload, ctxs, seed, seconds, gate, log):
    """A warm-up pass, then whole passes until the next one would end after --seconds.

    The rescaled pass time is the mean pass time times REFERENCE_TASK_S over
    the mean reference-task time, both over all timed passes.
    """
    from workloads import run_pass
    setups = [measure_setup(workload.groups) for _ in range(SETUP_REPEATS)]
    warm = run_pass(workload, ctxs, seed, Reference().after_call)
    gate.check(warm, "warm-up pass")
    log(f"warm-up pass: {warm.wall_s:.4f} s")
    passes, reference = [], Reference()
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        result = run_pass(workload, ctxs, seed, reference.after_call)
        gate.check(result, f"pass {len(passes) + 1}")
        passes.append(result)
        log(f"pass {len(passes)}: {result.wall_s:.4f} s")
        now = time.perf_counter()
        if now + (now - start) > deadline:
            break
    for i, call in enumerate(workload.calls):
        log(f"  {call.label}: median {statistics.median(p.call_s[i] for p in passes):.4f} s")
    wall = statistics.fmean(p.wall_s for p in passes)
    ref_wall = wall * REFERENCE_TASK_S / reference.mean_s
    samples = passes[0].samples
    log(f"mean of {len(passes)} passes of {samples} samples: {wall:.4f} s as measured "
        f"({samples / wall:.6g} samples/s); mean of {reference.tasks} reference tasks "
        f"{reference.mean_s:.4f} s, {REFERENCE_TASK_S} s on the reference machine")
    log(f"setup_s is the median of {len(setups)} fresh interpreters")
    return {
        "ref_wall_s": (ref_wall, "s"),
        "ref_samples_per_s": (samples / ref_wall, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def traced_run(workload, ctxs, seed, gate, log):
    """A warm-up pass, then rounds of untraced, traced and two-thread passes.

    The per-layer metrics come from the first traced pass; the tracing
    overhead and the two-thread speedup compare medians over the rounds.
    The untraced pass time and the reference task time are reported as measured.
    """
    from tracer import Tracer
    from workloads import run_pass
    gate.check(run_pass(workload, ctxs, seed), "warm-up pass")
    plain, traced, two, tracers, tasks = [], [], [], [], []
    for _ in range(TRACE_ROUNDS):
        plain.append(run_pass(workload, ctxs, seed))
        tasks.append(reference_task())
        gate.check(plain[-1], "untraced pass")
        tracers.append(Tracer())
        with tracers[-1].installed():
            traced.append(run_pass(workload, ctxs, seed))
        gate.check(traced[-1], "traced pass")
        os.environ["CROWN_THREADS"] = "2"
        try:
            two.append(run_pass(workload, ctxs, seed))
        finally:
            os.environ.pop("CROWN_THREADS")
        gate.check(two[-1], "2-thread pass")
    plain_s, traced_s, two_s = (statistics.median(p.wall_s for p in ps)
                                for ps in (plain, traced, two))
    tracer = tracers[0]
    log(f"medians of {TRACE_ROUNDS} rounds: untraced {plain_s:.4f} s, traced {traced_s:.4f} s, "
        f"2 threads {two_s:.4f} s; {len(tracer.spans)} spans per traced pass")
    log(f"{'span':<28}{'calls':>10}{'total_s':>12}{'self_s':>12}{'self %':>8}")
    table = tracer.layer_table()
    for name, (calls, total, own) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        log(f"{name:<28}{calls:>10}{total:>12.4f}{own:>12.4f}"
            f"{100.0 * own / traced[0].wall_s:>8.1f}")
    metrics = tracer.metrics(traced[0].samples)
    metrics["pass.wall_s"] = (plain_s, "s")
    metrics["host.reference_task_s"] = (statistics.median(tasks), "s")
    metrics["parallel.speedup_2t"] = (plain_s / two_s, "ratio")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    metrics["fail_frac"] = (gate.failed / gate.attempted, "ratio")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("CROWN_THREADS", None)
    os.environ.update(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    try:
        import crown
    except ImportError as exc:
        print(f"bench: cannot import crown from {SRC}: {exc}", file=sys.stderr)
        return 2
    if pathlib.Path(crown.__file__).resolve().parent != SRC / "crown":
        print(f"bench: crown was imported from {crown.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    ctxs = workload.build_groups()

    def log(line):
        print(line, flush=True)

    log(f"workload {workload.name}, seed {args.seed}, one caller, CROWN_THREADS unset, "
        "one BLAS thread")
    for call in workload.calls:
        log(f"  {call.label} seed={call.seed_for(args.seed)}")
    gate = Gate(workload)
    if args.trace:
        metrics = traced_run(workload, ctxs, args.seed, gate, log)
    else:
        metrics = timed_run(workload, ctxs, args.seed, args.seconds, gate, log)
    for message in gate.messages:
        log(f"FAIL {message}")
    log(f"fail_frac {gate.failed / gate.attempted:.6g} "
        f"({gate.failed} failed of {gate.attempted} attempted)")
    for name, (value, unit) in metrics.items():
        log(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
