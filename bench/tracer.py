"""Outside-in layer trace: wrappers on the module attributes the verifiers resolve.

Every wrapper is installed on the attribute its caller looks up at call time
(``crown.convexity.track_batch``, ``crown.weyl.omega_margin``, ...), so no file
of the library changes.  Span wrappers record (name, start, end, parent) in
memory; counter wrappers only count.  A span's self time is its duration minus
the durations of its child spans.  Only one thread may run while a tracer is
installed.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import statistics
import time

import numpy as np

_VERIFIERS = ("crown.convexity", "crown.domains", "crown.siegel")

# span name -> attributes wrapped, as "module.attribute" or "module.Class.method"
SPANS = {
    "rng.substream": [f"{m}.substream" for m in _VERIFIERS],
    "sampling.group_element": [f"{m}.sample_group_element" for m in _VERIFIERS]
    + ["crown.convexity.haar_k", "crown.domains.haar_k"],
    "sampling.k_project": ["crown.convexity.k_project"],
    "weyl.draw": [f"{m}.draw_omega_point" for m in _VERIFIERS],
    "weyl.margin": ["crown.convexity.omega_margin", "crown.domains.omega_margin",
                    "crown.iwasawa.omega_margin"],
    "weyl.hull": ["crown.convexity.hull_margins_batch"],
    "iwasawa.track": [f"{m}.track_batch" for m in _VERIFIERS],
    "iwasawa.project": ["crown.convexity.project_complex"],
    "iwasawa.elim": ["crown.iwasawa._ldl"],
    "iwasawa.recon": ["crown.convexity.batch_reconstruction_residual"],
    "convexity.ascent": ["crown.convexity.ascend_critical"],
    "convexity.expm": ["scipy.linalg.expm"],
    "domains.sample_xi": ["crown.domains.sample_xi"],
    "siegel.draw": ["crown.siegel._draw_siegel"],
    "siegel.minors": ["crown.siegel.minor_ratios", "crown.siegel.normalized_minors"],
    "siegel.fractional_action": ["crown.siegel.fractional_action"],
    "parallel.map": ["crown.convexity.map_chunks", "crown.domains.map_chunks"],
    "report.fold": ["crown.convexity._fold_report", "crown.domains._fold"],
    "report.serialize": ["crown.report.VerificationReport.to_json"],
}

# counter name -> attributes counted without a span; their time stays with the caller
COUNTERS = {
    # draw_omega_point is the only caller of omega_margin inside crown.weyl
    "weyl.draw.attempts": ["crown.weyl.omega_margin"],
    # only the scalar tracks made while a track_batch span is open count
    "iwasawa.fallback.calls": ["crown.iwasawa._track"],
    "convexity.f_evals": ["crown.convexity.f_a_lambda"],
    "convexity.grad_evals": ["crown.convexity.grad_f"],
}

COUNT_SUFFIXES = (".calls", ".rows", ".attempts", ".matrices", ".iterations",
                  ".f_evals", ".grad_evals", ".chunks")


def is_count(name: str) -> bool:
    """Metrics that count work; they must repeat exactly between runs."""
    return name.endswith(COUNT_SUFFIXES)


def _resolve(path: str):
    """(owner, attribute) for a dotted path whose head is an importable module."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name)
        return owner, parts[-1]
    raise ValueError(f"cannot resolve {path!r}")


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self):
        self.spans = []           # [name, start, end, parent index]
        self.counts = collections.Counter()
        self._open = []           # indices of open spans, innermost last

    def _span(self, name, fn):
        spans, opened, clock = self.spans, self._open, time.perf_counter
        tally = self._tallies.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, opened[-1] if opened else -1]
            opened.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                opened.pop()
            if tally is not None:
                tally(args, result)
            return result
        return wrapper

    def _counter(self, name, fn):
        counts, opened, spans = self.counts, self._open, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name != "iwasawa.fallback.calls" \
                    or opened and spans[opened[-1]][0] == "iwasawa.track":
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    @property
    def _tallies(self):
        """Work counts taken from a span's arguments or result."""
        counts = self.counts

        def rows(args, _):
            counts["iwasawa.track.rows"] += int(np.shape(args[1])[0])

        def matrices(args, _):
            counts["iwasawa.elim.matrices"] += int(np.prod(np.shape(args[0])[:-2]))

        def iterations(_, run):
            counts["convexity.ascent.iterations"] += run.iterations

        def chunks(args, _):
            counts["parallel.chunks"] += len(args[1])

        return {"iwasawa.track": rows, "iwasawa.elim": matrices,
                "convexity.ascent": iterations, "parallel.map": chunks}

    @contextlib.contextmanager
    def installed(self):
        """Swap every wrapper in; restore the original attributes on exit."""
        saved = []
        try:
            for table, make in ((SPANS, self._span), (COUNTERS, self._counter)):
                for name, paths in table.items():
                    for path in paths:
                        owner, attr = _resolve(path)
                        original = owner.__dict__[attr]
                        saved.append((owner, attr, original))
                        setattr(owner, attr, make(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_table(self):
        """name -> (calls, total_s, self_s) over the recorded spans."""
        calls = collections.Counter()
        total = collections.defaultdict(float)
        own = collections.defaultdict(float)
        for name, start, end, parent in self.spans:
            dur = end - start
            calls[name] += 1
            total[name] += dur
            own[name] += dur
            if parent >= 0:
                own[self.spans[parent][0]] -= dur
        return {name: (calls[name], total[name], own[name]) for name in calls}

    def metrics(self, samples: int) -> dict:
        """The per-layer metrics of the pass; layers never entered read 0."""
        table = collections.defaultdict(lambda: (0, 0.0, 0.0), self.layer_table())
        counts = self.counts

        def calls(name):
            return table[name][0]

        def own(name):
            return table[name][2]

        ascent_ms = [1000.0 * (end - start) for name, start, end, _ in self.spans
                     if name == "convexity.ascent"]
        p50 = statistics.median(ascent_ms) if ascent_ms else 0.0
        p90 = statistics.quantiles(ascent_ms, n=10, method="inclusive")[8] \
            if len(ascent_ms) >= 2 else p50
        attempts = counts["weyl.draw.attempts"]
        return {
            "rng.substream.calls": (calls("rng.substream"), "count"),
            "rng.substream.self_s": (own("rng.substream"), "s"),
            "sampling.group_element.calls": (calls("sampling.group_element"), "count"),
            "sampling.group_element.self_s": (own("sampling.group_element"), "s"),
            "sampling.k_project.self_s": (own("sampling.k_project"), "s"),
            "weyl.draw.calls": (calls("weyl.draw"), "count"),
            "weyl.draw.attempts": (attempts, "count"),
            "weyl.draw.accept_ratio": (calls("weyl.draw") / attempts if attempts else 0.0,
                                       "ratio"),
            "weyl.draw.self_s": (own("weyl.draw"), "s"),
            "weyl.margin.calls": (calls("weyl.margin"), "count"),
            "weyl.margin.self_s": (own("weyl.margin"), "s"),
            "weyl.hull.self_s": (own("weyl.hull"), "s"),
            "iwasawa.track.calls": (calls("iwasawa.track"), "count"),
            "iwasawa.track.rows": (counts["iwasawa.track.rows"], "count"),
            "iwasawa.track.self_s": (own("iwasawa.track"), "s"),
            "iwasawa.fallback.calls": (counts["iwasawa.fallback.calls"], "count"),
            "iwasawa.project.calls": (calls("iwasawa.project"), "count"),
            "iwasawa.project.self_s": (own("iwasawa.project"), "s"),
            "iwasawa.elim.calls": (calls("iwasawa.elim"), "count"),
            "iwasawa.elim.matrices": (counts["iwasawa.elim.matrices"], "count"),
            "iwasawa.elim.per_sample": (calls("iwasawa.elim") / samples, "calls/sample"),
            "iwasawa.elim.self_s": (own("iwasawa.elim"), "s"),
            "iwasawa.recon.self_s": (own("iwasawa.recon"), "s"),
            "convexity.ascent.calls": (calls("convexity.ascent"), "count"),
            "convexity.ascent.p50_ms": (p50, "ms"),
            "convexity.ascent.p90_ms": (p90, "ms"),
            "convexity.ascent.iterations": (counts["convexity.ascent.iterations"], "count"),
            "convexity.f_evals": (counts["convexity.f_evals"], "count"),
            "convexity.grad_evals": (counts["convexity.grad_evals"], "count"),
            "convexity.expm.calls": (calls("convexity.expm"), "count"),
            "convexity.expm.self_s": (own("convexity.expm"), "s"),
            "domains.sample_xi.self_s": (own("domains.sample_xi"), "s"),
            "siegel.draw.self_s": (own("siegel.draw"), "s"),
            "siegel.minors.calls": (calls("siegel.minors"), "count"),
            "siegel.minors.self_s": (own("siegel.minors"), "s"),
            "siegel.fractional_action.self_s": (own("siegel.fractional_action"), "s"),
            "parallel.chunks": (counts["parallel.chunks"], "count"),
            "parallel.glue_self_s": (own("parallel.map"), "s"),
            "report.fold.self_s": (own("report.fold"), "s"),
            "report.serialize.self_s": (own("report.serialize"), "s"),
        }
