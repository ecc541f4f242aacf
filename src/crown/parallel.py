"""Chunked sweeps for verification batches.

Sweeps run serially in fixed chunks of CHUNK = 512 samples.  Chunk boundaries
are a fixed function of the sample count and every sample draws from its own
(seed, index) substream, so a chunk's result does not depend on the chunks run
before it.

A verifier's chunk draws its samples, scores them and hands the per-sample
arrays to chunk_part, which returns the chunk's part: indeterminate and
violation counts, the smallest margin over the good rows with the witness
attaining it, and named chunk maxima (max_arg_step too for a tracking sweep).
The witness is converted by report.wire as the part is built, so no part keeps
a view of its chunk.  fold_report folds the parts into one wired report.
"""

from __future__ import annotations

import numpy as np

from .report import VerificationReport, group_wire, wire

CHUNK = 512


def chunk_ranges(total: int):
    return [(lo, min(lo + CHUNK, total)) for lo in range(0, total, CHUNK)]


def map_chunks(fn, ranges):
    """Apply fn to each (lo, hi) range; results are returned in range order."""
    return [fn(lo, hi) for lo, hi in ranges]


def chunk_part(margins, bad, max_steps, violated, witness, **maxima) -> dict:
    """The part of one chunk, from its per-sample arrays.

    Rows flagged bad count as indeterminate and are otherwise ignored: their
    margins read inf, and they never violate, witness or set max_arg_step.
    witness(i) builds the witness dict of chunk row i; it is called once, for
    the first good row reaching the smallest margin, and not at all when no
    row is good.  The keyword maxima are carried to the fold under their names,
    beside max_arg_step unless max_steps is None (a sweep that tracks nothing).
    """
    ok = ~bad
    margins = np.where(ok, margins, np.inf)
    i_min = int(np.argmin(margins))
    found = bool(ok.any())
    if max_steps is not None:
        maxima["max_arg_step"] = np.max(max_steps, where=ok, initial=0.0)
    return {
        "indeterminate": int(bad.sum()),
        "violations": int(np.sum(violated & ok)),
        "min_margin": float(margins[i_min]) if found else np.inf,
        "witness": wire(witness(i_min)) if found else None,
        "maxima": maxima,
    }


def fold_report(parts, *, command, ctx, omega, seed, requested, tolerances,
                extras) -> VerificationReport:
    """One report from the chunk parts of a sweep, folded in chunk order.

    Counts add up; the witness of the first chunk reaching the smallest margin
    wins; each named chunk maximum is folded by max and reported in extras
    under its name, beside the sweep's own extras.
    """
    min_margin = np.inf
    witness = None
    for p in parts:
        if p["min_margin"] < min_margin:
            min_margin = p["min_margin"]
            witness = p["witness"]
    return VerificationReport(
        command=command,
        group=group_wire(ctx),
        omega=omega,
        seed=seed,
        samples_requested=requested,
        samples_indeterminate=sum(p["indeterminate"] for p in parts),
        violations=sum(p["violations"] for p in parts),
        min_margin=None if not np.isfinite(min_margin) else float(min_margin),
        worst_witness=witness,
        tolerance_set=tolerances,
        extras=wire({**{name: max(p["maxima"][name] for p in parts) for name in parts[0]["maxima"]},
                     **extras}),
    )
