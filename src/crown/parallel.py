"""Chunked sweeps for verification batches.

Sweeps run serially in fixed chunks of CHUNK = 512 samples.  Chunk boundaries
are a fixed function of the sample count and every sample draws from its own
(seed, index) substream, so a chunk's result does not depend on the chunks run
before it.
"""

from __future__ import annotations

import time

import numpy as np

from .report import VerificationReport, group_wire

CHUNK = 512


def chunk_ranges(total: int):
    return [(lo, min(lo + CHUNK, total)) for lo in range(0, total, CHUNK)]


def map_chunks(fn, ranges):
    """Apply fn to each (lo, hi) range; results are returned in range order."""
    return [fn(lo, hi) for lo, hi in ranges]


def fold_report(parts, *, command, ctx, omega, seed, requested, tolerances, start,
                extras) -> VerificationReport:
    """One report from the chunk results of a sweep, folded in chunk order.

    Each part carries completed, indeterminate and violations counts, its
    min_margin with the witness attaining it, and its max_arg_step.  The
    witness of the first chunk reaching the smallest margin wins.
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
        omega=omega.as_dict() if omega is not None else None,
        seed=seed,
        samples_requested=requested,
        samples_completed=sum(p["completed"] for p in parts),
        samples_indeterminate=sum(p["indeterminate"] for p in parts),
        violations=sum(p["violations"] for p in parts),
        min_margin=None if not np.isfinite(min_margin) else float(min_margin),
        worst_witness=witness,
        wall_time_ms=int((time.monotonic() - start) * 1000),
        tolerance_set=tolerances,
        extras={"max_arg_step": max(p["max_arg_step"] for p in parts), **extras},
    )
