"""Verification reports: seeded Monte-Carlo outcomes with stable serialization.

wire is the one converter of library values to report data: the sweep driver
wires witnesses and extras, so a verifier's report holds plain data, and
as_dict wires the rest.  JSON output is key-sorted and CSV output is a flat
two-line summary of the scalar fields.  samples_completed is derived: requested
minus indeterminate.  The library leaves wall_time_ms at 0, so library reports
are byte-identical across reruns; the command line stamps the run's time.
"""

from __future__ import annotations

import dataclasses
import io
import json
import numbers
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .weyl import OmegaSpec


def vector_wire(v) -> list:
    """Vector as a row of [re, im] pairs."""
    v = np.atleast_1d(np.asarray(v))
    return [[float(np.real(x)), float(np.imag(x))] for x in v]


def matrix_wire(m) -> dict:
    """Matrix as row-major [re, im] pairs with explicit shape."""
    m = np.asarray(m)
    return {"rows": m.shape[0], "cols": m.shape[1], "data": vector_wire(m.ravel())}


def group_wire(ctx) -> dict:
    """Report header of a group context: family tag, rank and Killing scale."""
    return {"family": ctx.family.value, "n": ctx.n, "killing_scale": ctx.killing_scale}


def wire(value):
    """Report data of a library value, converted through nested dicts, lists and tuples."""
    if isinstance(value, np.ndarray):
        return vector_wire(value) if value.ndim == 1 else matrix_wire(value)
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {k: wire(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [wire(v) for v in value]
    return value


@dataclasses.dataclass
class VerificationReport:
    command: str
    group: dict | None
    seed: int
    samples_requested: int
    tolerance_set: dict
    omega: OmegaSpec | None = None
    samples_completed: int = dataclasses.field(init=False)
    samples_indeterminate: int = 0
    violations: int = 0
    min_margin: float | None = None
    worst_witness: dict | None = None
    wall_time_ms: int = 0
    extras: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        if not 0 <= self.samples_indeterminate <= self.samples_requested:
            raise ValueError("indeterminate must lie in [0, requested]")
        self.samples_completed = self.samples_requested - self.samples_indeterminate
        if self.violations > self.samples_completed:
            raise ValueError("violations cannot exceed completed samples")

    @property
    def exit_code(self) -> int:
        if self.violations > 0:
            return 2
        if self.samples_indeterminate > 0:
            return 3
        return 0

    def as_dict(self) -> dict:
        return wire(dataclasses.asdict(self))

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        row = {
            "command": self.command,
            "group": "" if self.group is None else f"{self.group['family']}:{self.group['n']}",
            "omega": "" if self.omega is None else self.omega.label,
            "seed": self.seed,
            "samples_requested": self.samples_requested,
            "samples_completed": self.samples_completed,
            "samples_indeterminate": self.samples_indeterminate,
            "violations": self.violations,
            "min_margin": "" if self.min_margin is None else repr(float(self.min_margin)),
            "wall_time_ms": self.wall_time_ms,
        }
        for name in sorted(self.tolerance_set):
            row[f"tol.{name}"] = repr(float(self.tolerance_set[name]))
        for name in sorted(self.extras):
            value = self.extras[name]
            if isinstance(value, numbers.Number):
                row[f"extra.{name}"] = repr(float(value))
        buf = io.StringIO()
        buf.write(",".join(row.keys()) + "\n")
        buf.write(",".join(str(v) for v in row.values()) + "\n")
        return buf.getvalue()

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        raise ValueError(f"unknown report format {fmt!r}")
