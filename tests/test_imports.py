"""Module boundaries and surface: no private cross-module imports, no unused
imports, no exception class that nothing raises, one exception class per exit
code, no scipy at import time, no OS entropy read by a seeded command, and
every library name the benchmark tracer wraps still defined."""

import ast
import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import numpy.random.bit_generator

import crown
from crown.weyl import FULL_OMEGA

SRC = pathlib.Path(crown.__file__).resolve().parent
# bench/tracer.py wraps crown.siegel.draw_omega_point and crown.convexity.k_project by
# name; siegel never calls the one and convexity never calls the other
UNUSED_IMPORT_ALLOWLIST = {"convexity.k_project", "siegel.draw_omega_point"}


def _modules():
    for path in sorted(SRC.glob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def test_no_private_cross_module_imports():
    found = []
    for path, tree in _modules():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("crown"):
                continue
            found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
    assert found == []


def test_no_unused_module_level_imports():
    unused = set()
    for path, tree in _modules():
        if path.stem == "__init__":
            continue
        bound = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound.update({(a.asname or a.name.split(".")[0]): node.lineno for a in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update({(a.asname or a.name): node.lineno for a in node.names})
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused |= {f"{path.stem}.{name}" for name in bound if name not in read}
    assert unused == UNUSED_IMPORT_ALLOWLIST


def _raised():
    """(module, line, raised expression) of every raise with an exception under src/crown."""
    for path, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                yield path.name, node.lineno, ast.unparse(exc)


def test_every_error_class_is_raised():
    tree = ast.parse((SRC / "errors.py").read_text())
    declared = {n.name for n in tree.body if isinstance(n, ast.ClassDef)}
    assert declared - {name for _, _, name in _raised()} == set()


def test_every_raise_follows_the_exit_code_convention():
    # invalid input raises ValueError (exit 64), a breakdown NumericalBreakdown (exit 70),
    # and the argument parsers ArgumentTypeError, which argparse turns into a usage error
    allowed = {"ValueError", "NumericalBreakdown", "argparse.ArgumentTypeError"}
    assert [r for r in _raised() if r[2] not in allowed] == []


def _import_time_nodes(tree):
    """Every node that runs when the module is imported: all but function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def test_no_module_level_scipy_import():
    # scipy.linalg alone takes about 0.2 s to import; the commands that need it load it
    found = []
    for path, tree in _modules():
        for node in _import_time_nodes(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []


def _python(script):
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=300, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_crown_leaves_scipy_unloaded():
    assert _python("import sys, crown; print('scipy' in sys.modules)") == "False\n"


def test_import_crown_leaves_numpy_random_unloaded():
    # numpy.random takes 10-15 ms to import; the first substream loads it
    assert _python("import sys, crown; print('numpy.random' in sys.modules)") == "False\n"


BLOCKED_SCIPY_RUN = """
import json, sys
sys.modules["scipy"] = None
import crown, crown.cli
from crown import (Family, GroupSpec, OmegaSpec, build_group, critical_point_scan,
                   verify_boundary, verify_complex_convexity, verify_image, verify_siegel,
                   verify_tube_intersection)
from crown.weyl import FULL_OMEGA
ctxs = {label: build_group(GroupSpec(Family(label[:2]), int(label[3:])))
        for label in ["sl:2", "sl:3", "sl:4", "sp:2", "sp:3"]}
reports = [verify_complex_convexity(ctxs["sl:3"], FULL_OMEGA, 40, seed=1),
           verify_complex_convexity(ctxs["sp:2"], FULL_OMEGA, 40, seed=1, mode="full-g"),
           verify_image(ctxs["sl:3"], FULL_OMEGA, 40, seed=2),
           verify_tube_intersection(ctxs["sp:2"], FULL_OMEGA, 8, 5, seed=3),
           verify_siegel(3, 40, seed=4),
           critical_point_scan(ctxs["sl:3"], 3, seed=5),
           verify_boundary(ctxs["sp:2"], OmegaSpec("scale", scale=0.8), 12, seed=3)]
print(json.dumps([[r.samples_requested, r.samples_completed, r.violations] for r in reports]))
"""


def test_crown_runs_with_scipy_blocked():
    runs = json.loads(_python(BLOCKED_SCIPY_RUN))
    assert len(runs) == 7
    assert all(completed == requested > 0 and violations == 0
               for requested, completed, violations in runs)


def test_sampling_commands_read_no_os_entropy(monkeypatch):
    # a substream hands Philox its key alone, so no seed sequence draws OS entropy
    def refuse(bits):
        raise AssertionError(f"{bits} bits of OS entropy requested")

    monkeypatch.setattr(numpy.random.bit_generator, "randbits", refuse)
    sl3 = crown.build_group(crown.GroupSpec(crown.Family("sl"), 3))
    sp2 = crown.build_group(crown.GroupSpec(crown.Family("sp"), 2))
    reports = [crown.verify_complex_convexity(sl3, FULL_OMEGA, 8, seed=1),
               crown.verify_complex_convexity(sp2, FULL_OMEGA, 8, seed=1, mode="full-g"),
               crown.verify_kostant_real(sp2, 8, seed=2),
               crown.verify_image(sl3, FULL_OMEGA, 8, seed=3),
               crown.verify_tube_intersection(sl3, FULL_OMEGA, 4, 3, seed=4),
               crown.critical_point_scan(sl3, 2, seed=5),
               crown.gradient_check(sp2, 2, seed=6),
               crown.verify_siegel(3, 8, seed=7),
               crown.cross_check_crown(sp2, 4, seed=8)]
    assert all(rep.samples_requested > 0 and rep.violations == 0 for rep in reports)


def _tracer_tables():
    """SPANS and COUNTERS of bench/tracer.py, loaded from its file."""
    path = SRC.parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("crown_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {**tracer.SPANS, **tracer.COUNTERS}


def test_every_traced_library_name_exists():
    # the tracer swaps wrappers in by owner.__dict__[name]; a name a refactor drops
    # fails here, not only in the benchmark's own tests
    missing = []
    for paths in _tracer_tables().values():
        for path in paths:
            if not path.startswith("crown."):
                continue
            # crown.<module>.<name> or crown.<module>.<Class>.<name>
            parts = path.split(".")
            owner = importlib.import_module(".".join(parts[:2]))
            for name in parts[2:-1]:
                owner = getattr(owner, name)
            if parts[-1] not in owner.__dict__:
                missing.append(path)
    assert missing == []
