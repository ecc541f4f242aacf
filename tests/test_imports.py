"""Module boundaries and surface: no private cross-module imports, no unused
imports, and no exception class that nothing raises."""

import ast
import pathlib

import crown

SRC = pathlib.Path(crown.__file__).resolve().parent
# bench/tracer.py wraps crown.siegel.draw_omega_point by name; siegel never calls it
UNUSED_IMPORT_ALLOWLIST = {"siegel.draw_omega_point"}


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


def test_every_error_class_is_raised():
    tree = ast.parse((SRC / "errors.py").read_text())
    declared = {n.name for n in tree.body if isinstance(n, ast.ClassDef)} - {"CrownError"}
    raised = set()
    for _, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert declared - raised == set()
