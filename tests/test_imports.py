"""Module boundaries: no crown module imports a private name of another."""

import ast
import pathlib

import crown

SRC = pathlib.Path(crown.__file__).resolve().parent


def test_no_private_cross_module_imports():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("crown"):
                continue
            found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
    assert found == []
