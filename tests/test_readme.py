"""The README's Library section runs as written and lists every export."""

import pathlib
import re
import types

import crown

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _library_section():
    text = README.read_text()
    start = text.index("\n## Library\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end != -1 else len(text)]


def test_library_example_runs():
    code = re.search(r"```python\n(.*?)```", _library_section(), re.S).group(1)
    exec(compile(code, f"{README}:Library", "exec"), {"__name__": "readme_example"})


def test_library_section_lists_every_export():
    exports = {name for name in dir(crown) if not name.startswith("_")
               and not isinstance(getattr(crown, name), types.ModuleType)}
    listed = set(re.findall(r"`(\w+)`", _library_section()))
    assert exports - listed == set()
    # the export list itself names nothing that is gone
    bullets = re.search(r"\n- verifiers:.*?\n\n", _library_section(), re.S).group(0)
    assert set(re.findall(r"`(\w+)`", bullets)) - exports == set()
