"""The README's command lines parse, and its Library section runs as written and lists
every export."""

import pathlib
import re
import types

import crown
from crown.cli import build_parser

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_command_line_block_parses():
    text = README.read_text()
    start = text.index("\n## Command line\n")
    block = re.search(r"```\n(.*?)```", text[start:], re.S).group(1)
    block = block.replace("\\\n", " ").replace("[--cross-check]", "--cross-check")
    parser = build_parser()
    shown = set()
    for line in block.splitlines():
        argv = line.split()
        assert argv[0] == "crown"
        shown.add(parser.parse_args(argv[1:]).command)
    # every subcommand of the parser appears in the block
    commands = re.search(r"\{(.*?)\}", parser.format_usage()).group(1).split(",")
    assert shown == set(commands)


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
