"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

import pytest

from mvcca.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.M | re.S)


def test_library_quickstart(capsys):
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    exec(compile(code, "README.md", "exec"), {})
    assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()] == [
        "linear", "plcca", "ncca",
    ]


def test_command_line_block(tmp_path, monkeypatch):
    (block,) = [body for lang, body in BLOCKS if body.startswith("mvcca synth")]
    monkeypatch.chdir(tmp_path)
    lines = block.splitlines()
    assert len(lines) == 6
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
