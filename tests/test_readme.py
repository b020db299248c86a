"""Every example in README.md runs as written."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from bentgroups import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_python_blocks_run(tmp_path, monkeypatch, capsys):
    blocks = _blocks("python")
    assert blocks
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out


def test_cli_lines_exit_zero(tmp_path, monkeypatch, capsys):
    lines = [
        shlex.split(line, comments=True)
        for block in _blocks("sh")
        for line in block.splitlines()
        if line.startswith("bentgroups ")
    ]
    assert len(lines) >= 5
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        assert cli.main(argv[1:]) == 0, (argv, capsys.readouterr().err)
    assert (tmp_path / "f.json").exists() and (tmp_path / "ledger.json").exists()
