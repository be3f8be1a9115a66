"""The README's library example and CLI block run against the package as documented."""

import re
import shlex
from pathlib import Path

from ocycles.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert "guaranteed" in capsys.readouterr().out


def test_cli_block_runs(tmp_path, monkeypatch, capsys):
    block = re.search(r"^## CLI\n\n```\n(.*?)^```", README.read_text(), re.M | re.S).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert all(argv[0] == "ocycles" for argv in commands) and len(commands) == 7
    monkeypatch.chdir(tmp_path)
    codes = {" ".join(argv[1:]): main(argv[1:]) for argv in commands}
    capsys.readouterr()
    assert codes.pop("oracle --n 4 --k 4 --s 3") == 3  # exhaustive: no cycle
    assert set(codes.values()) == {0}
    header = [line for line in (tmp_path / "cycle.txt").read_text().splitlines() if line[0] == "#"]
    assert "# objects 360" in header and "# length 720" in header
