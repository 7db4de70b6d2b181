"""The README's CLI commands exit 0, and its flag list is the help's."""

import re
import shlex
from pathlib import Path

import pytest

from altsign.cli import COMMANDS, _row_lines, main

README = Path(__file__).resolve().parents[1] / "README.md"


def cli_lines():
    text = README.read_text()
    block = re.search(r"^## CLI\n+```sh\n(.*?)^```", text, re.S | re.M)
    return [line.split("#")[0].strip()
            for line in block.group(1).splitlines()
            if line.startswith("altsign ")]


def test_block_found():
    assert len(cli_lines()) >= 10


@pytest.mark.parametrize("line", cli_lines())
def test_readme_command_exits_0(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the svg line writes a file here
    assert main(shlex.split(line)[1:]) == 0
    assert capsys.readouterr().out


def test_flag_list_is_the_help_lines():
    block = re.search(r"^Each command reads only.*?^```text\n(.*?)^```",
                      README.read_text(), re.S | re.M)
    assert block.group(1).splitlines() == [
        line for command in COMMANDS for line in _row_lines(command)]
