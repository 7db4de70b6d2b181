"""The CLI's two parsers agree: on every command line that the table parser
reads, it builds the namespace that argparse builds, and every other one it
leaves to argparse."""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from altsign.cli import (COMMANDS, FLAGS, _parser_flags,  # noqa: E402
                         _parse_int_list, _table_args, build_parser)
from test_cli import EVERY_ROW  # noqa: E402


def _argparse_fields(argv):
    """vars() of build_parser().parse_args(argv), or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit:
            return None


def _read_alike(argv):
    """Whether the table parser reads argv; where it does, its namespace is
    argparse's."""
    args = _table_args(argv)
    if args is not None:
        assert vars(args) == _argparse_fields(argv), argv
    return args is not None


CHOICES = sorted({choice for _, positional, table, _, _ in COMMANDS.values()
                  if positional for choice in table})
# tokens that are no command, choice or flag of the tables, or that argparse
# reads otherwise: help, a short flag, a prefix, the end of the flags
STRAY = ("", "-h", "--help", "-x", "-n", "--l-m", "--nn", "--", "-", "bogus")
# values that argparse reads as a value, as a flag, or that a type refuses
VALUES = ("0", "2", "-1", "-12", "-1.5", "-.5", "-1.", "-", "--", "-x",
          "-1,0,2", "-1 2", "- 1", "-1\n", "", "1,2", "0,,1", "1,x", " 2",
          "٣", "-٣", "1_0", "text", "json", "xml", "sheet.svg")


def _good_values(flag):
    """Values that the flag's type and choices take."""
    options = FLAGS[flag][0]
    if "choices" in options:
        return st.sampled_from(options["choices"])
    if options.get("type") is int:
        return st.integers(-3, 5).map(str)
    if options.get("type") is _parse_int_list:
        return st.lists(st.integers(-3, 3), max_size=3).map(
            lambda xs: ",".join(map(str, xs)))
    return st.sampled_from(("sheet.svg", "out dir/sheet.svg"))


def _mostly(usual, rare):
    """usual four times in five, else rare."""
    return st.integers(0, 4).flatmap(lambda i: rare if i == 0 else usual)


@st.composite
def argvs(draw):
    """Mostly well-formed command lines, with a few tokens out of place:
    another command, choice or flag, a value that argparse reads as a flag
    or that the flag's type refuses, a repeated flag, the = form, help."""
    command = draw(_mostly(st.sampled_from(sorted(COMMANDS)),
                           st.sampled_from(STRAY)))
    argv = [command]
    if command not in COMMANDS:
        own_flags = sorted(FLAGS)
    else:
        _, positional, table, _, _ = COMMANDS[command]
        own_flags = list(_parser_flags(command))
        if positional:
            argv += draw(_mostly(st.sampled_from(sorted(table)).map(
                lambda c: [c]), st.sampled_from(([], CHOICES[:1], ["-h"],
                                                 own_flags[:1]))))
    for _ in range(draw(st.integers(0, 4))):
        flag = draw(_mostly(st.sampled_from(own_flags),
                            st.sampled_from(sorted(FLAGS) + list(STRAY))))
        value = draw(_mostly(
            _good_values(flag) if flag in FLAGS else st.sampled_from(VALUES),
            st.sampled_from(VALUES) | st.text(max_size=3)))
        if draw(st.integers(0, 9)) == 0:
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    if draw(st.integers(0, 4)) == 0:
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(STRAY + VALUES + tuple(CHOICES))))
    return argv


@settings(max_examples=600, deadline=None)
@given(argvs())
# a value that argparse reads as a flag: a table parser that took -x for
# --out's value would build a namespace where argparse exits
@example(["svg", "paths", "--n", "1", "--l", "2", "--out", "-x"])
@example(["svg", "paths", "--n", "1", "--l", "2", "--out", "-1 2"])
@example(["gf", "det", "--n", "-1", "--l", "-.5"])
@example(["gf", "det", "--n", "2", "--l", "3", "--n", "2"])
@example(["enumerate", "sttree", "--n", "1", "--b", "-1,0"])
@example(["enumerate", "sttree", "--n", "1", "--b", ""])
@example(["tpoly", "--n", "٣", "--format", "json"])
@example(["verify", "main", "--n-max", "1", "-h"])
@example([])
def test_the_table_parser_reads_what_argparse_reads(argv):
    _read_alike(argv)


def test_the_table_parser_reads_every_row_and_every_benchmark_op():
    # so every op of the benchmark decks runs without argparse
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_altsign_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    decks = {argv for deck in workloads.WORKLOADS.values() for argv in deck}
    rows = [[a.format(out="sheet.svg") for a in argv] for argv in EVERY_ROW]
    assert all(_read_alike(list(argv)) for argv in sorted(decks))
    # the README's --b=-1,0,2 is argparse's to read
    assert [argv for argv in rows if not _read_alike(argv)] == \
        [["enumerate", "sttree", "--n", "3", "--s", "1", "--t", "0,1",
          "--b=-1,0,2"]]
