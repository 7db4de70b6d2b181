"""The command-line parser gives the outcome that argparse gave on a recorded
corpus of command lines, but for the intended changes, and on any command
line it returns a namespace or exits 0 or 2."""

import contextlib
import io
import json
from collections import Counter
from pathlib import Path

import pytest

from altsign.cli import FLAGS, _read_args
from test_cli import TABLE_ROWS, TINY

# [argv, the namespace that argparse built (func by its name) or the code it
# exited with], recorded with Python 3.11.7 before argparse left the package,
# for 3,622 argvs: those EVERY_ROW and both benchmark decks held then, and
# those the argparse-equivalence test drew (5,000 examples, derandomized)
CORPUS = Path(__file__).parent / "data" / "argv_corpus.json"


def _outcome(argv):
    """The namespace of argv as the corpus holds one, or the exit code."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            fields = vars(_read_args(argv))
        except SystemExit as e:
            return e.code
    return json.loads(json.dumps({**fields, "func": fields["func"].__name__}))


def _change(argv, recorded, outcome):
    """The intended change behind a differing outcome, or None."""
    if {"-h", "--help"} & set(argv) and (recorded, outcome) == (0, 2):
        return "-h after an error"  # argparse read on to the -h
    pairs = [*zip(argv, argv[1:]),
             *(token.split("=", 1) for token in argv if "=" in token)]
    if any(flag in FLAGS and value.startswith("-") for flag, value in pairs):
        return "a value that starts with -"  # argparse read a flag there
    return None


def test_the_parser_gives_argparse_outcomes_but_for_the_intended_changes():
    changes = Counter()
    for argv, recorded in json.loads(CORPUS.read_text()):
        outcome = _outcome(argv)
        if outcome != recorded:
            changes[_change(argv, recorded, outcome)] += 1
    assert changes == {"-h after an error": 19,
                       "a value that starts with -": 12}


pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

# values that a flag's type or choices take or refuse, and tokens out of
# place: help, no flag of the tables, the = form, a word of another row
VALUES = ["0", "2", "-1", "-1.5", "1,2", "-1,0,2", "", "0,,1", "1,x", " 2",
          "٣", "1_0", "text", "json", "xml", "sheet.svg", "-x", "1" * 4301]
STRAY = ["-h", "--help", "--", "-", "--l-m", "--n=2", "--b=-1", "bogus",
         *(word for words, _ in TABLE_ROWS for word in words)]


def _mostly(usual, rare):
    """usual four times in five, else rare."""
    return st.integers(0, 4).flatmap(lambda i: rare if i == 0 else usual)


@st.composite
def argvs(draw):
    """A row's words, then flag and value pairs, mostly of the flags the
    row reads and of values they take, now and then with a stray token."""
    words, reads = draw(st.sampled_from(TABLE_ROWS))
    argv = list(words)
    for flag in draw(st.lists(_mostly(st.sampled_from(reads), st.sampled_from(
            sorted(FLAGS))), max_size=5)):
        argv += [flag, draw(_mostly(st.just(TINY[flag]), st.sampled_from(
            VALUES) | st.text(max_size=3)))]
    if draw(_mostly(st.just(False), st.just(True))):
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(STRAY)))
    return argv


@settings(max_examples=400, deadline=None)
@given(argvs())
def test_the_parser_returns_a_namespace_or_exits_0_or_2(argv):
    outcome = _outcome(argv)
    assert isinstance(outcome, dict) or outcome in (0, 2), argv
