"""The one check of every verify identity: each row of cli.IDENTITIES runs
through cli.main with the flags of its RUNS rows, and each run must exit 0
and end with the row's k/k line; one library function that each check
calls, made wrong at one task, must give its sweep's one FAIL.  The
acceptance criteria 5-8 and test_cli's TestVerify run their rows from
RUNS, and tests/ci_sizes.py the larger rows of CI_RUNS.  This module
imports no other test module."""

import contextlib
import functools
import io

import pytest

from altsign import cssp, detform, operatorform, sttree
from altsign.cli import IDENTITIES, main

# identity: {flags: the last line its run prints}
RUNS = {
    "main": {("--n-max", "2", "--l-max", "3"): "12/12 checks passed"},
    "truncated": {
        ("--samples", "10", "--seed", "7"): "10/10 checks passed",
        ("--samples", "200", "--seed", "20240815"): "200/200 checks passed"},
    "qast": {("--n-max", "2"): "4/4 checks passed",
             ("--n-max", "4"): "8/8 checks passed"},
    "asymm": {("--n-max", "3"): "84/84 checks passed"},
    "asym": {("--n-max", "2", "--samples", "5", "--seed", "11"):
             "2/2 checks passed",
             ("--n-max", "3", "--samples", "100", "--seed", "2024"):
             "3/3 checks passed"},
    "coeff": {("--n-max", "2", "--l-max", "3"): "4/4 checks passed",
              ("--n-max", "4", "--l-max", "6"): "20/20 checks passed"},
    "bijections": {("--n-max", "2", "--l-max", "3"): "4/4 checks passed",
                   ("--n-max", "4", "--l-max", "5"): "16/16 checks passed"},
}


# identity: {flags: (the last line its run prints, whether its --jobs 2 run
# must print the same bytes)}, the larger runs CI makes (tests/ci_sizes.py);
# main pools one task per (n, l) cell, qast one per n
CI_RUNS = {
    "asymm": {("--n-max", "4"): ("340/340 checks passed", False)},
    "main": {
        ("--n-max", "8", "--l-max", "5", "--jobs", "2"):
        ("120/120 checks passed", False),
        ("--n-max", "6", "--l-max", "5"): ("90/90 checks passed", True)},
    "bijections": {
        ("--n-max", "5", "--l-max", "4"): ("15/15 checks passed", False),
        ("--n-max", "4", "--l-max", "4"): ("12/12 checks passed", True)},
    "coeff": {("--n-max", "10", "--l-max", "6"):
              ("50/50 checks passed", False)},
    "asym": {("--n-max", "5", "--samples", "20"):
             ("5/5 checks passed", False)},
    "truncated": {
        ("--samples", "200", "--seed", "7"): ("200/200 checks passed", False),
        ("--samples", "1000", "--seed", "11"):
        ("1000/1000 checks passed", True)},
    "qast": {("--n-max", "5"): ("10/10 checks passed", True)},
}


def run_row(identity, flags):
    """(exit code, stdout) of `altsign verify <identity> <flags>`, run in
    process through cli.main."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", identity, *flags])
    return code, out.getvalue()


def fails(out):
    """The labels of out's FAIL lines, in order."""
    return [line[5:] for line in out.splitlines() if line.startswith("FAIL ")]


def checks(identity, flags):
    """k, the number of checks of a RUNS row."""
    return int(RUNS[identity][flags].split("/")[0])


def wrong_runs(rows=None):
    """Each (identity, flags) of rows, by default every row of RUNS, whose
    run does not exit 0 or does not end with the row's line."""
    found = []
    for identity, flags in rows or [(i, f) for i in RUNS for f in RUNS[i]]:
        code, out = run_row(identity, flags)
        if (code, out.splitlines()[-1:]) != (0, [RUNS[identity][flags]]):
            found.append((identity, flags))
    return found


# identity: (the flags of a RUNS row; the module and name of a library
# function its check calls; that function made wrong at one task, given the
# real one; the label of that task's FAIL line)
ONE_WRONG_TASK = {
    "main": (("--n-max", "2", "--l-max", "3"), cssp, "gf",
             lambda real, *a: real(*a) + (a == (1, 2, 1)),
             "main (n=2, l=2, d=1)"),
    "truncated": (("--samples", "10", "--seed", "7"), operatorform,
                  "count_sttrees_formula",
                  lambda real, *a: real(*a) + (a == (2, (), (0, 1), (1, 3))),
                  "truncated (n=2, s=(), t=(0, 1), b=(1, 3))"),
    "qast": (("--n-max", "2"), operatorform, "t_value",
             lambda real, *a: real(*a) + (a == (2, 1)), "qast count (n=2)"),
    "asymm": (("--n-max", "3"), operatorform, "eval_Mn",
              lambda real, *a: real(*a) + (a == (2, (1, 3))),
              "asymM (n=2, x=(1, 3))"),
    "asym": (("--n-max", "2", "--samples", "5", "--seed", "11"),
             operatorform, "verify_asym_lemma",
             lambda real, *a: real(*a) and a[0] != 2,
             "asym lemma (n=2, samples=5)"),
    "coeff": (("--n-max", "2", "--l-max", "3"), detform, "gf_det",
              lambda real, *a: real(*a) + (a == (2, 3)), "coeff (n=2, l=3)"),
    "bijections": (("--n-max", "2", "--l-max", "3"), sttree, "preimage",
                   lambda real, *a: None if a[1:] == (2, 3) else real(*a),
                   "bijections (n=2, l=3)"),
}


def test_every_identity_has_runs_and_a_wrong_task():
    assert set(RUNS) == set(CI_RUNS) == set(ONE_WRONG_TASK) == set(IDENTITIES)


def test_every_run_passes_every_check():
    assert wrong_runs() == []


@pytest.mark.parametrize("identity", ONE_WRONG_TASK)
def test_one_wrong_task_is_the_one_failure(identity, monkeypatch):
    flags, module, name, wrong, label = ONE_WRONG_TASK[identity]
    monkeypatch.setattr(module, name,
                        functools.partial(wrong, getattr(module, name)))
    code, out = run_row(identity, flags)
    k = checks(identity, flags)
    assert (code, fails(out), out.splitlines()[-1]) == (
        1, [label], f"{k - 1}/{k} checks passed")
