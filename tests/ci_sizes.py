"""CI's larger sizes, judged by tier-1's own checkers: each route at its
test_routes.CI_CELLS by mismatches(), each verify run of
test_identities.CI_RUNS by run_row, and the count and tpoly facts.

A bare pytest does not collect this module (its name is not test_*.py);
CI runs it once under python and once under python -O, where the
package's own asserts are gone:

    PYTHONPATH=src python -m pytest -q tests/ci_sizes.py
    PYTHONPATH=src python -O -m pytest -q tests/ci_sizes.py

pytest rewrites the asserts of this module, so they hold under -O too.
The CLI runs below are fresh processes of the same interpreter, with its
-O flag, timed as a user would time them."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import altsign
from altsign.detform import gf_det
from test_identities import CI_RUNS, run_row
from test_routes import CI_CELLS, mismatches


@pytest.mark.parametrize("route", CI_CELLS)
def test_each_route_answers_as_gf_det_at_its_ci_cells(route):
    assert mismatches({route: CI_CELLS[route]}) == []


@pytest.mark.parametrize(
    "identity, flags", [(i, f) for i in CI_RUNS for f in CI_RUNS[i]],
    ids=[" ".join((i, *f)) for i in CI_RUNS for f in CI_RUNS[i]])
def test_each_identity_passes_every_check_at_its_ci_runs(identity, flags):
    line, pooled = CI_RUNS[identity][flags]
    code, out = run_row(identity, flags)
    assert (code, out.splitlines()[-1:]) == (0, [line])
    if pooled:  # the --jobs 2 pool prints the serial run's bytes
        assert run_row(identity, flags + ("--jobs", "2")) == (code, out)


def altsign_cli(*argv, timeout=None):
    """The stdout of a fresh `python [-O] -m altsign.cli argv` on this
    package, which must exit 0 within timeout seconds."""
    src = str(Path(altsign.__file__).parents[1])
    return subprocess.run(
        [sys.executable, *["-O"] * sys.flags.optimize, "-m", "altsign.cli",
         *argv], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True, timeout=timeout).stdout


def test_count_is_gf_det_at_p_q_r_1():
    assert altsign_cli("count", "--n", "12", "--l", "4") == \
        f"{sum(gf_det(12, 4).terms.values())}\n"


def test_count_prints_4612_digits_at_n_200_within_10_s():
    out = altsign_cli("count", "--n", "200", "--l", "4", timeout=10)
    assert re.fullmatch("[0-9]{4612}\n", out)


def test_count_prints_its_pinned_bytes():
    # measured under python and python -O alike
    out = altsign_cli("count", "--n", "60", "--l", "8")
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "904d1dff00edb0786743eb45501fcc7944487e1a5647bcb9f23dbdfb97efbba7"


def test_tpoly_answers_at_n_30_within_5_s():
    assert altsign_cli("tpoly", "--n", "30", timeout=5)
