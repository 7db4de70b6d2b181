"""CI's larger sizes, judged by tier-1's own checkers: each route at its
test_routes.CI_CELLS by mismatches(), each verify run of
test_identities.CI_RUNS by run_row, and the count and tpoly facts; and
two facts of fresh processes: the installed altsign script prints what
python -m altsign.cli prints, and gf cssp --k 4 --n 8 --d 1 peaks under
100 MB.

A bare pytest does not collect this module (its name is not test_*.py);
CI runs it once under python and once under python -O, where the
package's own asserts are gone:

    PYTHONPATH=src python -m pytest -q tests/ci_sizes.py
    PYTHONPATH=src python -O -m pytest -q tests/ci_sizes.py

pytest rewrites the asserts of this module, so they hold under -O too.
The CLI runs below are fresh processes in an empty directory, timed as a
user would time them; but for the installed script's, each is of the
same interpreter, with its -O flag."""

import hashlib
import os
import re
import shutil
import subprocess
import sys
import tempfile
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


PYTHON = (sys.executable, *["-O"] * sys.flags.optimize)


def fresh(*command, timeout=None):
    """(exit code, stdout, stderr) of a fresh process of command on this
    package, within timeout seconds."""
    src = str(Path(altsign.__file__).parents[1])
    with tempfile.TemporaryDirectory() as tmp:
        done = subprocess.run(command, cwd=tmp, capture_output=True,
                              env=dict(os.environ, PYTHONPATH=src),
                              text=True, timeout=timeout)
    return done.returncode, done.stdout, done.stderr


def altsign_cli(*argv, timeout=None):
    """The stdout of `python [-O] -m altsign.cli argv`, which must exit 0."""
    code, out, err = fresh(*PYTHON, "-m", "altsign.cli", *argv,
                           timeout=timeout)
    assert code == 0, err
    return out


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


# argv: its exit code; help and errors are rendered from the flag tables
SCRIPT_RUNS = {"gf det --n 4 --l 3": 0, "count --n 1 --l 2": 0,
               "gf ast --n 2": 2, "--help": 0}


@pytest.mark.parametrize("argv", SCRIPT_RUNS)
def test_the_installed_script_prints_what_the_module_prints(argv):
    script = shutil.which("altsign")
    assert script, "no altsign script on PATH: pip install -e ."
    ran = fresh(script, *argv.split())
    assert ran == fresh(*PYTHON, "-m", "altsign.cli", *argv.split())
    assert ran[0] == SCRIPT_RUNS[argv] and (ran[2] if ran[0] else ran[1])


# main, then the process's own peak resident set (VmHWM, in kB) on stderr:
# the child's ru_maxrss, as RUSAGE_CHILDREN reads it, would start from the
# forked parent's, which is pytest's own
PEAK_RSS = ("import sys\n"
            "from altsign.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "for line in open('/proc/self/status'):\n"
            "    if line.startswith('VmHWM:'):\n"
            "        print(line.split()[1], file=sys.stderr)\n"
            "sys.exit(code)\n")


def test_gf_cssp_at_k_4_n_8_peaks_under_100_mb():
    code, out, err = fresh(*PYTHON, "-c", PEAK_RSS, "gf", "cssp", "--k", "4",
                           "--n", "8", "--d", "1")
    assert code == 0 and out
    assert int(err) / 1024 < 100, f"peak RSS {int(err) / 1024:.1f} MB"
