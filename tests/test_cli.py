import ast
import concurrent.futures
import contextlib
import functools
import gc
import hashlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

import altsign
from altsign.cli import COMMANDS, FLAGS, main
from altsign.detform import gf_det
from test_detform import asm_number
from test_exactalg import gf_value
from test_identities import RUNS, checks, run_row, wrong_runs
from test_routes import _refusal


def run_all(capsys, *argv):
    """(exit code, stdout, stderr) of main(argv) in this process."""
    try:
        code = main(list(argv))
    except SystemExit as e:  # help and argument errors exit
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run(capsys, *argv):
    return run_all(capsys, *argv)[:2]


class TestGfCommand:
    def test_det_24_exact_output(self, capsys):
        code, out = run(capsys, "gf", "det", "--n", "2", "--l", "4")
        assert code == 0
        assert out == "R^2 + 4*R + P*R + Q*R + 1\n"

    def test_paths_n0_is_1(self, capsys):
        code, out = run(capsys, "gf", "paths", "--n", "0", "--l", "3")
        assert (code, out) == (0, "1\n")
        code, out = run(capsys, "gf", "paths", "--n", "0", "--l", "3",
                        "--format", "json")
        assert (code, json.loads(out)) == (0, [{"p": 0, "q": 0, "r": 0,
                                                "coeff": 1}])

    def test_json_format(self, capsys):
        code, out = run(capsys, "gf", "det", "--n", "1", "--l", "2",
                        "--format", "json")
        assert code == 0
        terms = json.loads(out)
        assert {"p": 0, "q": 0, "r": 1, "coeff": 1} in terms


@pytest.fixture
def fake_pool(monkeypatch):
    """A stand-in for the process pool that runs the tasks in process and
    records the size of each pool and the tasks handed to it, in order."""
    record = {"sizes": [], "handed": []}

    class FakePool:
        def __init__(self, max_workers):
            record["sizes"].append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            record["handed"] += items
            return map(fn, items)

    # _run_tasks imports the pool class only when it runs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    return record


class TestCountCommand:
    def test_23(self, capsys):
        code, out = run(capsys, "count", "--n", "2", "--l", "3")
        assert code == 0
        assert out.strip() == "7"

    def test_l1_allowed(self, capsys):
        code, out = run(capsys, "count", "--n", "2", "--l", "1")
        assert code == 0
        assert out.strip() == "5"

    def test_answers_of_any_size_print(self, capsys):
        # CPython turns an int of more than 4300 digits into a string only
        # without its int-to-str limit, which main lifts once the command
        # line is read: every answer prints, and an input text past the
        # limit is still refused up front
        limit = sys.get_int_max_str_digits()

        def digits(value):
            sys.set_int_max_str_digits(0)
            try:
                return f"{value}\n"
            finally:
                sys.set_int_max_str_digits(limit)

        code, out = run(capsys, "count", "--n", "200", "--l", "3")
        assert (code, len(out)) == (0, 4592)
        assert out == digits(asm_number(201))
        big = "1" + "0" * 1100
        code, out = run(capsys, "count", "--n", "4", "--l", big)
        assert (code, out) == (0, digits(gf_value(gf_det(4, int(big)))))
        code, out = run(capsys, "gf", "det", "--n", "4", "--l", big)
        assert (code, out) == (0, digits(gf_det(4, int(big))))
        assert len(max(out.split(), key=len)) > 4300
        code, out = run(capsys, "count", "--n", "1" * 4301, "--l", "3")
        assert (code, out) == (2, "")
        assert sys.get_int_max_str_digits() == limit


def test_every_route_answers_or_refuses_alike_at_the_edges(capsys):
    # the gf routes' edges are test_routes.EDGES
    from altsign.cli import FAMILIES

    rows = [(("enumerate", family), FAMILIES[family][-1])
            for family in ("ast", "cssp")]
    rows += [(("count",), ("--n", "--l")), (("tpoly",), ("--n",))]
    value = {}  # gf det's value at P = Q = R = 1
    for n in (0, 1, 2):
        for l in (1, 2, 3):
            _, out, _ = run_all(capsys, "gf", "det", "--n", str(n),
                                "--l", str(l), "--format", "json")
            value[n, l] = sum(term["coeff"] for term in json.loads(out))
    checked = 0
    for words, reads in rows:
        # inside the domain first: n = 0 is where the routes once split
        for n in (0, 1, 2, -1):
            for l in ((1, 2, 3, 0) if "--l" in reads or "--k" in reads
                      else (None,)):
                values = {"--n": n, "--l": l,
                          "--k": None if l is None else l - 1}
                argv = [*words, *(x for flag in reads
                                  for x in (flag, str(values[flag])))]
                code, out, err = run_all(capsys, *argv)
                # tpoly reads no l: it answers for every l >= 1
                refusal = _refusal(words, n, 1 if l is None else l, None)
                checked += 1
                if refusal:
                    assert (code, out, err) == \
                        (2, "", f"error: {refusal}\n"), argv
                    continue
                assert (code, err) == (0, ""), argv
                if words == ("count",):
                    assert out == f"{value[n, l]}\n", argv
                elif words[0] == "enumerate":
                    lines = out.splitlines()
                    assert lines[-1] == f"total: {value[n, l]}", argv
                    assert sum(line.startswith("# ") for line in lines) \
                        == value[n, l], argv
                else:  # t_n's monomial form (int coefficients for n <= 2)
                    poly = out.splitlines()[0].split(" = ")[1]
                    for at in (2, 3):
                        assert eval(poly.replace("^", "**"), {"l": at}) \
                            == value[n, at], (argv, at)
    assert checked == 52  # 16 each for enumerate ast, cssp and count, 4 tpoly


class TestEnumerateCommand:
    def test_ast_json_roundtrips(self, capsys):
        from altsign import trapezoid
        code, out = run(capsys, "enumerate", "ast", "--n", "2", "--l", "4",
                        "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert len(data) == 8
        objs = [trapezoid.Trapezoid(d["n"], d["l"],
                                    tuple(map(tuple, d["rows"])))
                for d in data]
        assert objs == trapezoid.enumerate_trapezoids(2, 4)
        assert not any(map(trapezoid.validate, objs))
        stats = Counter((d["stats"]["p"], d["stats"]["q"], d["stats"]["r"])
                        for d in data)
        assert stats == Counter({(0, 0, 1): 4, (0, 0, 2): 1, (1, 0, 1): 1,
                                 (0, 1, 1): 1, (0, 0, 0): 1})

    def test_cssp_json(self, capsys):
        from altsign import cssp
        code, out = run(capsys, "enumerate", "cssp", "--k", "3", "--n", "2",
                        "--format", "json")
        data = json.loads(out)
        assert len(data) == 8
        objs = [cssp.Cssp(d["class"], tuple(map(tuple, d["rows"])))
                for d in data]
        assert objs == cssp.enumerate_cssps(3, 2)
        assert not any(map(cssp.validate, objs))

    def test_sttree(self, capsys):
        code, out = run(capsys, "enumerate", "sttree", "--n", "3",
                        "--b", "1,2,3")
        assert code == 0
        assert "total: 7" in out
        # the token after a flag is its value, whatever it starts with
        argv = ("enumerate", "sttree", "--n", "3", "--s", "1", "--t", "0,1")
        code, out = run(capsys, *argv, "--b", "-1,0,2")
        assert (code, out) == run(capsys, *argv, "--b=-1,0,2")
        assert code == 0 and out.endswith("total: 4\n")


def test_help_does_not_follow_the_terminal_width(capsys, monkeypatch):
    helps = set()
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        helps.add(run(capsys, "gf", "--help"))
    [(code, text)] = helps  # one text for both widths
    assert code == 0 and "\n  gf paths --n --l --d [1] --format" in text


# sha256 of the stdout of tpoly --n n --format f for n <= 7
TPOLY_DIGESTS = {
    # (0, "text") is the bytes 't_0(l) = 1\n         = 1\n'
    (0, "text"): "28e1aaa48fb9a2ed0674b89458407ca8e850e8edd426abcf115da49c63fbbfd2",
    (0, "json"): "91686067092ba35984d3ea98a6d671861dc8a9be4c60861010e531dfbbb9b75f",
    (1, "text"): "63d05f96805f91995c372af4f6ebfa1b7fa396e06d2402dfe76713b7f2f82961",
    (1, "json"): "239113adc6ab8ba2c959fa7dc2d48460ef942f0165ef108961be017653f6b701",
    (2, "text"): "a2af82ed5f32c643659b456eddd6ee3e6af004e4f5be0aabe4d208230b7ca364",
    (2, "json"): "9852124eeb9ed3c517816ba32aa18cd64e6c15bf6a60270e09110f7cbd5acac9",
    (3, "text"): "f549ebcb298783fe19d70061103990b74b05cf39500116262d0ad191be8bade9",
    (3, "json"): "9c90540b5de36442b44e3c2272b307581be44539b7d6ef803bc4a89d988b4a17",
    (4, "text"): "3cf3f1e61930b222bce5f1fe4a6e6b531088fa0855fed7a9924d5948edd2cb77",
    (4, "json"): "ae3c173da41452f7aea14c4ab08786d1f7889f41bf2aeba3a8c6227e65c182b2",
    (5, "text"): "5b90356aa1c062617b902883575668930a814d243cc486fe515efce2bd04bdb5",
    (5, "json"): "49410b757cd6fd2d0ec1cf08a01e615e93d68bc95ba28bb51791248003ddb8bb",
    (6, "text"): "9988d6254c841fe43391c4c820a730dbf4d5d36162e6237364de8b8e6c2bcecd",
    (6, "json"): "6884dd1ee01d06dfc7b7e6ace51e0677cbbb626f2e7a35da20e18b3e48a82f6f",
    (7, "text"): "811f62b4bb14f1096a9d6eda21f79eab6dc3aa6ce5bdf458e0ca840808321c97",
    (7, "json"): "83ac5be11457b3dab9ed442b86fe4cdc34bc276a7e65280884f6bdbf6d5e0da0",
}


class TestTpoly:
    def test_t2(self, capsys):
        code, out = run(capsys, "tpoly", "--n", "2")
        assert code == 0
        assert "l + 4" in out
        assert "(l)_1" in out

    def test_pinned_bytes(self, capsys):
        for (n, fmt), digest in TPOLY_DIGESTS.items():
            code, out = run(capsys, "tpoly", "--n", str(n), "--format", fmt)
            assert code == 0, (n, fmt)
            assert hashlib.sha256(out.encode()).hexdigest() == digest, (n, fmt)

    def test_both_forms_through_the_term_printer(self, capsys, monkeypatch):
        from altsign import andrews
        from altsign.exactalg import MPoly, monomials

        def old_join(coeffs):  # tpoly's own join before the shared printer
            return " + ".join(
                (f"{c}" if k == 0 else (f"{c}*(l)_{k}" if c != 1
                                        else f"(l)_{k}"))
                for k, c in enumerate(coeffs) if c != 0) or "0"

        rng = random.Random(33)
        pool = (0, 0, 1, -1, 2, -3, 17, Fraction(1, 2), Fraction(-3, 4),
                Fraction(7, 1))
        for _ in range(200):
            coeffs = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
            monkeypatch.setattr(andrews, "t_polynomial", lambda n: coeffs)
            code, out = run(capsys, "tpoly", "--n", "0", "--format", "json")
            assert code == 0, coeffs
            forms = json.loads(out)
            # the monomial form is MPoly's rendering of the same coefficients
            assert forms["monomial"] == str(MPoly(
                ("l",), {(k,): c for k, c in enumerate(monomials(coeffs))}))
            # the old join term by term on |c|, the sign in front of the
            # term: "- c*(l)_k" where the old join printed "+ -c*(l)_k"
            terms = [(c < 0, old_join([0] * k + [abs(c)]))
                     for k, c in enumerate(coeffs) if c]
            expected = "".join(
                ("-" if neg else "") + body if i == 0
                else f" {'-' if neg else '+'} {body}"
                for i, (neg, body) in enumerate(terms)) or "0"
            assert forms["falling_factorial"] == expected, coeffs
            if all(c >= 0 for c in coeffs):
                assert expected == old_join(coeffs), coeffs


class TestVerify:
    def test_qast(self):
        flags = ("--n-max", "2")
        assert run_row("qast", flags) == (0, "PASS qast count (n=1)\n"
                                             "PASS qast vanishing (n=1)\n"
                                             "PASS qast count (n=2)\n"
                                             "PASS qast vanishing (n=2)\n"
                                             f"{RUNS['qast'][flags]}\n")

    def test_asym_with_seed(self):
        flags = ("--n-max", "2", "--samples", "5", "--seed", "11")
        assert run_row("asym", flags) == (
            0, "PASS asym lemma (n=1, samples=5)\n"
               "PASS asym lemma (n=2, samples=5)\n"
               f"{RUNS['asym'][flags]}\n")

    def test_deterministic_output(self, capsys):
        _, first = run(capsys, "verify", "truncated", "--samples", "6",
                       "--seed", "3")
        _, second = run(capsys, "verify", "truncated", "--samples", "6",
                        "--seed", "3")
        assert first == second

    def test_jobs_flag_keeps_order(self):
        # each identity's smallest RUNS row
        for identity, runs in RUNS.items():
            flags = min(runs, key=lambda flags: checks(identity, flags))
            assert wrong_runs([(identity, flags)]) == []
            assert run_row(identity, flags + ("--jobs", "2")) == run_row(
                identity, flags), identity

    def test_main_enumerates_no_trapezoids(self, capsys, monkeypatch):
        # the trapezoid side of main is the row-state transfer matrix
        from altsign import trapezoid
        calls = []
        enumerate_trapezoids = trapezoid.enumerate_trapezoids

        def counted(n, l):
            calls.append((n, l))
            return enumerate_trapezoids(n, l)

        monkeypatch.setattr(trapezoid, "enumerate_trapezoids", counted)
        code, out = run(capsys, "verify", "main", "--n-max", "2",
                        "--l-max", "3")
        assert code == 0
        assert out.endswith("12/12 checks passed\n")
        assert calls == []

    def test_main_prints_both_sides_only_on_failure(self, capsys,
                                                    monkeypatch):
        from altsign import cssp, trapezoid, verify
        assert verify.check_main((2, 3)) == [((2, 3, d), True, ())
                                             for d in range(3)]
        cssp_gf = cssp.gf

        def off_by_one(k, n, d):
            return cssp_gf(k, n, d) + (n == 2 and k == 1 and d == 1)

        monkeypatch.setattr(cssp, "gf", off_by_one)
        code, out = run(capsys, "verify", "main", "--n-max", "2",
                        "--l-max", "2")
        lhs = trapezoid.gf(2, 2)
        assert code == 1
        assert out.endswith(f"PASS main (n=2, l=2, d=0)\n"
                            f"FAIL main (n=2, l=2, d=1)\n"
                            f"     {lhs}\n     {lhs + 1}\n"
                            f"5/6 checks passed\n")

    def test_main_takes_each_ast_gf_once(self, capsys, monkeypatch):
        # the d of one (n, l) share the trapezoid side
        from altsign import trapezoid
        calls = []
        ast_gf = trapezoid.gf

        def counted(n, l):
            calls.append((n, l))
            return ast_gf(n, l)

        monkeypatch.setattr(trapezoid, "gf", counted)
        code, out = run(capsys, "verify", "main", "--n-max", "2",
                        "--l-max", "3")
        assert code == 0
        assert out.endswith("12/12 checks passed\n")
        assert out.count("PASS main") == 12
        assert sorted(calls) == [(n, l) for n in (1, 2) for l in (1, 2, 3)]

    def test_one_task_per_cell_for_main_and_per_n_for_qast(
            self, capsys, monkeypatch):
        # main checks every d of an (n, l) cell in one task, qast the count
        # and the vanishing of one n
        from altsign import verify
        issued = []
        run_tasks = verify._run_tasks

        def recorded(fn, tasks, jobs):
            issued.append(list(tasks))
            return run_tasks(fn, tasks, jobs)

        monkeypatch.setattr(verify, "_run_tasks", recorded)
        code, out = run(capsys, "verify", "main", "--n-max", "2",
                        "--l-max", "3")
        assert code == 0 and out.endswith("12/12 checks passed\n")
        code, out = run(capsys, "verify", "qast", "--n-max", "2")
        assert code == 0 and out.endswith("4/4 checks passed\n")
        assert issued == [[(n, l) for n in (1, 2) for l in (1, 2, 3)],
                          [1, 2]]

    def test_bijections_build_each_tree_once(self, capsys, monkeypatch):
        # one ast_to_sttree per trapezoid: the round trip's image check
        # reuses the forward tree
        from altsign import sttree, trapezoid
        calls = []
        ast_to_sttree = sttree.ast_to_sttree

        def counted(t):
            calls.append(t)
            return ast_to_sttree(t)

        monkeypatch.setattr(sttree, "ast_to_sttree", counted)
        code, out = run(capsys, "verify", "bijections", "--n-max", "4",
                        "--l-max", "4")
        assert code == 0
        assert out == "".join(f"PASS bijections (n={n}, l={l})\n"
                              for n in range(1, 5) for l in range(2, 5)
                              ) + "12/12 checks passed\n"
        assert len(calls) == 1520 == sum(
            len(trapezoid.enumerate_trapezoids(n, l))
            for n in range(1, 5) for l in range(2, 5))

    def test_empty_sweep_fails(self, capsys):
        code, out = run(capsys, "verify", "main", "--n-max", "0")
        assert code == 1
        assert "0/0 checks passed" in out

    def test_jobs_clamped(self, capsys, monkeypatch, fake_pool):
        from altsign import verify
        # verify main --n-max 2 --l-max 2 has 4 tasks (cells) of 6 checks;
        # one CPU runs serially
        for cpus, jobs, expected in ((4, "1000", [4]), (4, "3", [3]),
                                     (16, "1000", [4]), (1, "8", [])):
            monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
            fake_pool["sizes"].clear()
            code, _ = run(capsys, "verify", "main", "--n-max", "2",
                          "--l-max", "2", "--jobs", jobs)
            assert code == 0 and fake_pool["sizes"] == expected, (cpus, jobs)

    def test_pool_takes_the_largest_tasks_first(self, monkeypatch,
                                                fake_pool):
        # the builders list tasks by growing n: the parent runs the first,
        # the pool gets the rest from the last, and the results come back
        # in task order
        from altsign import verify
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
        tasks = [(n, l) for n in range(1, 4) for l in (2, 3)]
        assert verify._run_tasks(sum, tasks, 2) == list(map(sum, tasks))
        assert fake_pool["handed"] == tasks[:0:-1]


# a value of each flag at which every command that reads it runs quickly
TINY = {"--n": "1", "--l": "2", "--k": "1", "--d": "1", "--s": "", "--t": "",
        "--b": "1", "--format": "text", "--n-max": "1", "--l-max": "2",
        "--samples": "1", "--seed": "1", "--jobs": "1", "--out": "sheet.svg"}


def _table_rows():
    """(command words, the flags the row reads) for every row of every
    command's table."""
    for command, (_, positional, table, common, _) in COMMANDS.items():
        for choice, row in (table.items() if positional else [(None, table)]):
            words = (command, choice) if choice else (command,)
            yield words, common + row[-1]


TABLE_ROWS = list(_table_rows())


@pytest.mark.parametrize("words, reads", TABLE_ROWS,
                         ids=[" ".join(w) for w, _ in TABLE_ROWS])
def test_a_command_takes_only_the_flags_it_reads(words, reads, capsys,
                                                 tmp_path, monkeypatch):
    assert set(TINY) == set(FLAGS)
    monkeypatch.chdir(tmp_path)  # svg paths writes its sheet here
    argv = [*words, *(x for flag in reads for x in (flag, TINY[flag]))]
    code, out = run(capsys, *argv)
    assert code == 0 and out, argv
    for flag in set(FLAGS) - set(reads):
        code, out = run(capsys, *argv, flag, TINY[flag])
        assert (code, out) == (2, ""), (argv, flag)


class TestReport:
    def test_failures_exit_1(self, capsys):
        from altsign.verify import _report
        import sys
        code = _report([("good", True, ()), ("bad", False, ("why",))],
                       sys.stdout)
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL bad" in out and "1/2 checks passed" in out


class TestSvg:
    def test_writes_file(self, capsys, tmp_path):
        out_file = tmp_path / "sheet.svg"
        code, out = run(capsys, "svg", "paths", "--n", "2", "--l", "3",
                        "--d", "1", "--out", str(out_file))
        assert code == 0
        assert out_file.exists()
        assert "families" in out


def test_no_private_imports_across_modules():
    # a helper that another module needs is public in its own module
    found = []
    for path in sorted(Path(altsign.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [f"{path.name}: from .{node.module or ''} import "
                          f"{alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert found == []


def test_no_import_cycle_between_modules():
    # a rule two modules share lives in one of them, which imports nothing
    # back; imports inside functions and under TYPE_CHECKING count too.
    # cli and __init__ import the route modules by design.
    imports = {}
    for path in sorted(Path(altsign.__file__).parent.glob("*.py")):
        if path.stem not in ("cli", "__init__"):
            imports[path.stem] = {
                name for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom) and node.level
                for name in ([node.module] if node.module
                             else [alias.name for alias in node.names])}

    def reached(module):
        seen, todo = set(), [module]
        while todo:
            for name in imports.get(todo.pop(), ()):
                if name not in seen:
                    seen.add(name)
                    todo.append(name)
        return seen

    assert [module for module in imports if module in reached(module)] == []


def _fresh_run(*args):
    """A fresh python process of args, on this package."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(altsign.__file__).parent.parent))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=60)


def _fresh_process(code, *argv):
    done = _fresh_run("-c", code, *argv)
    assert done.returncode == 0, done.stderr
    return done.stdout


# Modules that a command does not run: every op is a fresh process, so loading
# one is start-up time spent for nothing.  Every command line, help and errors
# too, is read from the flag tables, so none loads argparse (with gettext
# behind it), and only verify loads altsign.verify.  No command loads
# dataclasses (with inspect, ast and dis behind it): the object classes of the
# enumeration routes are named tuples.  No gf route makes a Fraction (tpoly
# does), so none loads fractions (with decimal behind it).  gf paths, which
# never sums over CSSPPs, does not load cssp, and takes its K(n) + R X form
# from exactalg, not detform; gf cssp, which sums over path families one time
# slice at a time, loads pathfam but no determinant and no other route.
# count takes Andrews' product in ints, so it loads no polynomial code, and
# help and errors load none; tpoly interpolates that product, so it does not
# load the operator route.
UNUSED_BY_ALL = ("argparse", "gettext", "dataclasses")
UNUSED_BUT_BY_VERIFY = UNUSED_BY_ALL + ("altsign.verify",)
NO_FRACTIONS = UNUSED_BUT_BY_VERIFY + ("fractions", "decimal")
UNUSED_BY_DET = NO_FRACTIONS + ("concurrent.futures", "multiprocessing",
                                "xml.etree.ElementTree", "json",
                                "altsign.cssp", "altsign.trapezoid",
                                "altsign.sttree", "altsign.pathfam",
                                "altsign.operatorform")
NO_POLYNOMIAL = UNUSED_BY_DET + ("altsign.detform", "altsign.exactalg")
NO_COMMAND = NO_POLYNOMIAL + ("altsign.andrews",)

# one tiny run of each row of cli.COMMANDS, and the json forms, which print
# what the text forms do not, each with its exit code and the modules it must
# not load; {out} is a file to write
EVERY_ROW = {tuple(argv.split()): (code, unused) for argv, code, unused in [
    ("enumerate ast --n 2 --l 2", 0, UNUSED_BUT_BY_VERIFY),
    ("enumerate ast --n 2 --l 2 --format json", 0, UNUSED_BUT_BY_VERIFY),
    ("enumerate cssp --k 1 --n 2", 0, UNUSED_BUT_BY_VERIFY),
    ("enumerate cssp --k 1 --n 2 --format json", 0, UNUSED_BUT_BY_VERIFY),
    ("enumerate sttree --n 2 --b 1,2", 0, UNUSED_BUT_BY_VERIFY),
    ("enumerate sttree --n 2 --b 1,2 --format json", 0, UNUSED_BUT_BY_VERIFY),
    ("gf ast --n 2 --l 3", 0, NO_FRACTIONS),
    ("gf cssp --k 2 --n 2 --d 0", 0,
     NO_FRACTIONS + ("altsign.detform", "altsign.trapezoid", "altsign.sttree",
                     "altsign.operatorform")),
    ("gf det --n 2 --l 3", 0, UNUSED_BY_DET),
    ("gf operator --n 2 --l 3", 0, NO_FRACTIONS),
    ("gf paths --n 2 --l 3 --d 1", 0,
     NO_FRACTIONS + ("altsign.cssp", "altsign.detform")),
    ("count --n 2 --l 3", 0, NO_POLYNOMIAL),
    ("tpoly --n 3", 0, UNUSED_BUT_BY_VERIFY + ("altsign.operatorform",)),
    ("verify main --n-max 2 --l-max 2", 0, UNUSED_BY_ALL),
    ("verify truncated --samples 3", 0, UNUSED_BY_ALL),
    ("verify qast --n-max 2", 0, UNUSED_BY_ALL),
    ("verify asymm --n-max 1", 0, UNUSED_BY_ALL),
    ("verify asym --n-max 2 --samples 2", 0, UNUSED_BY_ALL),
    ("verify coeff --n-max 2 --l-max 2", 0, UNUSED_BY_ALL),
    ("verify bijections --n-max 2 --l-max 2", 0, UNUSED_BY_ALL),
    ("svg paths --n 2 --l 3 --out {out}", 0, UNUSED_BUT_BY_VERIFY),
    # the README's = form, help and an error
    ("enumerate sttree --n 3 --s 1 --t 0,1 --b=-1,0,2", 0,
     UNUSED_BUT_BY_VERIFY),
    ("--help", 0, NO_COMMAND),
    ("gf --help", 0, NO_COMMAND),
    ("gf ast --n 2", 2, NO_COMMAND),
]}


# the usage line of each command that a parser refusal below prints first
USAGE = {
    "enumerate": "usage: altsign enumerate ast|cssp|sttree [--flag value ...]",
    "gf": "usage: altsign gf ast|cssp|det|operator|paths [--flag value ...]",
    "verify": "usage: altsign verify main|truncated|qast|asymm|asym|coeff|"
              "bijections [--flag value ...]",
}


def _parser_error(command, message):
    return f"{USAGE[command]}\naltsign {command}: error: {message}\n"


# Every command line that the CLI refuses, with the exact stderr it exits 2
# with: a library refusal prints "error: <message>", a parser refusal the
# command's usage line, then "altsign <command>: error: <message>".  {dir}
# is an empty directory, where a refused svg paths must write nothing.
REFUSALS = {tuple(argv.split()): err for argv, err in [
    # the domain: n, then l (k for cssp), then d; below l = 1 the message
    # blames l, not the empty range 0..l-1 of d
    ("count --n -1 --l 3", "error: need n >= 0, got n = -1\n"),
    ("count --n 3 --l 0", "error: need l >= 1, got l = 0\n"),
    ("gf det --n 2 --l 0", "error: need l >= 1, got l = 0\n"),
    ("gf ast --n -1 --l 3", "error: need n >= 0, got n = -1\n"),
    ("tpoly --n -1", "error: need n >= 0, got n = -1\n"),
    ("gf operator --n -2 --l 3", "error: need n >= 0, got n = -2\n"),
    ("gf paths --n -1 --l 3 --d 1", "error: need n >= 0, got n = -1\n"),
    ("gf paths --n 2 --l 0 --d 0", "error: need l >= 1, got l = 0\n"),
    ("gf cssp --k -1 --n 2", "error: need k >= 0, got k = -1\n"),
    ("gf cssp --k 3 --n 6 --d 9", "error: d = 9 not in 0..3\n"),
    ("gf cssp --k 0 --n 7", "error: d = 1 not in 0..0\n"),
    ("enumerate sttree --n -1 --b=", "error: need n >= 0, got n = -1\n"),
    # one d check: class k sums over families of l = k + 1 paths
    *[(argv, f"error: d = {d} not in 0..{k}\n")
      for k, d in ((3, 9), (3, -1), (3, 4), (0, 1), (0, -1), (2, 3))
      for argv in (f"gf cssp --k {k} --n 3 --d {d}",
                   f"gf paths --l {k + 1} --n 3 --d {d}")],
    ("svg paths --n -1 --l 3 --out {dir}/sheet.svg",
     "error: need n >= 0, got n = -1\n"),
    ("svg paths --n 2 --l -1 --d 0 --out {dir}/sheet.svg",
     "error: need l >= 1, got l = -1\n"),
    ("svg paths --n 2 --l 3 --d 5 --out {dir}/sheet.svg",
     "error: d = 5 not in 0..2\n"),
    ("svg paths --n 2 --l 3 --d -3 --out {dir}/sheet.svg",
     "error: d = -3 not in 0..2\n"),
    ("svg paths --n 2 --l 3 --out {dir}/no_such_dir/sheet.svg",
     "error: cannot write {dir}/no_such_dir/sheet.svg: "
     "No such file or directory\n"),
    # reach, before any work: M_n to n = 7; verify asymm takes 4^n constant
    # terms over the n^n grid (hours at n = 6), verify asym n! permutations
    # per sample (about 18 minutes at n = 8 and the default 100 samples)
    ("gf operator --n 8 --l 3",
     "error: n = 8 is past the operator route's reach, n <= 7\n"),
    ("verify qast --n-max 8",
     "error: n = 8 is past the operator route's reach, n <= 7\n"),
    *[(f"verify asymm --n-max {n}",
       f"error: n = {n} is past verify asymm's reach, n <= 5\n")
      for n in (6, 7, 8)],
    *[(f"verify asym --n-max {n}",
       f"error: n = {n} is past verify asym's reach, n <= 7\n")
      for n in (8, 9)],
    # a sweep over no sample checks nothing, whatever --n-max and --jobs are
    ("verify asym --n-max 2 --samples 0",
     "error: need at least one sample, got 0\n"),
    ("verify asym --n-max 2 --samples -3",
     "error: need at least one sample, got -3\n"),
    ("verify asym --n-max 0 --samples 0",
     "error: need at least one sample, got 0\n"),
    ("verify asym --n-max 2 --samples 0 --jobs 2",
     "error: need at least one sample, got 0\n"),
    ("verify truncated --samples 0",
     "error: need at least one sample, got 0\n"),
    # the parser's refusals, after the usage line
    ("enumerate ast --n 2",
     _parser_error("enumerate", "enumerate ast requires --l")),
    ("gf ast --n 2", _parser_error("gf", "gf ast requires --l")),
    ("enumerate sttree --n 1 --b 1,x", _parser_error(
        "enumerate", "--b: expected comma-separated integers, got '1,x'")),
    ("enumerate sttree --n 2 --b 1,2 --t 0,,1", _parser_error(
        "enumerate", "--t: expected comma-separated integers, got '0,,1'")),
    *[(f"verify main --n-max 1 --jobs {jobs}",
       _parser_error("verify", "--jobs must be at least 1"))
      for jobs in (0, -3)],
]}


class _TasksStarted(Exception):
    """What verify._run_tasks raises under refusal_mismatches: a refused
    verify run must start no task."""


def refusal_mismatches(table=None):
    """Each argv of table, by default REFUSALS, that main does not refuse
    with exit 2, an empty stdout and exactly its stderr, or that starts
    work: a verify task, or a file in {dir}."""
    from altsign import verify
    found = []
    for argv, err in (REFUSALS if table is None else table).items():
        out, got = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
                verify, "_run_tasks", side_effect=_TasksStarted), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(got):
            try:
                code = main([a.format(dir=tmp) for a in argv])
            except SystemExit as e:  # the parser's refusals
                code = e.code
            except _TasksStarted:
                code = None
            ran = (code, out.getvalue(), got.getvalue().replace(tmp, "{dir}"),
                   os.listdir(tmp))
        if ran != (2, "", err, []):
            found.append(argv)
    return found


def test_every_refusal_prints_its_stderr_and_starts_no_work():
    assert refusal_mismatches() == []


def test_one_wrong_refusal_is_the_one_mismatch(monkeypatch):
    argv = ("gf", "cssp", "--k", "-1", "--n", "2")
    monkeypatch.setitem(REFUSALS, argv, "error: need l >= 1, got l = 0\n")
    assert refusal_mismatches() == [argv]


def test_a_refusal_that_starts_its_tasks_is_a_mismatch(monkeypatch):
    # with no sample check the --samples 0 and -3 runs start their tasks
    from altsign import operatorform
    monkeypatch.setattr(operatorform, "check_samples", lambda count: None)
    assert refusal_mismatches() == [argv for argv in REFUSALS
                                    if "--samples" in argv]


def test_every_row_is_run_by_the_mpoly_probe():
    rows = {(name, choice) for name, (_, positional, table, _, _)
            in COMMANDS.items()
            for choice in (table if positional else (None,))}
    assert {(argv[0], argv[1] if argv[1][:2] != "--" else None)
            for argv, (code, _) in EVERY_ROW.items()
            if code == 0 and "--help" not in argv} == rows


# Prints, as one json line, the run's exit code, the number of MPoly it
# makes, the code of each package function it calls, as file:first
# line:name, and the modules loaded when the process entry returns.  Every
# MPoly is made through __init__ or _make, whose first argument is the new
# polynomial or its class; a Gf is of a subclass and is not counted.  The
# profiler is set before the package loads, so calls made at import count
# too, and nothing is imported for the count, so the modules loaded are the
# run's own; it does not follow pool workers, and every row runs with
# --jobs 1.
ROW_PROBE = (
    "import os, sys\n"
    "codes, made = set(), []\n"
    "def called(frame, event, arg):\n"
    "    if event == 'call':\n"
    "        code = frame.f_code\n"
    "        codes.add(code)\n"
    "        if (code.co_name in ('__init__', '_make')\n"
    "                and os.path.basename(code.co_filename) == 'exactalg.py'):\n"
    "            new = frame.f_locals[code.co_varnames[0]]\n"
    "            made.append(new if isinstance(new, type) else type(new))\n"
    "sys.setprofile(called)\n"
    "from altsign.cli import run\n"
    "try:\n"
    "    code = run()\n"
    "except SystemExit as e:\n"
    "    code = e.code\n"
    "sys.setprofile(None)\n"
    "loaded = sorted(sys.modules)\n"
    "import altsign, json\n"
    "home = os.path.dirname(altsign.__file__)\n"
    "print(json.dumps([code, sum(t.__name__ == 'MPoly' for t in made), sorted(\n"
    "    f'{os.path.basename(c.co_filename)}:{c.co_firstlineno}:{c.co_name}'\n"
    "    for c in codes if os.path.dirname(c.co_filename) == home),\n"
    "    loaded]))\n")


@functools.cache
def _probe(argv):
    """(exit code, MPoly made, package functions called, modules loaded) in
    one fresh process of argv: no cache of an earlier run hides a call."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = [a.format(out=os.path.join(tmp, "sheet.svg")) for a in argv]
        code, made, called, loaded = json.loads(
            _fresh_process(ROW_PROBE, *argv).splitlines()[-1])
    return code, made, frozenset(called), frozenset(loaded)


@functools.cache
def _bare_modules():
    """The modules that a bare interpreter loads before any code runs."""
    return frozenset(
        _fresh_process("import sys\nprint(*sys.modules)").split())


@pytest.mark.parametrize("argv", EVERY_ROW)
def test_a_command_loads_only_what_it_runs(argv):
    unused = set(EVERY_ROW[argv][1])
    assert unused & (_probe(argv)[3] - _bare_modules()) == set()


@pytest.mark.parametrize("argv", EVERY_ROW, ids=" ".join)
def test_no_command_builds_an_mpoly(argv):
    # MPoly is the tests' general polynomial; every command computes in Gf
    # or in ints and prints through the term printer
    assert _probe(argv)[:2] == (EVERY_ROW[argv][0], 0)


def _package_defs():
    """{file:first line:name of its code: dotted name} of every def in the
    package; a decorated def's code starts at its first decorator."""
    defs = {}

    def walk(node, file, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    line = min(d.lineno for d in
                               (child, *child.decorator_list))
                    defs[f"{file}:{line}:{child.name}"] = name
            walk(child, file, name)

    for path in sorted(Path(altsign.__file__).parent.glob("*.py")):
        walk(ast.parse(path.read_text()), path.name, path.stem)
    return defs


def _tracer_names():
    """module.attribute of each row of the benchmark tracer's WRAPPED and
    COUNTED tables, read from perfbench/tracer.py."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_altsign_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {f"{module}.{attr}"
            for _, module, attr in tracer.WRAPPED + tracer.COUNTED}


# The functions that no row of EVERY_ROW runs and that stay, each with its
# reason, besides those the tracer's rows name (read from its tables): a
# ledger that shrinks as MPoly, its division and those rows leave.
NOT_RUN = {
    "exactalg._divide_sparse": "serves the tracer's exact_divide rows",
    "exactalg.MPoly._divide_coeff": "serves the tracer's exact_divide rows",
    "exactalg.Gf._divide_coeff": "serves the tracer's exact_divide rows",
    "exactalg.MPoly.variable": "serves the tracer's shift_var row",
    "exactalg._exact": "serves the tracer's evaluate row",
    "exactalg.MPoly.degree": "MPoly is the tests' general polynomial",
    "exactalg.MPoly.__hash__": "MPoly is the tests' general polynomial",
    "exactalg.MPoly.__rsub__": "MPoly is the tests' general polynomial",
    "exactalg.MPoly._print_key": "MPoly is the tests' general polynomial",
    "errors.NonDivisibleError.__init__": "runs only when a division fails",
}


def test_every_function_is_run_by_a_row_or_kept_for_a_reason():
    defs = _package_defs()
    called = {defs[key] for argv in EVERY_ROW for key in _probe(argv)[2]
              if key in defs}
    assert set(defs.values()) - called - _tracer_names() - set(NOT_RUN) \
        == set()
    # an entry names a def that no row runs: one that a row reaches, or
    # that is gone, leaves the ledger
    assert {name for name in NOT_RUN
            if name not in defs.values() or name in called} == set()


def test_package_names_resolve_on_first_use():
    names = _fresh_process(
        "import altsign\n"
        "print(*[n for n in altsign.__all__ if getattr(altsign, n) is None])\n"
        "from altsign import *\n"
        "print(cssp.__name__, pathfam.gf_via_paths.__module__)\n"
        "try:\n"
        "    altsign.no_such_module\n"
        "except AttributeError:\n"
        "    print('absent')\n")
    assert names == "\naltsign.cssp altsign.pathfam\nabsent\n"


# The process entry (cli.run, of python -m altsign.cli and of the altsign
# script) freezes what is alive once main is done, so that the collections
# at exit have nothing to walk; main called as a function freezes nothing.
# A fresh process of the entry prints and exits what main does in this one:
# an answer, a refusal and the help.
ENTRY_RUNS = {"gf det --n 2 --l 4": 0, "count --n 0 --l 0": 2, "--help": 0}


@pytest.mark.parametrize("argv", ENTRY_RUNS)
def test_main_as_a_function_freezes_nothing(argv, capsys):
    frozen = gc.get_freeze_count()
    run_all(capsys, *argv.split())
    assert gc.get_freeze_count() == frozen


@pytest.mark.parametrize("argv", ENTRY_RUNS)
def test_the_process_entry_prints_and_exits_what_main_does(argv, capsys):
    done = _fresh_run("-m", "altsign.cli", *argv.split())
    code, out, err = done.returncode, done.stdout, done.stderr
    assert (code, out, err) == run_all(capsys, *argv.split())
    assert code == ENTRY_RUNS[argv] and (err if code else out)
