import json
from collections import Counter

import pytest

from altsign.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestGfCommand:
    def test_det_24_exact_output(self, capsys):
        code, out = run(capsys, "gf", "det", "--n", "2", "--l", "4")
        assert code == 0
        assert out == "R^2 + 4*R + P*R + Q*R + 1\n"

    def test_routes_agree(self, capsys):
        outputs = set()
        for route in ("ast", "det", "operator"):
            code, out = run(capsys, "gf", route, "--n", "2", "--l", "4")
            assert code == 0
            outputs.add(out)
        code, out = run(capsys, "gf", "paths", "--n", "2", "--l", "4", "--d", "1")
        outputs.add(out)
        code, out = run(capsys, "gf", "cssp", "--k", "3", "--n", "2", "--d", "1")
        outputs.add(out)
        assert len(outputs) == 1

    def test_json_format(self, capsys):
        code, out = run(capsys, "gf", "det", "--n", "1", "--l", "2",
                        "--format", "json")
        assert code == 0
        terms = json.loads(out)
        assert {"p": 0, "q": 0, "r": 1, "coeff": 1} in terms


class TestCountCommand:
    def test_23(self, capsys):
        code, out = run(capsys, "count", "--n", "2", "--l", "3")
        assert code == 0
        assert out.strip() == "7"

    def test_out_of_domain_exits_2(self, capsys, tmp_path):
        sheet = tmp_path / "sheet.svg"
        for argv in (("count", "--n", "-1", "--l", "3"),
                     ("count", "--n", "3", "--l", "0"),
                     ("gf", "det", "--n", "2", "--l", "0"),
                     ("tpoly", "--n", "-1"),
                     ("gf", "operator", "--n", "-2", "--l", "3"),
                     ("gf", "paths", "--n", "-1", "--l", "3", "--d", "1"),
                     ("svg", "paths", "--n", "-1", "--l", "3",
                      "--out", str(sheet))):
            code, out = run(capsys, *argv)
            assert code == 2, argv
            assert out == ""
        assert not sheet.exists()

    def test_l1_allowed(self, capsys):
        code, out = run(capsys, "count", "--n", "2", "--l", "1")
        assert code == 0
        assert out.strip() == "5"


class TestEnumerateCommand:
    def test_ast_json_roundtrips(self, capsys):
        from altsign import trapezoid
        code, out = run(capsys, "enumerate", "ast", "--n", "2", "--l", "4",
                        "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert len(data) == 8
        objs = [trapezoid.from_json(d) for d in data]
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
        assert all(cssp.from_json(d) is not None for d in data)

    def test_sttree(self, capsys):
        code, out = run(capsys, "enumerate", "sttree", "--n", "3",
                        "--b", "1,2,3")
        assert code == 0
        assert "total: 7" in out

    def test_missing_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["enumerate", "ast", "--n", "2"])
        assert info.value.code == 2


class TestTpoly:
    def test_t2(self, capsys):
        code, out = run(capsys, "tpoly", "--n", "2")
        assert code == 0
        assert "l + 4" in out
        assert "(l)_1" in out


class TestVerify:
    def test_main_small(self, capsys):
        code, out = run(capsys, "verify", "main", "--n-max", "2",
                        "--l-max", "3")
        assert code == 0
        assert "FAIL" not in out
        assert out.strip().endswith("checks passed")

    def test_truncated_seeded(self, capsys):
        code, out = run(capsys, "verify", "truncated", "--samples", "10",
                        "--seed", "7")
        assert code == 0
        assert out.count("PASS") == 10

    def test_qast(self, capsys):
        code, out = run(capsys, "verify", "qast", "--n-max", "2")
        assert code == 0
        assert out == ("PASS qast count (n=1)\n"
                       "PASS qast vanishing (n=1)\n"
                       "PASS qast count (n=2)\n"
                       "PASS qast vanishing (n=2)\n"
                       "4/4 checks passed\n")

    def test_asym_with_seed(self, capsys):
        code, out = run(capsys, "verify", "asym", "--n-max", "2",
                        "--samples", "5", "--seed", "11")
        assert code == 0
        assert out == ("PASS asym lemma (n=1, samples=5)\n"
                       "PASS asym lemma (n=2, samples=5)\n"
                       "2/2 checks passed\n")

    def test_coeff(self, capsys):
        code, out = run(capsys, "verify", "coeff", "--n-max", "2",
                        "--l-max", "3")
        assert code == 0

    def test_bijections(self, capsys):
        code, out = run(capsys, "verify", "bijections", "--n-max", "2",
                        "--l-max", "3")
        assert code == 0

    def test_deterministic_output(self, capsys):
        _, first = run(capsys, "verify", "truncated", "--samples", "6",
                       "--seed", "3")
        _, second = run(capsys, "verify", "truncated", "--samples", "6",
                        "--seed", "3")
        assert first == second

    def test_jobs_flag_keeps_order(self, capsys):
        from altsign.cli import IDENTITIES
        small = {"main": ("--n-max", "2", "--l-max", "2"),
                 "truncated": ("--samples", "4", "--seed", "3"),
                 "qast": ("--n-max", "2"),
                 "asymm": ("--n-max", "1"),
                 "asym": ("--n-max", "2", "--samples", "3"),
                 "coeff": ("--n-max", "2", "--l-max", "3"),
                 "bijections": ("--n-max", "2", "--l-max", "3")}
        assert set(small) == set(IDENTITIES)
        for identity, flags in small.items():
            _, serial = run(capsys, "verify", identity, *flags)
            _, parallel = run(capsys, "verify", identity, *flags,
                              "--jobs", "2")
            assert serial == parallel and "checks passed" in serial, identity

    def test_main_enumerates_each_n_l_once(self, capsys, monkeypatch):
        from altsign import cli, trapezoid
        calls = []
        enumerate_trapezoids = trapezoid.enumerate_trapezoids

        def counted(n, l):
            calls.append((n, l))
            return enumerate_trapezoids(n, l)

        monkeypatch.setattr(trapezoid, "enumerate_trapezoids", counted)
        cli._ast_gf.cache_clear()
        code, _ = run(capsys, "verify", "main", "--n-max", "2",
                      "--l-max", "3")
        assert code == 0
        assert sorted(calls) == [(n, l) for n in (1, 2) for l in (1, 2, 3)]

    def test_empty_sweep_fails(self, capsys):
        for argv in (("verify", "main", "--n-max", "0"),
                     ("verify", "truncated", "--samples", "0")):
            code, out = run(capsys, *argv)
            assert code == 1, argv
            assert "0/0 checks passed" in out

    def test_jobs_below_1_rejected(self, capsys):
        for jobs in ("0", "-3"):
            with pytest.raises(SystemExit) as info:
                main(["verify", "main", "--n-max", "1", "--jobs", jobs])
            assert info.value.code == 2

    def test_jobs_clamped(self, capsys, monkeypatch):
        # a stand-in pool records its size and runs the tasks in process
        from altsign import cli
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
        # verify main --n-max 2 --l-max 2 has 6 checks; one CPU runs serially
        for cpus, jobs, expected in ((4, "1000", [4]), (4, "3", [3]),
                                     (16, "1000", [6]), (1, "8", [])):
            monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
            sizes.clear()
            code, _ = run(capsys, "verify", "main", "--n-max", "2",
                          "--l-max", "2", "--jobs", jobs)
            assert code == 0 and sizes == expected, (cpus, jobs)


class TestReport:
    def test_failures_exit_1(self, capsys):
        from altsign.cli import _report
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
