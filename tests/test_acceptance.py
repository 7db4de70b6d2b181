"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with -s or look at captured output).  All comparisons are exact; the
stated wall-clock budgets are asserted as hard limits.
"""

import json
import time
from collections import Counter

from altsign import detform
from altsign.cli import main as cli_main
from test_identities import wrong_runs
from test_routes import cells, mismatches


def _routes_agree(routes, ns, ls):
    """Each route's value equals gf_det's, and each refusal is the domain
    rule's, at every (n, l, d) of ns x ls; prints the cells that differ."""
    found = mismatches({route: cells(route, ns, ls) for route in routes})
    for cell in found:
        print(f"  mismatch at {cell}")
    return found == []


def _runs_pass(*rows):
    """Each (identity, flags) row of test_identities.RUNS exits 0 and ends
    with its k/k line; prints the rows that do not."""
    found = wrong_runs(rows)
    for row in found:
        print(f"  wrong run of verify {row}")
    return found == []


def _finish(number, label, ok, started, budget):
    elapsed = time.monotonic() - started
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{status}] {label} ({elapsed:.2f}s)")
    assert ok, f"criterion {number} failed: {label}"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s budget"


def test_criterion_1_paper_examples(capsys):
    started = time.monotonic()
    code = cli_main(["enumerate", "ast", "--n", "2", "--l", "4",
                     "--format", "json"])
    ast_out = capsys.readouterr().out
    data = json.loads(ast_out)
    triples = Counter((d["stats"]["p"], d["stats"]["q"], d["stats"]["r"])
                      for d in data)
    ok = (code == 0 and len(data) == 8 and triples == Counter(
        {(0, 0, 2): 1, (0, 0, 1): 4, (1, 0, 1): 1, (0, 1, 1): 1, (0, 0, 0): 1}))

    code2 = cli_main(["enumerate", "cssp", "--k", "3", "--n", "2",
                      "--format", "json"])
    cssp_out = capsys.readouterr().out
    objs = json.loads(cssp_out)
    table = {
        1: [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 1), (0, 0, 1),
            (0, 0, 1), (0, 0, 1), (0, 0, 2)],
        2: [(0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 0, 1), (1, 0, 1),
            (0, 0, 1), (0, 0, 1), (0, 0, 2)],
        3: [(0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 0, 1), (0, 0, 1),
            (1, 0, 1), (0, 0, 1), (0, 0, 2)],
    }
    rows_expected = [[], [[4]], [[5, 1]], [[5, 2]], [[5, 3]], [[5, 4]],
                     [[5, 5]], [[5, 5], [4]]]
    ok = ok and code2 == 0 and len(objs) == 8
    ok = ok and [o["rows"] for o in objs] == rows_expected
    for d in (1, 2, 3):
        got = [next((s["p"], s["q"], s["r"]) for s in o["stats"]
                    if s["d"] == d) for o in objs]
        ok = ok and got == table[d]
    with capsys.disabled():
        _finish(1, "paper (2,4) and class-3 table reproduction", ok,
                started, 1.0)


def test_criterion_2_theorem_main_sweep(capsys):
    started = time.monotonic()
    ok = _routes_agree(("ast", "cssp"), range(1, 5), range(1, 6))
    with capsys.disabled():
        _finish(2, "trapezoid gf = cssp gf for n<=4, l<=5, all d", ok,
                started, 600.0)


def test_criterion_3_determinant_route(capsys):
    started = time.monotonic()
    ok = _routes_agree(("ast", "cssp"), range(1, 5), range(2, 6))
    ok = ok and [detform.count(n, 3) for n in range(1, 5)] == [2, 7, 42, 429]
    with capsys.disabled():
        _finish(3, "gf_det equals both family gfs; count(n,3) products", ok,
                started, 60.0)


def test_criterion_4_operator_route(capsys):
    started = time.monotonic()
    ok = _routes_agree(("operator", "ast"), range(1, 4), range(2, 6))
    with capsys.disabled():
        _finish(4, "operator route equals enumeration for n<=3, l<=5", ok,
                started, 600.0)


def test_criterion_5_theorem_truncated(capsys):
    started = time.monotonic()
    ok = _runs_pass(("truncated", ("--samples", "200", "--seed", "20240815")))
    with capsys.disabled():
        _finish(5, "closed tree count = brute force on 200 seeded instances",
                ok, started, 300.0)


def test_criterion_6_lemma_qast(capsys):
    started = time.monotonic()
    ok = _runs_pass(("qast", ("--n-max", "4")))
    with capsys.disabled():
        _finish(6, "t_n(1) counts quasi trapezoids; vanishing rule", ok,
                started, 300.0)


def test_criterion_7_bijection_round_trips(capsys):
    started = time.monotonic()
    ok = _runs_pass(("bijections", ("--n-max", "4", "--l-max", "5")))
    with capsys.disabled():
        _finish(7, "AST<->tree and CSSPP<->paths round trips with weights",
                ok, started, 300.0)


def test_criterion_8_identity_verifications(capsys):
    started = time.monotonic()
    ok = _runs_pass(
        ("asymm", ("--n-max", "3")),
        ("asym", ("--n-max", "3", "--samples", "100", "--seed", "2024")),
        ("coeff", ("--n-max", "4", "--l-max", "6")))
    with capsys.disabled():
        _finish(8, "asymM, asym lemma, coefficient route", ok, started, 300.0)
