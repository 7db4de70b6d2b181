"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with -s or look at captured output).  All comparisons are exact; the
stated wall-clock budgets are asserted as hard limits.
"""

import json
import time
from collections import Counter
from itertools import product

from altsign import cssp, detform, operatorform, pathfam, sttree, trapezoid
from altsign.cli import main as cli_main
from test_routes import cells, mismatches


def _routes_agree(routes, ns, ls):
    """Each route's value equals gf_det's, and each refusal is the domain
    rule's, at every (n, l, d) of ns x ls; prints the cells that differ."""
    found = mismatches({route: cells(route, ns, ls) for route in routes})
    for cell in found:
        print(f"  mismatch at {cell}")
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
    instances = sttree.random_tree_instances(200, seed=20240815)
    ok = len(instances) >= 200
    for n, s, t, b in instances:
        formula = operatorform.count_sttrees_formula(n, s, t, b)
        brute = len(sttree.enumerate_sttrees(n, s, t, b))
        if formula != brute:
            ok = False
            print(f"  mismatch at (n={n}, s={s}, t={t}, b={b}): "
                  f"{formula} vs {brute}")
    with capsys.disabled():
        _finish(5, "closed tree count = brute force on 200 seeded instances",
                ok, started, 300.0)


def test_criterion_6_lemma_qast(capsys):
    started = time.monotonic()
    ok = True
    for n in range(1, 5):
        if operatorform.t_value(n, 1) != len(trapezoid.enumerate_trapezoids(n, 1)):
            ok = False
            print(f"  count mismatch at n={n}")
        for m, j in operatorform.all_positions(n):
            if 0 < m < n and j[m - 1] < -1 and j[m] > 1:
                if operatorform.count_ast_prescribed(n, 1, j) != 0:
                    ok = False
                    print(f"  vanishing fails at n={n}, j={j}")
    with capsys.disabled():
        _finish(6, "t_n(1) counts quasi trapezoids; vanishing rule", ok,
                started, 300.0)


def test_criterion_7_bijection_round_trips(capsys):
    started = time.monotonic()
    ok = True
    for n in range(1, 5):
        for l in range(2, 6):
            for t in trapezoid.enumerate_trapezoids(n, l):
                tree = sttree.ast_to_sttree(t)
                if sttree.sttree_to_ast(tree, n, l) != t:
                    ok = False
    for n in range(1, 5):
        for l in range(1, 6):
            for c in cssp.enumerate_cssps(l - 1, n):
                fam = cssp.to_paths(c)
                if cssp.from_paths(fam) != c:
                    ok = False
                for d in range(0, l):
                    if pathfam.lgv_weight(fam, d) != cssp.weight(c, d):
                        ok = False
    with capsys.disabled():
        _finish(7, "AST<->tree and CSSPP<->paths round trips with weights",
                ok, started, 300.0)


def test_criterion_8_identity_verifications(capsys):
    started = time.monotonic()
    ok = True
    for n in range(1, 4):
        for x in product(range(4), repeat=n):
            if not operatorform.verify_asymM(n, x):
                ok = False
                print(f"  asymM fails at n={n}, x={x}")
    for n in range(1, 4):
        if not operatorform.verify_asym_lemma(n, 100, seed=2024):
            ok = False
            print(f"  asym lemma fails at n={n}")
    for n in range(1, 5):
        for l in range(2, 7):
            if not detform.verify_coeff_route(n, l):
                ok = False
                print(f"  coeff route fails at (n={n}, l={l})")
    with capsys.disabled():
        _finish(8, "asymM, asym lemma, coefficient route", ok, started, 300.0)
