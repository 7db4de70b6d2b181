"""The one check of every gf route's answer and refusal: every row of
cli.GF_ROUTES against gf_det, cell by cell, and the one pin table of the
theorem's polynomial, PINNED.

Each route reaches the theorem's one polynomial.  Where a route answers,
by the one domain rule _refusal, it must equal gf_det, and where (n, l) is
pinned it must print PINNED's bytes; where it refuses, it must refuse with
_refusal's message.  The default cells run the grid, the domain's edges
and a few cells beyond the grid; PIN_CELLS runs every route at the pinned
cells it reaches in the suite, and CI_CELLS, which tests/ci_sizes.py
judges, the larger cells CI runs.  `gf <route>` prints a value's sorted
terms, so equal values print equal bytes.  This module imports no other
test module, so any of them can import its rule, its call and its pins."""

import functools
import hashlib
from types import SimpleNamespace

from altsign import cssp, pathfam, trapezoid
from altsign.cli import GF_ROUTES, _call
from altsign.detform import gf_det
from altsign.exactalg import Gf

# sha256 of the printed str G(n, l), the same by every route and every d:
# n <= 7 and l <= 6 but (7, 6), the costliest cell
PINNED = {
    (0, 1): "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    (0, 2): "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    (0, 3): "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    (0, 4): "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    (0, 5): "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    (0, 6): "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    (1, 1): "6230ba6049acd4ba2d5b747c90f43bbb7a56bfa06a238df201eff2dfafc8f2f9",
    (1, 2): "6230ba6049acd4ba2d5b747c90f43bbb7a56bfa06a238df201eff2dfafc8f2f9",
    (1, 3): "6230ba6049acd4ba2d5b747c90f43bbb7a56bfa06a238df201eff2dfafc8f2f9",
    (1, 4): "6230ba6049acd4ba2d5b747c90f43bbb7a56bfa06a238df201eff2dfafc8f2f9",
    (1, 5): "6230ba6049acd4ba2d5b747c90f43bbb7a56bfa06a238df201eff2dfafc8f2f9",
    (1, 6): "6230ba6049acd4ba2d5b747c90f43bbb7a56bfa06a238df201eff2dfafc8f2f9",
    (2, 1): "74fee08419f3f5fb715fe7c3eb6a445344911fdbfd2251ce24ca9c5b87094af0",
    (2, 2): "a0930b2d0486cdddb98f092eb607012839d4b515fed148e2747ee8d8bf2a0663",
    (2, 3): "e6540566438c3faca49836030e724574d3f56527f6a37b4bbb1a431be70c4422",
    (2, 4): "1d65bb4bee3be24de6fb6856518214bd04085ae6cb6094122c93be011be21945",
    (2, 5): "b2d00b6b2d7b1365c0874660283ff08e7d36adcccaefed8edc95b9dfae177733",
    (2, 6): "3236b265f10a032e6c866bd0578cb0bf6b6527939af39dc5ba823c2f4ef14858",
    (3, 1): "58730ac445a78a1205bc23e83fe5899db3ae2f04614f5b835df9b9a7642d6e73",
    (3, 2): "6085c0e521e64bcb780e0c4ee22573e18750b0a0b532e516d6fe31c087a3d518",
    (3, 3): "1182d4fb0d6d405e246db93bb51a61fbb7313cbc78fe8ee5a7bb5800b551147e",
    (3, 4): "f18051863908a939fef0bfd78577545b361433d83c527c4fa202c023db84faa8",
    (3, 5): "ee704bcce058b5bf9ee493f6c119b631d40a9d7673100ed69044762d71560398",
    (3, 6): "fe6686802b85275109e116cc283e2471d7ed813b03b021aac19f1abddcd438bd",
    (4, 1): "e2c1690dfcc85c5cc0b5f9d0ab10c4a9e1253df7d8e946f8530e2a75ad1a5057",
    (4, 2): "b27bcb5a06647eca8c5b29687810aa437dbf80e31864d58990fc063697a1a43d",
    (4, 3): "7bdf62481a5d4e9cb8797fc30c2cf1c62889fe62f7d894981c4cb9593d289957",
    (4, 4): "13bdb93599fe19d3c39e4a2b344e0199b10bc71f28880312f4777550d44babcd",
    (4, 5): "aba60c1fdbfd405a3f41ccfdf790ed9794255a51a6e94115639bcc514fba0fdd",
    (4, 6): "df7a9f681b69d2f6deeb2c93434a2445ef4d5a2e1844063886a498ad4e23990f",
    (5, 1): "b59d78ccf07f151611e9168b0bcf5472137b10b2e0daf0cfa6dc6761103297d9",
    (5, 2): "f3d1ccd81ab6f5867eb421e1134d51698e1a9bbeaa4b2794cc8e960d58572572",
    (5, 3): "d1d04d02c6d170d8c0e8be79425706e9848b4f141065a57c682ffa4b6c9820b6",
    (5, 4): "f865648cc61f19448fa453bc198ca6a7799af278c5f386bffd7239143746a173",
    (5, 5): "ecda9a066557e344644bb36d510ff49542325357fdde14ca7d9ba34b5d948b49",
    (5, 6): "2363e0aa140e66cf5191e643b31946b0f32d75f2fe9214ea2ea06a149bdcef1d",
    (6, 1): "94c180d646945bf8301317b0f3a78db294bca65a54d477624212e34f775204ec",
    (6, 2): "9831968e5af2dd6f1bca88f2ebea8b05cb8dea33875e2f77f0ab838f02cd459d",
    (6, 3): "18b97591b1a6b21514f5de888bb9f3120693909f47588492c45d76449a0f2fff",
    (6, 4): "e5d04d07343114084659058fb0f843a37d1dc723f63920cca44d4b4767f9144c",
    (6, 5): "6035c9a656a100202a7eeb7c80b7be59fd41b9bc2a0436c6416df4869ff92207",
    (6, 6): "6f555cf15a23501fd177f0d23f2a6858a4484fc2b769411955d707a1288b7944",
    (7, 1): "d23e47356a8089ec285f883a73dc892c6f97544030268f09114e6f35dfd6e55b",
    (7, 2): "11858c4896e043bbd042b2d44df6ddaa6e016f97cdcfa6e8b7ad09012f98c451",
    (7, 3): "e05d7d56b0f43ee2d4cbf6c8e4964d4589fff2947d5471c9c6e70f417dfc8952",
    (7, 4): "c60730a8e83f853b499725deb96a5ab0d3d14dbe72ea4d3dbda7e869ba5e6457",
    (7, 5): "ae18751df444ca469b6016fdead0602f26bfeadc416a10288514490826bd4ee4",
}

# the paper's G(2, 4), written out
G24 = "R^2 + 4*R + P*R + Q*R + 1"


def digest(value):
    """sha256 of the printed value, as PINNED holds it."""
    return hashlib.sha256(str(value).encode()).hexdigest()


# Every route's domain is n >= 0, l >= 1 and d in 0..l-1, checked in that
# order, where cssp names l < 1 as its class k = l - 1 < 0; the operator
# route also needs l >= 2 and n <= 7.  The refusal a route, or a command
# of words, gives at (n, l, d), or None where it answers.
def _refusal(words, n, l, d):
    if n < 0:
        return f"need n >= 0, got n = {n}"
    if l < 1:
        return (f"need k >= 0, got k = {l - 1}" if "cssp" in words
                else f"need l >= 1, got l = {l}")
    if words == ("gf", "operator") and l < 2:
        return "the weighted operator formula needs l >= 2"
    if words == ("gf", "operator") and n > 7:
        return f"n = {n} is past the operator route's reach, n <= 7"
    if d is not None and not 0 <= d <= l - 1:
        return f"d = {d} not in 0..{l - 1}"
    return None


def gf_by(route, n, l, d=None):
    """The route's value at (n, l, d), called through its GF_ROUTES row as
    `gf <route>` calls it (cssp's class k is l - 1)."""
    return _call(GF_ROUTES[route], SimpleNamespace(n=n, l=l, k=l - 1, d=d))


def cells(route, ns, ls, ds=range):
    """(n, l, d) for n in ns, l in ls and each d in ds(l), by default
    0..l-1, where the route reads d (None where it reads none)."""
    reads_d = "--d" in GF_ROUTES[route][-1]
    return [(n, l, d) for n in ns for l in ls
            for d in (ds(l) if reads_d else (None,))]


# the domain's edges: n = 0 and l = 1, where the routes once split, n = -1,
# l = 0 and a d one past each end of 0..l-1, which are refused, and n = 8,
# past the operator route's reach
EDGES = {route: cells(route,
                      (0, 1, 2, -1) + ((8,) if route == "operator" else ()),
                      (1, 2, 3, 0), lambda l: sorted({-1, 0, l - 1, l}))
         for route in GF_ROUTES}


# every route runs the grid n <= 4, l = 1..5; these cells go beyond it
BEYOND_THE_GRID = {
    "ast": cells("ast", (6,), range(2, 5)),
    "cssp": cells("cssp", (6,), (5,)),
    "operator": [(5, 3, None)],
    "paths": [(6, l, 1) for l in range(2, 5)],
}


# each route at the pinned (n, l) it reaches within the suite's time, at
# every d: cssp at n <= 5 and at n = 6 with l <= 4, the operator route at
# l >= 2 and n <= 5, the others at every pinned cell
PIN_CELLS = {
    route: [cell for n, l in PINNED if reached(n, l)
            for cell in cells(route, (n,), (l,))]
    for route, reached in {
        "ast": lambda n, l: True,
        "cssp": lambda n, l: n <= 5 or (n == 6 and l <= 4),
        "det": lambda n, l: True,
        "operator": lambda n, l: l >= 2 and n <= 5,
        "paths": lambda n, l: True,
    }.items()}


# each route at the larger cells CI runs (tests/ci_sizes.py, under python
# and python -O), where it must equal gf_det, and print PINNED's bytes at
# (6, 4) and (7, 5): the -O run checks gf_det against the routes that do not
# share its kernel at nine (n, l), and its bytes at (7, 5)
CI_CELLS = {
    "ast": cells("ast", (9, 10), (4,)),
    "cssp": [(6, 4, 0), (6, 4, 1), (6, 4, 3), (7, 5, 0), (7, 5, 1),
             (7, 5, 4), (8, 5, 1), (9, 5, 0), (9, 5, 1), (9, 5, 4)],
    "det": cells("det", (7,), (5,)),
    "operator": cells("operator", (5, 6, 7), (3,)),
    "paths": [(12, 4, 0), (12, 4, 3), (16, 4, 1)],
}


def answers(table=None):
    """{(route, n, l, d): the route's value there, or its refusal's
    message}.  table maps a route to its (n, l, d) cells; by default every
    route runs the grid, EDGES and BEYOND_THE_GRID, each cell once."""
    if table is None:
        table = {route: list(dict.fromkeys(
            cells(route, range(5), range(1, 6)) + EDGES[route]
            + BEYOND_THE_GRID.get(route, []))) for route in GF_ROUTES}
    got = {}
    for route, route_cells in table.items():
        for n, l, d in route_cells:
            try:
                got[route, n, l, d] = gf_by(route, n, l, d)
            except ValueError as e:
                got[route, n, l, d] = str(e)
    return got


def mismatches(table=None, got=None):
    """Each (route, n, l, d) whose answer is not gf_det's value, or does not
    print PINNED's bytes where (n, l) is pinned, or whose refusal is not
    _refusal's message.  got is answers(table), computed here unless
    given."""
    if got is None:
        got = answers(table)
    det = functools.cache(gf_det)  # one gf_det per (n, l)
    found = []
    for (route, n, l, d), answer in got.items():
        refusal = _refusal(("gf", route), n, l, d)
        if refusal is not None:
            right = answer == refusal
        else:
            right = answer == det(n, l) and (
                (n, l) not in PINNED or digest(answer) == PINNED[n, l])
        if not right:
            found.append((route, n, l, d))
    return found


def test_every_route_answers_as_gf_det_at_every_cell():
    assert mismatches() == []


def test_every_route_has_ci_cells_that_it_answers():
    # a cell CI runs is one the route answers, with a d where it reads one
    assert set(CI_CELLS) == set(GF_ROUTES) and all(CI_CELLS.values())
    assert [(route, *cell) for route, route_cells in CI_CELLS.items()
            for cell in route_cells
            if _refusal(("gf", route), *cell) is not None
            or (cell[2] is None) == ("--d" in GF_ROUTES[route][-1])] == []


def test_the_papers_example_is_pinned():
    assert digest(G24) == PINNED[2, 4]


@functools.cache
def _pin_answers(route):
    # PIN_CELLS are the suite's costliest cells: each route runs them once,
    # however many tests judge its answers
    return answers({route: PIN_CELLS[route]})


def pin_answers(routes=tuple(GF_ROUTES)):
    """answers(PIN_CELLS) of the given routes."""
    return {key: answer for route in routes
            for key, answer in _pin_answers(route).items()}


def test_every_route_prints_the_pinned_bytes():
    assert mismatches(got=pin_answers()) == []


def test_one_wrong_pin_is_the_one_mismatch(monkeypatch):
    monkeypatch.setitem(PINNED, (6, 3), PINNED[6, 4])
    assert mismatches(got=pin_answers()) == [
        (route, *cell) for route, route_cells in PIN_CELLS.items()
        for cell in route_cells if cell[:2] == (6, 3)]


def test_one_wrong_cell_is_the_one_mismatch(monkeypatch):
    real = pathfam.gf_via_paths

    def wrong_at_one_cell(n, l, d):
        off = Gf.weight(p=1) if (n, l, d) == (3, 4, 2) else Gf()
        return real(n, l, d) + off

    monkeypatch.setattr(pathfam, "gf_via_paths", wrong_at_one_cell)
    assert mismatches() == [("paths", 3, 4, 2)]


def test_one_wrong_refusal_is_the_one_mismatch(monkeypatch):
    # at an edge cell the route answers where it must refuse
    real = pathfam.gf_via_paths

    def answers_at_one_edge(n, l, d):
        return real(n, l, l - 1 if (n, l, d) == (2, 3, 3) else d)

    monkeypatch.setattr(pathfam, "gf_via_paths", answers_at_one_edge)
    assert mismatches() == [("paths", 2, 3, 3)]


def _add_in_place(states, key, value):
    """A merge that adds value into the stored value's terms in place,
    where add_into builds a new value."""
    if key not in states:
        states[key] = value
        return
    terms = states[key].terms
    for exp, c in value.terms.items():
        terms[exp] = terms.get(exp, 0) + c
        if not terms[exp]:
            del terms[exp]


def test_the_object_sweeps_need_a_merge_that_copies(monkeypatch):
    # a step of weight 1 passes its value on unmultiplied, so one value can
    # sit in several states, and a merge into one of them must not reach
    # the others
    for module in (trapezoid, cssp):
        monkeypatch.setattr(module, "add_into", _add_in_place)
    table = {route: cells(route, range(4), range(1, 5))
             for route in ("ast", "cssp")}
    assert {route for route, *_ in mismatches(table)} == {"ast", "cssp"}
