"""The one check of every gf route's answer and refusal: every row of
cli.GF_ROUTES against gf_det, cell by cell.

Each route reaches the theorem's one polynomial.  Where a route answers,
by the one domain rule _refusal, it must equal gf_det; where it refuses,
it must refuse with _refusal's message.  The default cells run the grid,
the domain's edges and a few cells beyond the grid; `gf <route>` prints a
value's sorted terms, so equal values print equal bytes.  This module
imports no other test module, so any of them can import its rule and its
call."""

from types import SimpleNamespace

from altsign import pathfam
from altsign.cli import GF_ROUTES, _call
from altsign.detform import gf_det
from altsign.exactalg import Gf

# Every route's domain is n >= 0, l >= 1 and d in 0..l-1, checked in that
# order; the operator route also needs l >= 2 and n <= 7.  The refusal a
# route gives at (n, l, d), or None where it answers.
OPERATOR_ROWS = (("gf", "operator"), ("tpoly",))


def _refusal(words, n, l, d):
    if n < 0:
        return f"need n >= 0, got n = {n}"
    if l < 1:
        return f"need l >= 1, got l = {l}"
    if words == ("gf", "operator") and l < 2:
        return "the weighted operator formula needs l >= 2"
    if words in OPERATOR_ROWS and n > 7:
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


def mismatches(table=None):
    """Each (route, n, l, d) whose answer is not gf_det's value, or whose
    refusal is not _refusal's message.  table maps a route to its (n, l, d)
    cells; by default every route runs the grid, EDGES and BEYOND_THE_GRID,
    each cell once."""
    if table is None:
        table = {route: list(dict.fromkeys(
            cells(route, range(5), range(1, 6)) + EDGES[route]
            + BEYOND_THE_GRID.get(route, []))) for route in GF_ROUTES}
    found = []
    for route, route_cells in table.items():
        for n, l, d in route_cells:
            want = _refusal(("gf", route), n, l, d) or gf_det(n, l)
            try:
                got = gf_by(route, n, l, d)
            except ValueError as e:
                got = str(e)
            if got != want:
                found.append((route, n, l, d))
    return found


def test_every_route_answers_as_gf_det_at_every_cell():
    assert mismatches() == []


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
