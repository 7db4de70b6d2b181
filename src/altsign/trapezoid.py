"""Alternating sign trapezoids: validation, enumeration, statistics and
weights.

An (n,l)-alternating sign trapezoid has n centered rows of lengths
2n+l-2, 2n+l-4, ..., l over entries -1/0/1; row i (1-based, top to bottom)
occupies absolute columns i .. 2n+l-1-i of a width-(2n+l-2) grid.  For
l >= 2 every row sums to 1; l = 1 is the quasi variant where the bottom
row may sum to 0 or 1.  Nonzero entries alternate along rows and columns,
the topmost nonzero entry of every column is 1, and for l >= 2 the middle
l-2 columns sum to 0.
"""

from __future__ import annotations

from operator import add
from typing import NamedTuple

from .errors import check_domain
from .exactalg import Gf, add_into, times_weight


class AstStats(NamedTuple):
    p: int
    q: int
    r: int


class Trapezoid(NamedTuple):
    n: int
    l: int
    rows: tuple[tuple[int, ...], ...]

    @property
    def width(self) -> int:
        return 2 * self.n + self.l - 2


def column_label(n: int, l: int, c: int):
    """Signed label of column c; None for the middle columns (l >= 3).

    For l >= 2 the n leftmost columns carry -n..-1 and the n rightmost
    carry 1..n.  For l = 1 the 2n-1 columns carry -(n-1)..n-1 with the
    central column labeled 0.
    """
    if l == 1:
        return c - n
    if c <= n:
        return c - n - 1
    if c >= n + l - 1:
        return c - (n + l - 2)
    return None


def _columns(t: Trapezoid) -> list[list[int]]:
    """Each column's entries, top-down, in one pass over the rows (column c
    at c - 1; row i + 1 starts in column i + 1)."""
    columns = [[] for _ in range(t.width)]
    for i, row in enumerate(t.rows):
        for column, e in zip(columns[i:], row):
            column.append(e)
    return columns


def validate(t: Trapezoid):
    """None if t is a valid trapezoid, else a message locating the first
    violation.  Columns are scanned before rows (each column top-down:
    topmost-entry rule, then alternation, then the middle-column sum), so a
    flipped topmost 1 is reported against the topmost-entry condition.
    """
    n, l = t.n, t.l
    try:
        check_domain(n, l)
    except ValueError as e:
        return str(e)
    if len(t.rows) != n:
        return f"expected {n} rows, got {len(t.rows)}"
    for i, row in enumerate(t.rows, start=1):
        length = t.width + 2 - 2 * i
        if len(row) != length:
            return f"row {i}: expected length {length}, got {len(row)}"
        for c, e in enumerate(row, start=i):
            if e not in (-1, 0, 1):
                return f"row {i}, column {c}: entry {e} not in {{-1,0,1}}"
    for c, column in enumerate(_columns(t), start=1):
        prev = 0
        for i, e in enumerate(column, start=1):
            if e == 0:
                continue
            if prev == 0 and e == -1:
                return f"column {c}: topmost non-zero entry (row {i}) is -1"
            if e == prev:
                return f"column {c}: non-zero entries do not alternate at row {i}"
            prev = e
        if l >= 2 and n + 1 <= c <= n + l - 2 and sum(column) != 0:
            return f"middle column {c}: sum {sum(column)} != 0"
    for i, row in enumerate(t.rows, start=1):
        prev = 0
        for c, e in enumerate(row, start=i):
            if e == 0:
                continue
            if e == prev:
                return f"row {i}: non-zero entries do not alternate at column {c}"
            prev = e
        s = sum(row)
        if l == 1 and i == n:
            if s not in (0, 1):
                return f"bottom row: sum {s} not in {{0,1}}"
        elif s != 1:
            return f"row {i}: sum {s} != 1"
    return None


def interlace(slots) -> list[tuple[int, ...]]:
    """Every strictly increasing b with low_j <= b_j <= high_j for the j-th
    slot (low_j, high_j), in lexicographic order: the monotone-triangle
    rule between a row and the row it interlaces."""
    found = [()]
    for low, high in slots:
        found = [b + (c,) for b in found for c in
                 range(max(low, b[-1] + 1) if b else low, high + 1)]
    return found


def _steps(n: int, l: int, i: int, a: tuple[int, ...]):
    """(row, state for row i + 1, closed 1-columns) for every valid row i,
    sorted by row; the state a of row i is the sorted tuple of the columns
    it covers with partial sum 1, and the 1-columns b after it interlace a
    within lo..hi (b_1 <= a_1 <= b_2 <= ... <= a_k <= b_{k+1}).  The quasi
    bottom row (l = 1, a single cell) also takes b = a, the one row there
    that sums to 0.

    After row i its outermost two columns leave coverage (every column
    after row n).  A column that leaves with sum 1 is a 1-column, listed
    as (label, is_10) with is_10 when its last entry is 0; a middle column
    must leave with sum 0.
    """
    lo, hi = i, 2 * n + l - 1 - i
    minus_a = [-(c in a) for c in range(lo, hi + 1)]
    bs = interlace(zip((lo,) + a, a + (hi,)))
    if l == 1 and i == n:
        bs.append(a)
    steps = []
    for b in bs:
        ones = tuple((column_label(n, l, c), c in a)
                     for c in b if i == n or c in (lo, hi))
        if any(label is None for label, _ in ones):
            continue
        row = minus_a.copy()  # b - a
        for c in b:
            row[c - lo] += 1
        steps.append((tuple(row), tuple(c for c in b if lo < c < hi), ones))
    return sorted(steps)


def enumerate_trapezoids(n: int, l: int) -> list[Trapezoid]:
    """All (n,l)-alternating sign trapezoids, in row-major lexicographic
    order of the concatenated rows with -1 < 0 < 1: a depth-first search
    over the rows that _steps allows below each state of 1-columns.  For
    n = 0 that is the one empty trapezoid.
    """
    check_domain(n, l)
    rows: list[tuple[int, ...]] = []
    out: list[Trapezoid] = []
    below: dict = {}  # (i, state) -> the steps of row i over that state

    def fill_row(i, s):
        if i > n:  # past row n: the rows are a trapezoid
            out.append(Trapezoid(n, l, tuple(rows)))
            return
        if (i, s) not in below:
            below[i, s] = _steps(n, l, i, s)
        for row, state, _ in below[i, s]:
            rows.append(row)
            fill_row(i + 1, state)
            rows.pop()

    fill_row(1, ())
    return out


def one_columns(t: Trapezoid):
    """(label, is_10) for every column of t with sum 1, left to right;
    is_10 when its bottom entry is 0.  A middle column with sum 1 raises."""
    for c, column in enumerate(_columns(t), start=1):
        if sum(column) == 1:
            label = column_label(t.n, t.l, c)
            if label is None:
                raise ValueError(f"middle column {c} has sum 1")
            yield label, column[-1] == 0


def _exponents(ones) -> tuple[int, int, int, int]:
    """(p, q, r, o) of the weight P^p Q^q R^r (P+Q-1)^o of the 1-columns
    given as (label, is_10): p and q count 10-columns with label < 0 and
    > 0, r counts 1-columns with label <= 0, and o counts a central
    10-column (label 0, only for l = 1)."""
    p = q = r = o = 0
    for label, is_10 in ones:
        r += label <= 0
        if is_10:
            if label < 0:
                p += 1
            elif label > 0:
                q += 1
            else:
                o += 1
    return p, q, r, o


def stats(t: Trapezoid) -> AstStats:
    """The triple (p, q, r) for l >= 2: r counts 1-columns among the n
    leftmost columns, p/q count 10-columns (1-columns with bottom entry 0)
    among the n leftmost/rightmost columns."""
    if t.l < 2:
        raise ValueError("stats are defined for l >= 2; use weight for l = 1")
    return AstStats(*_exponents(one_columns(t))[:3])


def weight(t: Trapezoid) -> Gf:
    """W(T) as a generating-function value, from _exponents of its
    1-columns: the monomial P^p Q^q R^r of stats(t) for l >= 2; for l = 1
    the central column contributes (P+Q-1) when it is a 10-column."""
    return Gf.weight(*_exponents(one_columns(t)))


def gf(n: int, l: int) -> Gf:
    """Generating function of all (n,l)-alternating sign trapezoids, by a
    transfer matrix over the sets of 1-columns (monotone-triangle rows): a
    dict from the state before row i to the summed weight of the columns
    closed so far, without building a trapezoid."""
    check_domain(n, l)
    states = {(): Gf.weight()}
    for i in range(1, n + 1):
        after: dict = {}
        for s, g in states.items():
            for _, state, ones in _steps(n, l, i, s):
                add_into(after, state, times_weight(g, _exponents(ones)))
        states = after
    return states[()]


def column_partial_sums(t: Trapezoid) -> tuple[tuple[int, ...], ...]:
    """Replace every entry by the sum of its column down to its row (a 0/1
    array of the same shape); row i + 1 adds to row i's inner sums."""
    sums = (0,) * (t.width + 2)
    psums = []
    for row in t.rows:
        sums = tuple(map(add, sums[1:-1], row))
        psums.append(sums)
    return tuple(psums)


def to_json(t: Trapezoid) -> dict:
    d = {"n": t.n, "l": t.l, "rows": [list(r) for r in t.rows]}
    if t.l >= 2:
        s = stats(t)
        d["stats"] = {"p": s.p, "q": s.q, "r": s.r}
    return d


def pretty(t: Trapezoid) -> str:
    """The rows, one line each, every entry two characters wide."""
    rows = [" ".join(f"{e:2d}" for e in row) for row in t.rows]
    return "\n".join(rows) or "(empty)"  # no rows: as cssp.pretty prints it
