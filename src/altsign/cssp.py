"""Column strict shifted plane partitions of a fixed class.

A filling of a shifted Ferrers diagram (strict partition shape, row i
indented i-1 cells) with positive integers, weakly decreasing along rows
and strictly decreasing down columns.  It is of class k when the first
part of every row exceeds the row length by exactly k.  The cell in row i
at position t (1-based) sits in column j = i + t - 1.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .errors import OutOfRangeError
from .exactalg import Gf


class CsspStats(NamedTuple):
    p: int
    q: int
    r: int
    d: int


class Cssp(NamedTuple):
    k: int
    rows: tuple[tuple[int, ...], ...]


def structure_violation(rows):
    """None if rows form a column strict shifted plane partition (of any
    class, or none), else a message with the first offending cell."""
    shape = [len(r) for r in rows]
    for i in range(len(shape)):
        if shape[i] == 0:
            return f"row {i + 1} is empty"
        if i and shape[i] >= shape[i - 1]:
            return f"shape not strictly decreasing at row {i + 1}"
    for i, row in enumerate(rows, start=1):
        for t, c in enumerate(row, start=1):
            if c < 1:
                return f"row {i}, position {t}: part {c} is not positive"
            if t > 1 and c > row[t - 2]:
                return f"row {i}, position {t}: row increases"
            # the cell above sits in the previous row one position right
            if i > 1 and c >= rows[i - 2][t]:
                return f"row {i}, position {t}: column not strictly decreasing"
    return None


def validate(c: Cssp):
    """None if c is a valid class-k object; distinguishes structural
    violations from class violations."""
    problem = structure_violation(c.rows)
    if problem:
        return f"not a column strict shifted plane partition: {problem}"
    for i, row in enumerate(c.rows, start=1):
        if row[0] - len(row) != c.k:
            return (f"class violation: row {i} first part {row[0]} does not "
                    f"exceed length {len(row)} by {c.k}")
    return None


def enumerate_cssps(k: int, n: int) -> list[Cssp]:
    """All class-k column strict shifted plane partitions whose first row
    has at most n parts, the empty one first: a depth-first search over
    the rows that _next_rows allows below each row, listing every prefix."""
    _check_class(k, n)
    out = []

    def extend(rows):
        out.append(Cssp(k, rows))
        for row in _next_rows(k, n, rows[-1] if rows else None):
            extend(rows + (row,))

    extend(())
    return out


def _check_class(k, n):
    if k < 0 or n < 0:
        raise ValueError("need k >= 0 and n >= 0")


def _check_d(k, d):
    if d < 0 or (d > k and d != 0):
        raise OutOfRangeError(f"d = {d} not admissible for class {k}")


def _next_rows(k, n, above):
    """Every row that can follow `above` (None for the top row, which has
    at most n parts), by length and then lexicographically: shorter than
    `above`, first part its length plus k, weakly decreasing, and each
    part strictly below the part of `above` one position to its right."""
    for length in range(1, n + 1 if above is None else len(above)):
        first = length + k
        # part t of a row sits under part t + 1 of the row above
        ceiling = (first + 1,) * length if above is None else above[1:]
        if ceiling[0] <= first:
            continue
        rows = [(first,)]
        for t in range(1, length):
            rows = [row + (v,) for row in rows
                    for v in range(1, min(row[-1], ceiling[t] - 1) + 1)]
        yield from rows


def _pq(rows, d, start=1):
    """(p, q) of the weight W_d, one factor per part read from the part's
    value and position t alone: p counts parts equal to j - i + d (j the
    column), q counts parts equal to 1.  For d = 0, p skips parts equal to
    1 and q skips positions 1 and 2.  Each row's first part is at position
    start, so gf can weigh a row's parts after the first on their own."""
    p = q = 0
    for row in rows:
        for t, part in enumerate(row, start):
            if part == t - 1 + d and (d or part != 1):  # j = i + t - 1
                p += 1
            if part == 1 and (d or t >= 3):
                q += 1
    return p, q


def stats(c: Cssp, d: int) -> CsspStats:
    """(p_d, q, r): p_d counts parts equal to j - i + d (j the column),
    q counts parts equal to 1, r counts rows.  Requires 1 <= d <= k."""
    if not 1 <= d <= c.k:
        raise OutOfRangeError(f"d = {d} not in 1..{c.k}")
    return CsspStats(*_pq(c.rows, d), len(c.rows), d)


def weight(c: Cssp, d: int) -> Gf:
    """W_d(C) for 1 <= d <= k, or the d = 0 weight (admissible for every
    class) with its expanded (P+Q-1) factor."""
    _check_d(c.k, d)
    o = int(_has_factor(c.rows[-1][1:] if c.rows else (), d))
    return Gf.weight(*_pq(c.rows, d), len(c.rows), o)


def _has_factor(tail, d):
    """Whether an object whose bottom row has these parts after the first
    carries the (P+Q-1) factor of the d = 0 weight: its bottom row has
    second part 1."""
    return d == 0 and tail[:1] == (1,)


def gf(k: int, n: int, d: int) -> Gf:
    """Generating function of class-k objects with first row at most n,
    summed over bounds rather than over rows; no object or row is built.

    G(0, v) is the factor of v, a row's parts after the first, times the
    sum over the chains of rows below that row, the empty chain included.
    A row of length L under it has first part f = L + k < v_1, and its
    parts after the first form a weakly decreasing sigma with
    1 <= sigma_j <= b_j, where b_j is the least of f and v_2 - 1, ...,
    v_(j+1) - 1.  Each part's factor reads only its value and position
    (_pq), so G(0, v) is x^w(v) times the end factor plus R x^w(f) S(b)
    over L, where S(b) sums G(0, sigma) over those sigma.  G(j, v) is that
    sum with all but the last j coordinates of sigma fixed to v: a prefix
    sum over the value of the first free coordinate of G(j - 1, .), each
    prefix memoized, and S(b) = G(len(b), b).  The top row lies under the
    tail (n + k + 1,) * n, which no row can have and whose factor is 1: no
    part n + k + 1 is 1 or t - 1 + d at a position t <= n + 1.
    """
    _check_class(k, n)
    _check_d(k, d)
    sums = {}  # G: (j, v) -> {(p, q, r): coeff}
    # the factor of a row's first part, L + k at position 1, by length L
    heads = [_pq(((length + k,),), d) for length in range(n + 1)]
    ends = [Gf.weight(o=o).terms for o in (0, 1)]  # by _has_factor

    def fill(j, v):
        key = (j, v)
        if key in sums:
            return sums[key]
        if not j:
            p, q = _pq((v,), d, start=2)  # v: a row's parts after the first
            # the empty chain ends the object here (d = 0: the (P+Q-1)
            # factor when the row's second part is 1)
            out = {(ep + p, eq + q, er): c
                   for (ep, eq, er), c in ends[_has_factor(v, d)].items()}
            # part t + 1 of a row sits under part t + 2 of the row above
            caps = list(itertools.accumulate((x - 1 for x in v[1:]), min))
            for length in range(1, len(v) + 1):
                first = length + k
                if first >= v[0] or (length > 1 and caps[length - 2] < 1):
                    break
                bound = tuple(min(first, c) for c in caps[:length - 1])
                # v's factor and the new row's first part's
                sp, sq = p + heads[length][0], q + heads[length][1]
                for (ep, eq, er), c in fill(length - 1, bound).items():
                    e = (ep + sp, eq + sq, er + 1)  # each row adds one R
                    out[e] = out.get(e, 0) + c
            sums[key] = out
            return out
        i = len(v) - j
        head, rest = v[:i], v[i + 1:]
        # coordinate i set to c = 1..v_i and the later ones clamped to it:
        # G(j, .) of these are the prefix sums of G(j - 1, .), and a
        # memoized one was memoized with every prefix below it
        out = {}
        for c in range(1, v[i] + 1):
            u = head + (c,) + tuple(min(x, c) for x in rest)
            if (j, u) in sums:
                out = sums[j, u]
                continue
            out = dict(out)
            for e, x in fill(j - 1, u).items():
                out[e] = out.get(e, 0) + x
            sums[j, u] = out
        return out

    return Gf(fill(0, (n + k + 1,) * n))


def pretty(c: Cssp) -> str:
    """Indented text layout of the shifted filling."""
    if not c.rows:
        return "(empty)"
    width = max(len(str(p)) for row in c.rows for p in row)
    lines = []
    for i, row in enumerate(c.rows):
        pad = " " * ((width + 1) * i)
        lines.append(pad + " ".join(str(p).rjust(width) for p in row))
    return "\n".join(lines)


def to_json(c: Cssp) -> dict:
    d = {"class": c.k, "rows": [list(r) for r in c.rows]}
    d["stats"] = [
        {"d": dd, "p": w.p, "q": w.q, "r": w.r}
        for dd in range(1, c.k + 1)
        for w in [stats(c, dd)]
    ]
    return d


def from_json(d: dict) -> Cssp:
    c = Cssp(int(d["class"]),
             tuple(tuple(int(x) for x in row) for row in d["rows"]))
    problem = validate(c)
    if problem:
        raise ValueError(problem)
    return c
