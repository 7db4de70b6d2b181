"""Column strict shifted plane partitions of a fixed class.

A filling of a shifted Ferrers diagram (strict partition shape, row i
indented i-1 cells) with positive integers, weakly decreasing along rows
and strictly decreasing down columns.  It is of class k when the first
part of every row exceeds the row length by exactly k.  The cell in row i
at position t (1-based) sits in column j = i + t - 1.

The objects of class k are in bijection with the non-intersecting families
of pathfam with l = k + 1 (to_paths, from_paths): a row of length m maps to
the path with index u = m - 1, the parts after the first are its west-step
heights plus one, and the first part is its end height plus one.  gf sums
in those path coordinates, with pathfam.step_weight on each west step.
`verify bijections` ties that rule to weight for n <= 5, l <= 4; the row
DP of the tests ties it to _pq.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import NotInImageError, OutOfRangeError, check_domain
from .exactalg import Gf, add_into
from .pathfam import (LatticePath, PathFamily, check_d, step_weight,
                      validate_path)


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
    check_domain(n, k + 1)
    out = []

    def extend(rows):
        out.append(Cssp(k, rows))
        for row in _next_rows(k, n, rows[-1] if rows else None):
            extend(rows + (row,))

    extend(())
    return out


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


def _pq(rows, d):
    """(p, q) of the weight W_d, one factor per part read from the part's
    value and position t alone: p counts parts equal to j - i + d (j the
    column), q counts parts equal to 1.  For d = 0, p skips parts equal to
    1 and q skips positions 1 and 2."""
    p = q = 0
    for row in rows:
        for t, part in enumerate(row, start=1):
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
    check_d(d, c.k + 1)
    o = int(_has_factor(c.rows[-1][1:] if c.rows else (), d))
    return Gf.weight(*_pq(c.rows, d), len(c.rows), o)


def _has_factor(tail, d):
    """Whether an object whose bottom row has these parts after the first
    carries the (P+Q-1) factor of the d = 0 weight: its bottom row has
    second part 1."""
    return d == 0 and tail[:1] == (1,)


def gf(k: int, n: int, d: int) -> Gf:
    """Generating function of class-k objects with first row at most n, as
    a sweep over s = y - x of their path families (l = k + 1): path u
    starts at (u, 0) at s = -u, weighing R, and ends at (0, u + l - 1) at
    s = u + l - 1.  A state is the sorted (x, u) of the paths present at s
    (Fisher's vicious walkers); each tick moves them one at a time in order
    of x (a broken profile), north or west onto a free site."""
    l = k + 1
    check_domain(n)
    check_d(d, l)
    states = {(): Gf.weight()}
    for s in range(1 - n, n + l - 1):
        if 0 <= -s < n:  # path -s starts at (-s, 0), left of every other
            for key, g in list(states.items()):
                if not key or key[0][0] != -s:
                    states[((-s, -s),) + key] = g * Gf.weight(r=1)
        u = s - l + 1
        if 0 <= u < n:  # path u, the first of the tuple if present, ends
            ended = {key: g for key, g in states.items()
                     if not key or key[0][1] != u}
            for key, g in states.items():
                if key[:1] == ((0, u),):
                    add_into(ended, key[1:], g)
            states = ended
        for i in range(max(map(len, states))):
            moved = {}
            for key, g in states.items():
                if len(key) <= i:  # no path i; no other key has its length
                    moved[key] = g
                    continue
                x, v = key[i]
                y = s + x
                if y < v + l - 1:  # a north step past it cannot end
                    add_into(moved, key, g)
                if x and (not i or key[i - 1][0] != x - 1):
                    e = step_weight(x, y, d)
                    add_into(moved, key[:i] + ((x - 1, v),) + key[i + 1:],
                             g * Gf.weight(*e) if any(e) else g)
            states = moved
    return states[()]


def to_paths(c: Cssp) -> PathFamily:
    """Row of length m -> path with index m - 1; west-step heights are the
    parts after the first minus one, traversed in reverse row order."""
    return PathFamily(c.k + 1, tuple(
        LatticePath(len(row) - 1, tuple(part - 1 for part in row[:0:-1]))
        for row in c.rows))


def from_paths(f: PathFamily) -> Cssp:
    """Inverse of to_paths, of class f.l - 1; NotInImageError if the heights
    do not assemble into such an object (cannot happen for vertex-disjoint
    families)."""
    for problem in (validate_path(p, f.l) for p in f.paths):
        if problem:
            raise NotInImageError(problem)
    c = Cssp(f.l - 1, tuple((p.u + f.l, *(h + 1 for h in p.heights[::-1]))
                            for p in f.paths))
    problem = validate(c)
    if problem:
        raise NotInImageError(problem)
    return c


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
