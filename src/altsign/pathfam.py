"""Non-intersecting lattice path families and their correspondence with
column strict shifted plane partitions.

A path with index u runs from (u, 0) to (0, u + l - 1) using north steps
(0,+1) and west steps (-1,0): u west steps and u + l - 1 north steps.  A
family picks a subset of indices from {0..n-1}, one path each, pairwise
vertex-disjoint.  Under the correspondence a row of length m maps to the
path with index u = m - 1: the parts after the first are the west-step
heights plus one, and the first part is the end height plus one.

Every step increases y - x by exactly one, so a path starting strictly
below the line y = x + d crosses it exactly once; the crossing step being
a west step is what the P-statistics record.
"""

from __future__ import annotations

import itertools
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from functools import lru_cache

from .cssp import Cssp
from .cssp import validate as validate_cssp
from .errors import NotInImageError, OutOfRangeError
from .exactalg import Gf


@dataclass(frozen=True)
class LatticePath:
    u: int
    l: int
    steps: str  # 'N'/'W' sequence from (u, 0) to (0, u + l - 1)

    def points(self) -> tuple[tuple[int, int], ...]:
        x, y = self.u, 0
        pts = [(x, y)]
        for s in self.steps:
            if s == "N":
                y += 1
            else:
                x -= 1
            pts.append((x, y))
        return tuple(pts)

    def west_heights(self) -> list[int]:
        """Heights of the west steps in path order (weakly increasing)."""
        out = []
        y = 0
        for s in self.steps:
            if s == "N":
                y += 1
            else:
                out.append(y)
        return out


def validate_path(p: LatticePath):
    if p.steps.count("W") != p.u or p.steps.count("N") != p.u + p.l - 1:
        return (f"path u={p.u} needs {p.u} west and {p.u + p.l - 1} north "
                f"steps, got {p.steps!r}")
    if set(p.steps) - {"N", "W"}:
        return f"unknown step in {p.steps!r}"
    return None


@dataclass(frozen=True)
class PathFamily:
    l: int
    paths: tuple[LatticePath, ...]  # sorted by index u descending

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(p.u for p in self.paths)


def is_nonintersecting(f: PathFamily) -> bool:
    seen = set()
    for p in f.paths:
        pts = set(p.points())
        if seen & pts:
            return False
        seen |= pts
    return True


@lru_cache(maxsize=None)
def paths_for_index(u: int, l: int) -> tuple[LatticePath, ...]:
    """All C(2u+l-1, u) paths for one index."""
    total = 2 * u + l - 1
    out = []
    for west_at in itertools.combinations(range(total), u):
        steps = ["N"] * total
        for i in west_at:
            steps[i] = "W"
        out.append(LatticePath(u, l, "".join(steps)))
    return tuple(out)


def cssp_to_paths(c: Cssp) -> PathFamily:
    """Row of length m -> path with index m - 1; west-step heights are the
    parts after the first minus one, traversed in reverse row order."""
    l = c.k + 1
    paths = []
    for row in c.rows:
        u = len(row) - 1
        heights = [part - 1 for part in row[1:]]  # weakly decreasing
        steps = []
        y = 0
        for h in reversed(heights):
            steps.append("N" * (h - y))
            steps.append("W")
            y = h
        steps.append("N" * (u + l - 1 - y))
        paths.append(LatticePath(u, l, "".join(steps)))
    return PathFamily(l, tuple(paths))


def paths_to_cssp(f: PathFamily, l: int) -> Cssp:
    """Inverse correspondence; NotInImageError if the heights do not
    assemble into a class-(l-1) object (cannot happen for vertex-disjoint
    families)."""
    rows = []
    for p in f.paths:
        problem = validate_path(p)
        if problem:
            raise NotInImageError(problem)
        first = p.u + l
        parts = [first] + [h + 1 for h in reversed(p.west_heights())]
        rows.append(tuple(parts))
    c = Cssp(l - 1, tuple(rows))
    problem = validate_cssp(c)
    if problem:
        raise NotInImageError(problem)
    return c


def _diagonal_arrival(path: LatticePath, d: int):
    """The step (index into path.steps) that first lands on y = x + d, or
    None when the path starts on or above the line.  Since y - x increases
    by one per step, the arrival index is u + d - 1 when it exists."""
    start_level = -path.u
    if start_level >= d:
        return None
    idx = path.u + d - 1
    return idx if idx < len(path.steps) else None


def path_weight(path: LatticePath, d) -> Gf:
    """P,Q-weight of a single path.

    d = None ("P = 1 mode"): Q per west step at height 0.
    d >= 1: additionally P when the line y = x + d is reached through a
    west step.
    d = 0: P when the main diagonal is reached through a west step away
    from the origin, (P+Q-1) when it is reached in the origin, and Q only
    for west steps on the x-axis not containing the origin.
    """
    pts = path.points()
    if d is None:
        q = sum(1 for i, s in enumerate(path.steps)
                if s == "W" and pts[i][1] == 0)
        return Gf.monomial(q=q)
    if d >= 1:
        q = sum(1 for i, s in enumerate(path.steps)
                if s == "W" and pts[i][1] == 0)
        arrival = _diagonal_arrival(path, d)
        p = 1 if arrival is not None and path.steps[arrival] == "W" else 0
        return Gf.monomial(p=p, q=q)
    # d = 0
    q = sum(1 for i, s in enumerate(path.steps)
            if s == "W" and pts[i][1] == 0 and pts[i + 1][0] >= 1)
    w = Gf.monomial(q=q)
    arrival = _diagonal_arrival(path, 0)
    if arrival is not None and path.steps[arrival] == "W":
        if pts[arrival + 1] == (0, 0):
            w = w * Gf.p_plus_q_minus_1()
        else:
            w = w * Gf.monomial(p=1)
    return w


def lgv_weight(f: PathFamily, d, l: int) -> Gf:
    """Family weight: R per path times the per-path P,Q-factors.  d = None
    selects the P = 1 mode; otherwise 0 <= d <= l - 1."""
    if d is not None and not 0 <= d <= l - 1:
        raise OutOfRangeError(f"d = {d} not in 0..{l - 1}")
    w = Gf.monomial(r=len(f.paths))
    for p in f.paths:
        w = w * path_weight(p, d)
    return w


def all_families(n: int, l: int):
    """Every non-intersecting family on subsets of {0..n-1} (brute force
    with an incremental disjointness filter)."""
    if n < 0:
        raise ValueError(f"need n >= 0, got n = {n}")
    for r in range(n + 1):
        for indices in itertools.combinations(range(n), r):
            chosen: list[LatticePath] = []

            def rec(pos, used):
                if pos == len(indices):
                    yield PathFamily(l, tuple(reversed(chosen)))
                    return
                for p in paths_for_index(indices[pos], l):
                    pts = set(p.points())
                    if used & pts:
                        continue
                    chosen.append(p)
                    yield from rec(pos + 1, used | pts)
                    chosen.pop()

            yield from rec(0, frozenset())


def gf_via_paths(n: int, l: int, d: int) -> Gf:
    """Generating function of all non-intersecting families."""
    if not 0 <= d <= l - 1:
        raise OutOfRangeError(f"d = {d} not in 0..{l - 1}")
    total = Gf.zero()
    for f in all_families(n, l):
        total += lgv_weight(f, d, l)
    return total


def to_json(f: PathFamily) -> dict:
    return {"l": f.l, "paths": [{"u": p.u, "steps": p.steps} for p in f.paths]}


def from_json(d: dict) -> PathFamily:
    paths = tuple(LatticePath(int(p["u"]), int(d["l"]), str(p["steps"]))
                  for p in d["paths"])
    f = PathFamily(int(d["l"]), paths)
    for p in f.paths:
        problem = validate_path(p)
        if problem:
            raise ValueError(problem)
    return f


# --- SVG rendering ---------------------------------------------------------

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _family_group(f: PathFamily, d, n: int, cell: int, origin):
    """SVG group for one family: grid, the dashed line y = x + d, the paths
    and their start/end markers."""
    max_x = max(n - 1, 1)
    max_y = n - 1 + f.l - 1 + 1
    ox, oy = origin

    def sx(x):
        return ox + x * cell

    def sy(y):
        return oy + (max_y - y) * cell  # flip: SVG y grows downwards

    g = ET.Element("g")
    for x in range(max_x + 1):
        ET.SubElement(g, "line", x1=str(sx(x)), y1=str(sy(0)),
                      x2=str(sx(x)), y2=str(sy(max_y)),
                      stroke="#dddddd", **{"stroke-width": "1"})
    for y in range(max_y + 1):
        ET.SubElement(g, "line", x1=str(sx(0)), y1=str(sy(y)),
                      x2=str(sx(max_x)), y2=str(sy(y)),
                      stroke="#dddddd", **{"stroke-width": "1"})
    if d is not None:
        top = min(max_x, max_y - d)
        ET.SubElement(g, "line", x1=str(sx(0)), y1=str(sy(d)),
                      x2=str(sx(top)), y2=str(sy(top + d)),
                      stroke="#888888", **{"stroke-width": "1",
                                           "stroke-dasharray": "4 3"})
    for i, p in enumerate(f.paths):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{sx(x)},{sy(y)}" for x, y in p.points())
        ET.SubElement(g, "polyline", points=pts, fill="none",
                      stroke=color, **{"stroke-width": "2"})
        (x0, y0), (x1, y1) = p.points()[0], p.points()[-1]
        ET.SubElement(g, "circle", cx=str(sx(x0)), cy=str(sy(y0)),
                      r="3", fill=color)
        ET.SubElement(g, "rect", x=str(sx(x1) - 3), y=str(sy(y1) - 3),
                      width="6", height="6", fill=color)
    return g


def families_svg(families, d, n: int, l: int, cell: int = 18) -> str:
    """A composite sheet with one panel per family."""
    families = list(families)
    max_y = n - 1 + l - 1 + 1
    panel_w = (max(n - 1, 1) + 2) * cell
    panel_h = (max_y + 2) * cell
    per_row = max(1, min(6, len(families)))
    rows = (len(families) + per_row - 1) // per_row if families else 1
    root = ET.Element("svg", xmlns="http://www.w3.org/2000/svg",
                      width=str(per_row * panel_w),
                      height=str(rows * panel_h))
    for idx, f in enumerate(families):
        ox = (idx % per_row) * panel_w + cell
        oy = (idx // per_row) * panel_h + cell
        root.append(_family_group(f, d, n, cell, (ox, oy)))
    return ET.tostring(root, encoding="unicode")


def write_families_svg(path: str, n: int, l: int, d) -> int:
    """Render every non-intersecting family for (n, l) to one SVG file;
    returns the number of families drawn."""
    families = list(all_families(n, l))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(families_svg(families, d, n, l))
    return len(families)
