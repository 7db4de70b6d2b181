"""Non-intersecting lattice path families, the images of column strict
shifted plane partitions under cssp.to_paths.

A path with index u runs from (u, 0) to (0, u + l - 1) using north steps
(0,+1) and west steps (-1,0): u west steps and u + l - 1 north steps.  A
family, for one l, picks a subset of indices from {0..n-1}, one path each,
pairwise vertex-disjoint.  A path is its index u and west-step heights,
read against its family's l.  This module imports nothing from cssp, so
``gf paths`` never loads it.

Every step increases y - x by exactly one, so a path starting strictly
below the line y = x + d crosses it exactly once; the crossing step being
a west step is what the P-statistics record.

The weight of a path is a product of per-step factors that depend only on
where the step is (step_weight), so the generating function of all
families is one determinant (Gessel-Viennot, Adv. Math. 58 (1985), summed
over index subsets as in Stembridge, Adv. Math. 83 (1990)):

    sum over families of R^(#paths) * weight = det(I + R*M),

where M[u][v] is the weighted count of paths from (u, 0) to
(0, v + l - 1).  Expanding det(I + R*M) gives, for every index subset S,
R^|S| times the principal minor det M[S, S], a signed sum over path
systems from the sources S to the sinks S.  Swapping the tails of two
paths at their first common point keeps every step where it was, hence
the weight, and flips the sign, so intersecting systems cancel.  The
sources lie on the x-axis and the sinks on the y-axis, both ordered by
index away from the origin, so a path from (u, 0) to (0, v + l - 1) cuts
the quadrant between the smaller and the larger indices: vertex-disjoint
paths must join source u to sink u.  Only the identity pairing survives,
with sign +1, and it is exactly a family.

The determinant is taken as det(K(n) + R K(n) M) = det(I + R M), with
K(n) = I - Q S of determinant 1 (detform.k_matrix, S the shift below the
diagonal).  A path from (u, 0) takes all of its height-0 west steps before
its first north step, and each weighs Q, so M[u] = Q M[u-1] + N[u] with
N[u] the paths from (u, 0) that start north.  The one exception is the
d = 0 step from (1, 0) into the origin, which weighs P+Q-1.  Row u of
K(n) M is therefore N[u], which has no Q (at d = 0, row 1 is N[1] plus
P - 1), so every entry of the form is an integer combination of 1, P R, R
and Q, as in the determinant route's K(n) + R B(n, l): the one form
exactalg.det_gf takes, at the same C(n+3, 3) lattice points.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .errors import OutOfRangeError, check_domain
from .exactalg import Gf, det_gf


class LatticePath(NamedTuple):
    u: int
    heights: tuple[int, ...]  # of the u west steps, weakly increasing

    def points(self, l: int) -> tuple[tuple[int, int], ...]:
        """Up column x to the next west step's height, for x = u..0."""
        pts, x, y = [], self.u, 0
        for h in self.heights:
            pts += [(x, t) for t in range(y, h + 1)]
            x, y = x - 1, h
        pts += [(x, t) for t in range(y, self.u + l)]
        return tuple(pts)


def validate_path(p: LatticePath, l: int):
    h, top = p.heights, p.u + l - 1
    if len(h) != p.u:
        return f"path u={p.u} needs {p.u} west steps, got {len(h)}"
    if list(h) != sorted(h) or not all(0 <= y <= top for y in h):
        return (f"west-step heights {h} of path u={p.u} must weakly "
                f"increase within 0..{top}")


class PathFamily(NamedTuple):
    l: int
    paths: tuple[LatticePath, ...]  # sorted by index u descending


def paths_for_index(u: int, l: int) -> tuple[LatticePath, ...]:
    """All C(2u+l-1, u) paths for one index, in the lexicographic order of
    their west-step positions (the k-th at position height + k)."""
    return tuple(LatticePath(u, h) for h in
                 itertools.combinations_with_replacement(range(u + l), u))


def step_weight(x: int, y: int, d: int) -> tuple[int, int, int, int]:
    """Exponents (p, q, r, o) of the Gf.weight of the west step from (x, y)
    to (x - 1, y), with r = 0; north steps weigh 1.

    d >= 1: Q at height 0, and P when the step lands on y = x + d (every
    step raises y - x by one, so this is the path's only arrival there).
    d = 0: the same with the main diagonal, except that the step landing
    in the origin (on the diagonal and at height 0) weighs (P+Q-1)
    instead of P*Q.
    """
    if d == 0 and (x, y) == (1, 0):
        return 0, 0, 0, 1
    return int(y - x == d - 1), int(y == 0), 0, 0


def check_d(d: int, l: int) -> None:
    """check_domain's l check, then OutOfRangeError for d outside 0..l-1."""
    check_domain(l=l)
    if not 0 <= d <= l - 1:
        raise OutOfRangeError(f"d = {d} not in 0..{l - 1}")


def lgv_weight(f: PathFamily, d: int) -> Gf:
    """Family weight for 0 <= d <= f.l - 1: R per path times the product of
    step_weight over the west steps, built once from the exponent sums."""
    check_d(d, f.l)
    steps = [step_weight(path.u - k, y, d)  # the k-th from x = u - k
             for path in f.paths for k, y in enumerate(path.heights)]
    p, q, _, o = map(sum, zip((0, 0, 0, 0), *steps))
    return Gf.weight(p, q, len(f.paths), o)


def all_families(n: int, l: int):
    """Every non-intersecting family on subsets of {0..n-1} (brute force
    with an incremental disjointness filter), for drawing and as the
    oracle of gf_via_paths."""
    check_domain(n, l)
    cells = [[(p, frozenset(p.points(l))) for p in paths_for_index(u, l)]
             for u in range(n)]  # each path's point set, taken once
    for r in range(n + 1):
        for indices in itertools.combinations(range(n), r):
            chosen: list[LatticePath] = []

            def rec(pos, used):
                if pos == len(indices):
                    yield PathFamily(l, tuple(reversed(chosen)))
                    return
                for p, pts in cells[indices[pos]]:
                    if used & pts:
                        continue
                    chosen.append(p)
                    yield from rec(pos + 1, used | pts)
                    chosen.pop()

            yield from rec(0, frozenset())


def path_matrix(n: int, l: int, d: int) -> list[list[Gf]]:
    """M[u][v]: the weighted count of N/W paths from (u, 0) to
    (0, v + l - 1), by a step DP over the grid (one sweep per source)."""
    top = n + l - 2
    steps = {(x, y): Gf.weight(*step_weight(x, y, d))
             for x in range(1, n) for y in range(top + 1)}
    out = []
    for u in range(n):
        # column x of the sweep: the weighted count of paths reaching (x, y)
        column = [Gf.weight()] * (top + 1)
        for x in range(u - 1, -1, -1):
            west = [c * steps[x + 1, y] for y, c in enumerate(column)]
            column = [west[0]]
            for y in range(1, top + 1):
                column.append(column[-1] + west[y])
        out.append(column[l - 1:])
    return out


def det_matrix(n: int, l: int, d: int) -> list[list[Gf]]:
    """K(n) + R K(n) M, with M = path_matrix(n, l, d): the matrix whose
    determinant the route takes.  Row u of K(n) M is M[u] - Q M[u-1]."""
    from .detform import k_form  # only here: gf cssp never loads detform
    m = path_matrix(n, l, d)
    q = Gf.weight(q=1)
    return k_form([[a - q * b for a, b in zip(row, above)]
                   for row, above in zip(m, [[0] * n] + m)])


def gf_via_paths(n: int, l: int, d: int) -> Gf:
    """Generating function of all non-intersecting families, as
    det(I + R*M) = det(K(n) + R K(n) M) over the path matrix M."""
    check_domain(n)
    check_d(d, l)
    return det_gf(det_matrix(n, l, d))


# --- SVG rendering ---------------------------------------------------------

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
_CELL = 18  # grid spacing in pixels


def _family_group(f: PathFamily, d: int, n: int, origin):
    """SVG group for one family: grid, the dashed line y = x + d, the paths
    and their start/end markers."""
    max_x = max(n - 1, 1)
    max_y = n - 1 + f.l - 1 + 1
    ox, oy = origin

    def sx(x):
        return ox + x * _CELL

    def sy(y):
        return oy + (max_y - y) * _CELL  # flip: SVG y grows downwards

    import xml.etree.ElementTree as ET  # loaded only when drawing
    g = ET.Element("g")
    for x in range(max_x + 1):
        ET.SubElement(g, "line", x1=str(sx(x)), y1=str(sy(0)),
                      x2=str(sx(x)), y2=str(sy(max_y)),
                      stroke="#dddddd", **{"stroke-width": "1"})
    for y in range(max_y + 1):
        ET.SubElement(g, "line", x1=str(sx(0)), y1=str(sy(y)),
                      x2=str(sx(max_x)), y2=str(sy(y)),
                      stroke="#dddddd", **{"stroke-width": "1"})
    top = min(max_x, max_y - d)
    ET.SubElement(g, "line", x1=str(sx(0)), y1=str(sy(d)),
                  x2=str(sx(top)), y2=str(sy(top + d)),
                  stroke="#888888", **{"stroke-width": "1",
                                       "stroke-dasharray": "4 3"})
    for i, p in enumerate(f.paths):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{sx(x)},{sy(y)}" for x, y in p.points(f.l))
        ET.SubElement(g, "polyline", points=pts, fill="none",
                      stroke=color, **{"stroke-width": "2"})
        (x0, y0), (x1, y1) = (p.u, 0), (0, p.u + f.l - 1)  # start, end
        ET.SubElement(g, "circle", cx=str(sx(x0)), cy=str(sy(y0)),
                      r="3", fill=color)
        ET.SubElement(g, "rect", x=str(sx(x1) - 3), y=str(sy(y1) - 3),
                      width="6", height="6", fill=color)
    return g


def families_svg(families, d: int, n: int, l: int) -> str:
    """A composite sheet with one panel per family."""
    families = list(families)
    max_y = n - 1 + l - 1 + 1
    panel_w = (max(n - 1, 1) + 2) * _CELL
    panel_h = (max_y + 2) * _CELL
    per_row = max(1, min(6, len(families)))
    rows = (len(families) + per_row - 1) // per_row if families else 1
    import xml.etree.ElementTree as ET  # loaded only when drawing
    root = ET.Element("svg", xmlns="http://www.w3.org/2000/svg",
                      width=str(per_row * panel_w),
                      height=str(rows * panel_h))
    for idx, f in enumerate(families):
        ox = (idx % per_row) * panel_w + _CELL
        oy = (idx // per_row) * panel_h + _CELL
        root.append(_family_group(f, d, n, (ox, oy)))
    return ET.tostring(root, encoding="unicode")


def write_families_svg(path: str, n: int, l: int, d: int) -> int:
    """Render every non-intersecting family for (n, l) to one SVG file;
    returns the number of families drawn.  The sheet is rendered before
    the file is opened, so a failed render leaves no file behind."""
    check_domain(n)
    check_d(d, l)
    families = list(all_families(n, l))
    sheet = families_svg(families, d, n, l)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(sheet)
    return len(families)
