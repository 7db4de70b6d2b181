import hashlib
import itertools
import xml.etree.ElementTree as ET
from math import comb

import pytest

from altsign import cssp, detform
from altsign.cssp import Cssp, enumerate_cssps, from_paths, to_paths
from altsign.errors import NotInImageError, OutOfRangeError
from altsign.exactalg import Gf, k_matrix
from altsign.pathfam import (LatticePath, PathFamily, all_families,
                             det_matrix, families_svg, gf_via_paths,
                             lgv_weight, path_matrix, paths_for_index,
                             validate_path, write_families_svg)
from test_exactalg import det_bareiss, gf_value

def steps(path: LatticePath, l: int) -> str:
    """The 'N'/'W' word of a path from (u, 0) to (0, u + l - 1)."""
    ys = (0, *path.heights)
    return "".join("N" * (h - y) + "W" for y, h in zip(ys, ys[1:])) \
        + "N" * (path.u + l - 1 - ys[-1])


def is_nonintersecting(f: PathFamily) -> bool:
    """No lattice point lies on two paths: the point sets' sizes add up."""
    sets = [set(p.points(f.l)) for p in f.paths]
    return len(set().union(*sets)) == sum(map(len, sets))


# the figure's class-2 object
FIGURE = Cssp(2, ((7, 7, 6, 6, 3), (6, 5, 5, 2), (4, 4), (3,)))


class TestCorrespondence:
    def test_figure_family(self):
        fam = to_paths(FIGURE)
        assert tuple(p.u for p in fam.paths) == (4, 3, 1, 0)
        # west-step heights per row, in row order (reverse of path order)
        heights = [p.heights[::-1] for p in fam.paths]
        assert heights == [(6, 5, 5, 2), (4, 4, 1), (3,), ()]
        assert is_nonintersecting(fam)

    def test_empty(self):
        fam = to_paths(Cssp(2, ()))
        assert fam.paths == ()
        assert from_paths(fam).rows == ()

    def test_single_row_all_north(self):
        # class 3 row "4": one path from (0,0) to (0,3), no west steps
        fam = to_paths(Cssp(3, ((4,),)))
        assert tuple(p.u for p in fam.paths) == (0,)
        assert steps(fam.paths[0], 4) == "NNN"

    def test_roundtrip(self):
        for l in range(1, 6):
            for n in range(0, 5):
                for c in enumerate_cssps(l - 1, n):
                    fam = to_paths(c)
                    assert is_nonintersecting(fam)
                    assert from_paths(fam) == c

    def test_not_in_image(self):
        # two identical paths cannot come from a shifted shape
        p = LatticePath(1, (0,))
        assert not is_nonintersecting(PathFamily(2, (p, p)))
        with pytest.raises(NotInImageError):
            from_paths(PathFamily(2, (p, p)))


    def test_a_path_is_read_against_its_family_l(self):
        # a path has no l of its own, so it cannot disagree with its family
        with pytest.raises(TypeError):
            LatticePath(1, 2, (0,))
        p = LatticePath(1, (0,))
        for l in (2, 3):
            fam = PathFamily(l, (p,))
            assert from_paths(fam) == Cssp(l - 1, ((l + 1, 1),))
            assert to_paths(from_paths(fam)) == fam
            assert lgv_weight(fam, l - 1) == Gf.weight(q=1, r=1)
        with pytest.raises(OutOfRangeError):
            lgv_weight(PathFamily(2, (p,)), 2)


class TestWeights:
    def test_empty_family(self):
        assert lgv_weight(PathFamily(4, ()), 2) == Gf.weight()

    def test_single_west_then_north(self):
        # row "3 1" of class 1: path W at height 0 then NN
        p = LatticePath(1, (0,))
        fam = PathFamily(2, (p,))
        assert lgv_weight(fam, 1) == Gf.weight(q=1, r=1)
        assert from_paths(fam).rows == ((3, 1),)

    def test_q_counts_ones_for_p1_mode(self):
        # for l >= 2 the west steps at height 0 are exactly the parts 1:
        # every d >= 1 weight is a monomial whose value at P = 1 is
        # Q^(#parts 1) R^(#rows)
        for l in (2, 3, 4):
            for c in enumerate_cssps(l - 1, 3):
                fam = to_paths(c)
                ones = sum(1 for row in c.rows for part in row if part == 1)
                for d in range(1, l):
                    [((_, q, r), coeff)] = lgv_weight(fam, d).terms.items()
                    assert (q, r, coeff) == (ones, len(c.rows), 1), (c, d)

    def test_weight_transport(self):
        # lgv_weight equals W_d object by object, for every admissible d
        for l in range(1, 6):
            for n in range(0, 5):
                for c in enumerate_cssps(l - 1, n):
                    fam = to_paths(c)
                    for d in range(0, l):
                        assert lgv_weight(fam, d) == cssp.weight(c, d), \
                            (c, d)

    def test_d_range_checked(self):
        fam = to_paths(FIGURE)
        with pytest.raises(OutOfRangeError):
            lgv_weight(fam, 3)

    def test_l_below_1_named_before_d(self, tmp_path):
        # there is no d in 0..l-1 for l < 1: each entry point blames l
        out = tmp_path / "families.svg"
        for call in (lambda l: lgv_weight(PathFamily(l, ()), 0),
                     lambda l: gf_via_paths(2, l, 0),
                     lambda l: write_families_svg(str(out), 2, l, 0)):
            for l in (0, -1):
                with pytest.raises(ValueError,
                                   match=f"need l >= 1, got l = {l}$") as info:
                    call(l)
                assert not isinstance(info.value, OutOfRangeError)
        assert not out.exists()


# Weights as one Gf product per west step, and step strings appended one
# run at a time: independent oracles for lgv_weight and cssp.to_paths.

def _step_factor(x, y, d):
    if d == 0 and (x, y) == (1, 0):
        return Gf.weight(o=1)
    return Gf.weight(p=int(y - x == d - 1), q=int(y == 0))


def _product_path_weight(path, l, d):
    w = Gf.weight()
    for (x, y), step in zip(path.points(l), steps(path, l)):
        if step == "W":
            w = w * _step_factor(x, y, d)
    return w


def _product_lgv_weight(f, d):
    w = Gf.weight(r=len(f.paths))
    for p in f.paths:
        w = w * _product_path_weight(p, f.l, d)
    return w


def _appended_words(c):
    l = c.k + 1
    words = []
    for row in c.rows:
        u = len(row) - 1
        word = []
        y = 0
        for h in reversed([part - 1 for part in row[1:]]):
            word.append("N" * (h - y))
            word.append("W")
            y = h
        word.append("N" * (u + l - 1 - y))
        words.append("".join(word))
    return words


class TestExponentOracles:
    def test_families_of_cssps(self):
        for k in range(0, 5):
            for n in range(0, 5):
                for c in enumerate_cssps(k, n):
                    fam = to_paths(c)
                    assert fam.l == k + 1, c
                    assert [steps(p, k + 1) for p in fam.paths] \
                        == _appended_words(c), c
                    assert tuple(p.u for p in fam.paths) \
                        == tuple(len(row) - 1 for row in c.rows), c
                    for d in range(k + 1):
                        w = lgv_weight(fam, d)
                        expected = _product_lgv_weight(fam, d)
                        assert (w, str(w)) == (expected, str(expected)), \
                            (c, d)
                        for p in fam.paths:
                            one = PathFamily(k + 1, (p,))
                            assert lgv_weight(one, d) \
                                == Gf.weight(r=1) \
                                * _product_path_weight(p, k + 1, d), (p, d)

    def test_paths_for_index_against_words(self):
        # every placement of u west steps among 2u + l - 1 steps, in the
        # lexicographic order of the positions, and the points walked
        # step by step along each word
        for u in range(0, 5):
            for l in range(1, 5):
                words = []
                for west_at in itertools.combinations(range(2 * u + l - 1),
                                                      u):
                    words.append("".join("W" if i in west_at else "N"
                                         for i in range(2 * u + l - 1)))
                paths = paths_for_index(u, l)
                assert [steps(p, l) for p in paths] == words, (u, l)
                for p in paths:
                    pts = [(u, 0)]
                    for step in steps(p, l):
                        x, y = pts[-1]
                        pts.append((x - 1, y) if step == "W" else (x, y + 1))
                    assert p.points(l) == tuple(pts), p

    def test_validate_path(self):
        assert validate_path(LatticePath(2, (0, 3)), 2) is None
        for heights in ((0,), (0, 1, 1), (1, 0), (-1, 0), (0, 4)):
            assert validate_path(LatticePath(2, heights), 2), heights

    def test_intersecting_pairs(self):
        # two paths may share the d = 0 origin step: (P+Q-1)^2
        for l in range(1, 4):
            paths = [p for u in range(3) for p in paths_for_index(u, l)]
            for a in paths:
                for b in paths:
                    fam = PathFamily(l, (a, b))
                    for d in range(l):
                        assert lgv_weight(fam, d) \
                            == _product_lgv_weight(fam, d), (fam, d)
        twice = PathFamily(2, (LatticePath(1, (0,)),) * 2)
        assert lgv_weight(twice, 0) \
            == Gf.weight(r=2) * Gf.weight(o=1) ** 2


class TestCrossing:
    def test_unique_first_arrival(self):
        # every step raises y - x by one, so each path starting strictly
        # below y = x + d meets the line exactly once
        for l in (2, 4):
            for u in (0, 1, 2):
                for d in range(1, l):
                    for p in paths_for_index(u, l):
                        on_line = [i for i, pt in enumerate(p.points(l))
                                   if pt[1] - pt[0] == d]
                        assert len(on_line) == 1


class TestGfViaPaths:
    def test_is_the_sum_over_families(self):
        for n in range(0, 5):
            for l in range(1, 5):
                families = list(all_families(n, l))
                for d in range(0, l):
                    total = Gf()
                    for f in families:
                        total += lgv_weight(f, d)
                    assert gf_via_paths(n, l, d) == total, (n, l, d)

    def test_path_matrix_counts_paths(self):
        # at P = Q = 1 every path weighs 1: M[u][v] = C(u + v + l - 1, u)
        m = path_matrix(4, 3, 1)
        assert [[gf_value(e) for e in row] for row in m] == \
            [[comb(u + v + 2, u) for v in range(4)] for u in range(4)]

    def test_out_of_domain(self):
        with pytest.raises(OutOfRangeError):
            gf_via_paths(2, 3, 3)
        with pytest.raises(ValueError):
            gf_via_paths(-1, 3, 1)

    def test_matches_determinant_to_n10(self):
        # the grid kernel on the K-form against the tests' Bareiss over
        # Gf on the Gessel-Viennot matrix I + R*M itself
        r = Gf.weight(r=1)
        for n in range(7, 11):
            m = path_matrix(n, 4, 1)
            assert gf_via_paths(n, 4, 1) == det_bareiss(
                [[int(u == v) + r * m[u][v] for v in range(n)]
                 for u in range(n)]), n

    def test_binomial_matrix_is_the_path_matrix(self):
        # det_matrix = K * (I + R * path_matrix) for every d (row u of K*M
        # is M[u] - Q*M[u-1]), and det K = 1; at d = 1 (d = 0 for l = 1)
        # it is detform.det_matrix: the det and paths routes take the
        # determinant of one matrix
        r = Gf.weight(r=1)
        for n in range(0, 8):
            k = k_matrix(n)
            for l in range(1, 7):
                for d in range(0, l):
                    m = path_matrix(n, l, d)
                    lgv = [[int(u == v) + r * m[u][v] for v in range(n)]
                           for u in range(n)]
                    form = det_matrix(n, l, d)
                    assert form == [
                        [sum((k[u][w] * lgv[w][v] for w in range(n)),
                             Gf()) for v in range(n)]
                        for u in range(n)], (n, l, d)
                    if d == min(1, l - 1):
                        assert form == detform.det_matrix(n, l), (n, l)


class TestSvg:
    def test_wellformed_and_has_elements(self, tmp_path):
        out = tmp_path / "families.svg"
        drawn = write_families_svg(str(out), 2, 3, 1)
        assert drawn == len(list(all_families(2, 3)))
        root = ET.fromstring(out.read_text())
        tags = [el.tag.split("}")[-1] for el in root.iter()]
        assert "polyline" in tags
        dashed = [el for el in root.iter()
                  if el.get("stroke-dasharray")]
        assert dashed  # the y = x + d guide line

    def test_refuses_d_out_of_range_before_drawing(self, tmp_path,
                                                   monkeypatch):
        # a d outside 0..l-1 would put the guide line y = x + d off the grid
        from altsign import pathfam
        monkeypatch.setattr(pathfam, "all_families", None)  # never reached
        out = tmp_path / "families.svg"
        for d in (-1, 3, 5):
            with pytest.raises(OutOfRangeError):
                write_families_svg(str(out), 2, 3, d)
        assert not out.exists()

    def test_refuses_d_none(self, tmp_path):
        # every sheet draws the guide line y = x + d: there is no sheet
        # without one
        out = tmp_path / "families.svg"
        with pytest.raises(TypeError):
            write_families_svg(str(out), 2, 3, None)
        assert not out.exists()


class TestPinnedBytes:
    # sha256 digests of the SVG sheets: how a path is stored inside the
    # package must not move a byte of what it writes
    SHEETS = {
        (2, 3, 1): "86d6398265de3d4318c654c7906231f6"
                   "2776f11cc0bdf30b2ea0c0ab8b16c911",
        (3, 3, 0): "9a4d7dba41ba025c6d9674135936a4b3"
                   "89bb7ce9b7fdb4e29a2f800f516fbedb",
        (3, 4, 2): "ea380982e7ccc0474328ce1bc501c11d"
                   "2459518cb10b097dd1cda6978c0f99cb",
        (4, 2, 1): "3ac305cac287d3baf1cd92df8c82489e"
                   "aaa05767b42750b7807c859c123148bf",
    }

    def test_svg_sheets(self):
        for (n, l, d), digest in self.SHEETS.items():
            sheet = families_svg(all_families(n, l), d, n, l)
            assert hashlib.sha256(sheet.encode()).hexdigest() == digest, \
                (n, l, d)
