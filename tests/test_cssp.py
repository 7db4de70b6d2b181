import itertools
from collections import Counter

import pytest

from altsign import cssp, pathfam
from altsign.cssp import (Cssp, CsspStats, enumerate_cssps, gf, pretty,
                          stats, structure_violation, validate, weight)
from altsign.errors import OutOfRangeError
from altsign.exactalg import Gf

from test_exactalg import gf_value
from test_routes import PINNED, cells, digest, mismatches, pin_answers

# shape-(5,4,2,1) filling with no class
NO_CLASS = ((6, 5, 5, 4, 2), (4, 3, 3, 1), (2, 2), (1,))

# the class-2 example
CLASS2 = Cssp(2, ((7, 7, 6, 6, 3), (6, 5, 5, 1), (4, 2)))

# the eight class-3 objects with first row at most 2, with the table's
# (p, q, r) triples for d = 1, 2, 3
TABLE_K3_N2 = [
    ((), {1: (0, 0, 0), 2: (0, 0, 0), 3: (0, 0, 0)}),
    (((4,),), {1: (0, 0, 1), 2: (0, 0, 1), 3: (0, 0, 1)}),
    (((5, 1),), {1: (0, 1, 1), 2: (0, 1, 1), 3: (0, 1, 1)}),
    (((5, 2),), {1: (1, 0, 1), 2: (0, 0, 1), 3: (0, 0, 1)}),
    (((5, 3),), {1: (0, 0, 1), 2: (1, 0, 1), 3: (0, 0, 1)}),
    (((5, 4),), {1: (0, 0, 1), 2: (0, 0, 1), 3: (1, 0, 1)}),
    (((5, 5),), {1: (0, 0, 1), 2: (0, 0, 1), 3: (0, 0, 1)}),
    (((5, 5), (4,)), {1: (0, 0, 2), 2: (0, 0, 2), 3: (0, 0, 2)}),
]


def _fillings(n, top):
    """Every filling by parts 1..top of every strict shape with first row
    at most n, the empty one included, as a tuple of rows."""
    for size in range(n + 1):
        for shape in itertools.combinations(range(n, 0, -1), size):
            for parts in itertools.product(range(1, top + 1),
                                           repeat=sum(shape)):
                cells = iter(parts)
                yield tuple(tuple(itertools.islice(cells, m)) for m in shape)


class TestValidate:
    def test_structurally_valid_but_classless(self):
        assert structure_violation(NO_CLASS) is None
        for k in range(0, 6):
            message = validate(Cssp(k, NO_CLASS))
            assert message is not None and message.startswith("class violation")

    def test_class2_example(self):
        assert validate(CLASS2) is None

    def test_empty_ok_for_every_class(self):
        for k in range(0, 5):
            assert validate(Cssp(k, ())) is None

    def test_structure_violations_detected(self):
        assert "column" in structure_violation(((3, 2), (2,)))
        assert "row increases" in structure_violation(((2, 3),))
        assert "strictly decreasing" in structure_violation(((2, 1), (3, 1)))

    def test_shape_violation_is_named_exactly(self):
        # the column rule alone would index past the shorter top row
        assert structure_violation(((3, 2), (1, 1))) \
            == "shape not strictly decreasing at row 2"
        assert structure_violation(((2,), ())) == "row 2 is empty"
        assert structure_violation(((1, 0),)) \
            == "row 1, position 2: part 0 is not positive"

    def test_valid_exactly_for_the_enumerated(self):
        # every filling of every strict shape with first row at most n by
        # parts 1..k+n+1, one above the largest class-k part (81,680
        # fillings): validate passes exactly what enumerate_cssps lists
        for k in range(3):
            for n in range(4):
                valid = {rows for rows in _fillings(n, k + n + 1)
                         if validate(Cssp(k, rows)) is None}
                assert valid == {c.rows for c in enumerate_cssps(k, n)}, \
                    (k, n)


class TestEnumerate:
    def test_k3_n2_table(self):
        found = enumerate_cssps(3, 2)
        assert [c.rows for c in found] == [rows for rows, _ in TABLE_K3_N2]

    def test_n0(self):
        for k in range(0, 4):
            assert enumerate_cssps(k, 0) == [Cssp(k, ())]

    def test_k2_n1(self):
        assert [c.rows for c in enumerate_cssps(2, 1)] == [(), ((3,),)]

    def test_all_valid(self):
        for k in range(0, 4):
            for n in range(0, 4):
                for c in enumerate_cssps(k, n):
                    assert validate(c) is None


class TestStats:
    def test_class2_example_d1(self):
        assert stats(CLASS2, 1) == CsspStats(1, 1, 3, 1)

    def test_table_entries(self):
        for rows, byd in TABLE_K3_N2:
            c = Cssp(3, rows)
            for d, pqr in byd.items():
                assert stats(c, d)[:3] == pqr

    def test_d_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            stats(CLASS2, 3)

    def test_at_most_one_hit_per_row(self):
        # parts weakly decrease while j - i + d strictly increases
        for k in range(1, 4):
            for n in range(0, 4):
                for c in enumerate_cssps(k, n):
                    for d in range(1, k + 1):
                        for i, row in enumerate(c.rows, start=1):
                            hits = sum(1 for t, part in enumerate(row, start=1)
                                       if part == t - 1 + d)
                            assert hits <= 1


class TestWeight:
    def test_51_any_d(self):
        c = Cssp(3, ((5, 1),))
        for d in (1, 2, 3):
            assert weight(c, d) == Gf.weight(q=1, r=1)

    def test_class0_21_d0(self):
        c = Cssp(0, ((2, 1),))
        assert validate(c) is None
        assert weight(c, 0) == Gf.weight(o=1) * Gf.weight(r=1)

    def test_empty_d0(self):
        assert weight(Cssp(0, ()), 0) == Gf.weight()

    def test_d0_admissible_for_all_classes(self):
        # the 1 sits in position 4 of its row, so it counts toward Q
        assert weight(CLASS2, 0) == Gf.weight(q=1, r=3)

    def test_errors(self):
        with pytest.raises(OutOfRangeError):
            weight(CLASS2, 5)
        with pytest.raises(OutOfRangeError):
            weight(CLASS2, -1)


class TestGf:
    def test_k3_n2_all_d(self):
        assert mismatches({"cssp": cells("cssp", (2,), (4,),
                                         lambda l: range(1, l))}) == []

    def test_n0(self):
        assert mismatches({"cssp": cells("cssp", (0,), range(1, 5))}) == []

    def test_triple_multisets_agree_across_d(self):
        for k in range(1, 4):
            for n in range(0, 3):
                objs = enumerate_cssps(k, n)
                base = Counter(stats(c, 1)[:3] for c in objs)
                for d in range(2, k + 1):
                    assert Counter(stats(c, d)[:3] for c in objs) == base

    def test_domain_checked_before_enumerating(self, monkeypatch):
        def never(k, n):
            raise AssertionError("enumerated before the domain check")

        monkeypatch.setattr(cssp, "enumerate_cssps", never)
        with pytest.raises(OutOfRangeError,
                           match=r"^d = 9 not in 0..3$"):
            gf(3, 6, 9)
        with pytest.raises(OutOfRangeError,
                           match=r"^d = 1 not in 0..0$"):
            gf(0, 7, 1)
        # a bad class (l = k + 1 below 1) still wins over a bad d
        with pytest.raises(ValueError, match=r"^need l >= 1, got l = 0$"):
            gf(-1, 2, 9)

    def test_gf_builds_no_object(self, monkeypatch):
        def never(*args):
            raise AssertionError("gf walked the objects")

        monkeypatch.setattr(cssp, "enumerate_cssps", never)
        monkeypatch.setattr(cssp, "weight", never)
        # the sweep runs over path families but builds none
        for name in ("all_families", "lgv_weight", "paths_for_index"):
            monkeypatch.setattr(pathfam, name, never)
        # gf(3, 5, d) for every d is G(5, 4)
        for d in range(0, 4):
            assert digest(gf(3, 5, d)) == PINNED[5, 4], d

    def test_evaluation_counts(self):
        for k in range(0, 4):
            for n in range(0, 4):
                count = len(enumerate_cssps(k, n))
                for d in range(0, k + 1):
                    assert gf_value(gf(k, n, d)) == count

    def test_printed_bytes_pinned(self):
        assert mismatches(got=pin_answers(("cssp",))) == []


class TestTheoremMainSmall:
    def test_matches_trapezoids(self):
        assert mismatches({route: cells(route, range(1, 4), range(1, 5))
                           for route in ("cssp", "ast")}) == []


class TestInterfaces:
    def test_pretty(self):
        text = pretty(CLASS2)
        lines = text.splitlines()
        assert lines[0].strip() == "7 7 6 6 3"
        assert lines[1].startswith("  ")
        assert pretty(Cssp(1, ())) == "(empty)"


# --- oracles: copies of the top-row loop, the cell-by-cell row filler,
# the two part scans that the row generator and the one p/q rule replaced,
# and the row DP over _pq, the check of gf's path sweep

def _row_dp(k, n, d):
    """gf(k, n, d) as a depth-first sum over rows, memoized on a row's
    parts after the first: one step per (row tail, next row) pair."""
    memo = {}

    def chains(above):
        key = None if above is None else above[1:]
        if key in memo:
            return memo[key]
        end = (Gf.weight(o=1) if cssp._has_factor(key or (), d)
               else Gf.weight())
        out = dict(end.terms)
        for row in cssp._next_rows(k, n, above):
            p, q = cssp._pq((row,), d)
            for (ep, eq, er), c in chains(row).items():
                e = (ep + p, eq + q, er + 1)
                out[e] = out.get(e, 0) + c
        memo[key] = out
        return out

    return Gf(chains(None))


ORACLE_CASES = [(k, n, d) for k in range(0, 6) for n in range(0, 6)
                for d in range(0, k + 1)] + [(3, 6, d) for d in range(4)]

def _fill_row(length, first, above):
    row = [first] + [0] * (length - 1)

    def rec(t):
        if t > length:
            yield list(row)
            return
        hi = row[t - 2]
        if above is not None:
            hi = min(hi, above[t] - 1)
        for v in range(1, hi + 1):
            row[t - 1] = v
            yield from rec(t + 1)

    if above is None or above[1] > first:
        yield from rec(2)


def _searched_rows(k, n):
    out = [()]

    def extend(rows, prev_len):
        for length in range(1, prev_len):
            for row in _fill_row(length, length + k, rows[-1]):
                new = rows + [row]
                out.append(tuple(tuple(r) for r in new))
                extend(new, length)

    for length in range(1, n + 1):
        for row in _fill_row(length, length + k, None):
            out.append((tuple(row),))
            extend([row], length)
    return out


def _scanned_stats(c, d):
    p = q = 0
    for row in c.rows:
        for t, part in enumerate(row, start=1):
            if part == t - 1 + d:
                p += 1
            if part == 1:
                q += 1
    return CsspStats(p, q, len(c.rows), d)


def _scanned_weight(c, d):
    if d >= 1:
        s = _scanned_stats(c, d)
        return Gf.weight(s.p, s.q, s.r)
    p = q = 0
    for row in c.rows:
        for t, part in enumerate(row, start=1):
            if part > 1 and part == t - 1:
                p += 1
            if part == 1 and t >= 3:
                q += 1
    w = Gf.weight(p, q, len(c.rows))
    bottom = c.rows[-1] if c.rows else ()
    if len(bottom) >= 2 and bottom[1] == 1:
        w = w * Gf.weight(o=1)
    return w


class TestOracles:
    def test_row_sum_matches_enumeration_sum(self):
        cases = [(k, n) for k in range(0, 6) for n in range(0, 5)] + [(3, 5)]
        for k, n in cases:
            objs = enumerate_cssps(k, n)
            for d in range(0, k + 1):
                expected = sum((weight(c, d) for c in objs), Gf())
                got = gf(k, n, d)
                assert got == expected, (k, n, d)
                assert str(got) == str(expected), (k, n, d)

    def test_bound_sum_matches_row_dp(self):
        for k, n, d in ORACLE_CASES:
            got, expected = gf(k, n, d), _row_dp(k, n, d)
            assert got == expected, (k, n, d)
            assert str(got) == str(expected), (k, n, d)

    def test_bound_sum_matches_determinant_at_n6(self):
        # class 4, first row at most 6: the (6, 5)-trapezoids
        assert mismatches({"cssp": cells("cssp", (6,), (5,))}) == []

    def test_enumeration_matches_cell_search(self):
        for k in range(0, 5):
            for n in range(0, 5):
                assert [c.rows for c in enumerate_cssps(k, n)] == \
                    _searched_rows(k, n), (k, n)

    def test_weights_match_part_scans(self):
        for k in range(0, 5):
            for n in range(0, 5):
                for c in enumerate_cssps(k, n):
                    for d in range(0, k + 1):
                        assert weight(c, d) == _scanned_weight(c, d), (c, d)
                        if d:
                            assert stats(c, d) == _scanned_stats(c, d)
