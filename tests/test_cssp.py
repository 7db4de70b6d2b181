import hashlib
from collections import Counter

import pytest

from altsign import cssp, pathfam
from altsign.cssp import (Cssp, CsspStats, enumerate_cssps, gf, pretty,
                          stats, structure_violation, validate, weight)
from altsign.errors import OutOfRangeError
from altsign.exactalg import Gf

from test_exactalg import gf_value
from test_routes import cells, mismatches

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

GF24 = (Gf.weight(r=2) + 4 * Gf.weight(r=1) + Gf.weight(p=1, r=1)
        + Gf.weight(q=1, r=1) + Gf.weight())

# gf(3, 5, d) for every d, the (5, 4)-trapezoid polynomial of the main theorem
GF35 = (
    "R^5 + 175*R^4 + 76*P*R^4 + 111*Q*R^4 + 27*P^2*R^4 + 35*P*Q*R^4"
    " + 7*P^3*R^4 + 8*P^2*Q*R^4 + P^4*R^4 + P^3*Q*R^4 + 1574*R^3"
    " + 1223*P*R^3 + 1395*Q*R^3 + 523*P^2*R^3 + 874*P*Q*R^3 + 462*Q^2*R^3"
    " + 111*P^3*R^3 + 289*P^2*Q*R^3 + 222*P*Q^2*R^3 + 44*P^3*Q*R^3"
    " + 44*P^2*Q^2*R^3 + 1574*R^2 + 1395*P*R^2 + 1223*Q*R^2 + 462*P^2*R^2"
    " + 874*P*Q*R^2 + 523*Q^2*R^2 + 222*P^2*Q*R^2 + 289*P*Q^2*R^2"
    " + 111*Q^3*R^2 + 44*P^2*Q^2*R^2 + 44*P*Q^3*R^2 + 175*R + 111*P*R"
    " + 76*Q*R + 35*P*Q*R + 27*Q^2*R + 8*P*Q^2*R + 7*Q^3*R + P*Q^3*R"
    " + Q^4*R + 1")

# sha256 of the printed str(gf(k, n, d)), the same for every d: k <= 5
# with n <= 5 and k <= 3 with n = 6
GF_DIGESTS = {
    (0, 0): "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    (0, 1): "6230ba6049acd4ba2d5b747c90f43bbb7a56bfa06a238df201eff2dfafc8f2f9",
    (0, 2): "74fee08419f3f5fb715fe7c3eb6a445344911fdbfd2251ce24ca9c5b87094af0",
    (0, 3): "58730ac445a78a1205bc23e83fe5899db3ae2f04614f5b835df9b9a7642d6e73",
    (0, 4): "e2c1690dfcc85c5cc0b5f9d0ab10c4a9e1253df7d8e946f8530e2a75ad1a5057",
    (0, 5): "b59d78ccf07f151611e9168b0bcf5472137b10b2e0daf0cfa6dc6761103297d9",
    (1, 0): "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    (1, 1): "6230ba6049acd4ba2d5b747c90f43bbb7a56bfa06a238df201eff2dfafc8f2f9",
    (1, 2): "a0930b2d0486cdddb98f092eb607012839d4b515fed148e2747ee8d8bf2a0663",
    (1, 3): "6085c0e521e64bcb780e0c4ee22573e18750b0a0b532e516d6fe31c087a3d518",
    (1, 4): "b27bcb5a06647eca8c5b29687810aa437dbf80e31864d58990fc063697a1a43d",
    (1, 5): "f3d1ccd81ab6f5867eb421e1134d51698e1a9bbeaa4b2794cc8e960d58572572",
    (2, 0): "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    (2, 1): "6230ba6049acd4ba2d5b747c90f43bbb7a56bfa06a238df201eff2dfafc8f2f9",
    (2, 2): "e6540566438c3faca49836030e724574d3f56527f6a37b4bbb1a431be70c4422",
    (2, 3): "1182d4fb0d6d405e246db93bb51a61fbb7313cbc78fe8ee5a7bb5800b551147e",
    (2, 4): "7bdf62481a5d4e9cb8797fc30c2cf1c62889fe62f7d894981c4cb9593d289957",
    (2, 5): "d1d04d02c6d170d8c0e8be79425706e9848b4f141065a57c682ffa4b6c9820b6",
    (3, 0): "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    (3, 1): "6230ba6049acd4ba2d5b747c90f43bbb7a56bfa06a238df201eff2dfafc8f2f9",
    (3, 2): "1d65bb4bee3be24de6fb6856518214bd04085ae6cb6094122c93be011be21945",
    (3, 3): "f18051863908a939fef0bfd78577545b361433d83c527c4fa202c023db84faa8",
    (3, 4): "13bdb93599fe19d3c39e4a2b344e0199b10bc71f28880312f4777550d44babcd",
    (3, 5): "f865648cc61f19448fa453bc198ca6a7799af278c5f386bffd7239143746a173",
    (4, 0): "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    (4, 1): "6230ba6049acd4ba2d5b747c90f43bbb7a56bfa06a238df201eff2dfafc8f2f9",
    (4, 2): "b2d00b6b2d7b1365c0874660283ff08e7d36adcccaefed8edc95b9dfae177733",
    (4, 3): "ee704bcce058b5bf9ee493f6c119b631d40a9d7673100ed69044762d71560398",
    (4, 4): "aba60c1fdbfd405a3f41ccfdf790ed9794255a51a6e94115639bcc514fba0fdd",
    (4, 5): "ecda9a066557e344644bb36d510ff49542325357fdde14ca7d9ba34b5d948b49",
    (5, 0): "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    (5, 1): "6230ba6049acd4ba2d5b747c90f43bbb7a56bfa06a238df201eff2dfafc8f2f9",
    (5, 2): "3236b265f10a032e6c866bd0578cb0bf6b6527939af39dc5ba823c2f4ef14858",
    (5, 3): "fe6686802b85275109e116cc283e2471d7ed813b03b021aac19f1abddcd438bd",
    (5, 4): "df7a9f681b69d2f6deeb2c93434a2445ef4d5a2e1844063886a498ad4e23990f",
    (5, 5): "2363e0aa140e66cf5191e643b31946b0f32d75f2fe9214ea2ea06a149bdcef1d",
    (0, 6): "94c180d646945bf8301317b0f3a78db294bca65a54d477624212e34f775204ec",
    (1, 6): "9831968e5af2dd6f1bca88f2ebea8b05cb8dea33875e2f77f0ab838f02cd459d",
    (2, 6): "18b97591b1a6b21514f5de888bb9f3120693909f47588492c45d76449a0f2fff",
    (3, 6): "e5d04d07343114084659058fb0f843a37d1dc723f63920cca44d4b4767f9144c",
}


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
        for d in (1, 2, 3):
            assert gf(3, 2, d) == GF24

    def test_n0(self):
        for k in range(0, 4):
            for d in range(0, k + 1):
                assert gf(k, 0, d) == Gf.weight()

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
        for d in range(0, 4):
            assert str(gf(3, 5, d)) == GF35, d

    def test_evaluation_counts(self):
        for k in range(0, 4):
            for n in range(0, 4):
                count = len(enumerate_cssps(k, n))
                for d in range(0, k + 1):
                    assert gf_value(gf(k, n, d)) == count

    def test_printed_bytes_pinned(self):
        for (k, n), digest in GF_DIGESTS.items():
            for d in range(0, k + 1):
                text = str(gf(k, n, d)).encode()
                assert hashlib.sha256(text).hexdigest() == digest, (k, n, d)


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

    def test_bound_sum_matches_row_dp_property(self):
        hypothesis = pytest.importorskip("hypothesis")

        @hypothesis.settings(max_examples=30, deadline=None)
        @hypothesis.given(hypothesis.strategies.sampled_from(ORACLE_CASES))
        def check(case):
            got, expected = gf(*case), _row_dp(*case)
            assert got == expected and str(got) == str(expected)

        check()

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
