from math import comb, factorial, prod

import pytest

from altsign import andrews, cssp, detform, exactalg, pathfam, trapezoid
from altsign.detform import (behrend_coeff, coeff_matrix, count, det_matrix,
                             gf_det, k_matrix, series_coeffs,
                             verify_coeff_route)
from altsign.exactalg import Gf, MPoly, binomial, det_fraction_free
from test_exactalg import det_bareiss, det_cofactor, gf_value
from test_routes import cells, gf_by, mismatches

def mat_mul(a, b):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), Gf())
             for j in range(n)] for i in range(n)]


def summed_matrix(n, l):
    """The paper's matrix, entries R sum_{k<=i} Q^{i-k} (C(k+j+l-3, k)
    + P C(k+j+l-3, k-1)) + [i = j], built term by term (the oracle for
    det_matrix = K(n) times this matrix)."""
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            entry = Gf.weight() if i == j else Gf()
            for k in range(i + 1):
                entry += (binomial(k + j + l - 3, k)
                          * Gf.weight(q=i - k, r=1))
                entry += (binomial(k + j + l - 3, k - 1)
                          * Gf.weight(p=1, q=i - k, r=1))
            row.append(entry)
        out.append(row)
    return out


class TestGfDet:
    def test_24(self):
        assert mismatches({"det": [(2, 4, None)]}) == []

    def test_single(self):
        assert mismatches({"det": cells("det", (1,), range(2, 7))}) == []

    def test_empty(self):
        assert mismatches({"det": [(0, 5, None)]}) == []

    def test_l1_is_computable(self):
        # experimental: the matrix makes sense at l = 1 but the derivation
        # does not cover it; the families agree with it there
        assert mismatches({"det": [(2, 1, None)]}) == []

    def test_matches_families(self):
        assert mismatches({route: cells(route, range(1, 4), range(2, 5))
                           for route in ("ast", "cssp")}) == []

    def test_matches_operator_route(self):
        assert mismatches(
            {"operator": cells("operator", range(1, 4), range(2, 6))}) == []


class TestCount:
    def test_values(self):
        assert count(2, 4) == 8
        assert count(2, 3) == 7
        assert count(0, 5) == 1

    def test_asm_shifted_products(self):
        # (n,3)-trapezoid counts 2, 7, 42, 429
        assert [count(n, 3) for n in range(1, 5)] == [2, 7, 42, 429]

    def test_agrees_with_gf_at_one(self):
        # the quasi count l = 1 included
        for n in range(0, 9):
            for l in range(1, 7):
                assert count(n, l) == gf_value(gf_det(n, l)), (n, l)

    def test_agrees_with_enumeration(self):
        for n in range(1, 4):
            for l in range(2, 5):
                assert count(n, l) == len(trapezoid.enumerate_trapezoids(n, l))

    def test_domain(self):
        # n < 0 or l < 1 is outside both formulas; l = 1 stays allowed
        for n, l in [(-1, 3), (3, 0), (2, -5), (0, 0)]:
            with pytest.raises(ValueError):
                count(n, l)
            with pytest.raises(ValueError):
                gf_det(n, l)
        assert count(2, 1) == gf_value(gf_det(2, 1))


class TestBehrendCoeff:
    def test_00(self):
        for l in range(2, 7):
            assert behrend_coeff(0, 0, l) == Gf.weight(r=1) + Gf.weight()

    def test_pure_r_term_when_second_summand_vanishes(self):
        # i - j > l - 1 kills both binomials of the second summand
        # (at i - j = l - 1 the Q-binomial C(l-2, l-2) = 1 still survives)
        for l in (2, 3):
            for j in (1, 2):
                for i in (j + l, j + l + 1):
                    g = behrend_coeff(i, j, l)
                    assert all(e[0] <= 1 and e[1] == 0 and e[2] == 1
                               for e in g.terms), (i, j, l, g)
        g = behrend_coeff(1 + 2 - 1, 1, 2)  # i - j = l - 1 keeps Q
        assert any(e[1] == 1 for e in g.terms)

    def test_against_series(self):
        with pytest.raises(ValueError, match="^the series expansion is "
                           "defined for l >= 2$"):
            series_coeffs(1, 6, 6)
        for l in range(2, 7):
            series = series_coeffs(l, 6, 6)
            for i in range(7):
                for j in range(7):
                    assert series.get((i, j), Gf()) == \
                        behrend_coeff(i, j, l), (i, j, l)


def _product_series(l, top):
    """{(i, j): [X^i Y^j] F(X,Y)} for i, j <= top, from MPoly products of
    the two factors of F(X,Y) = R (1+X-PX)/(1+X+Y) + (1+X)^(l-2) (1+QX)/(1-XY),
    each geometric series truncated past every needed power."""
    X, Y, P, Q, R = map(MPoly.variable, "XYPQR")
    inv_sum = sum(((-X - Y) ** m for m in range(2 * top + 1)), MPoly())
    inv_xy = sum(((X * Y) ** k for k in range(top + 1)), MPoly())
    f = (R * (1 + X - P * X) * inv_sum
         + (1 + X) ** (l - 2) * (1 + Q * X) * inv_xy)
    slots = [f.vars.index(v) for v in "XYPQR"]
    cells = {}
    for exp, c in f.terms.items():
        i, j, p, q, r = (exp[k] for k in slots)
        if i <= top and j <= top:
            cells.setdefault((i, j), {})[p, q, r] = c
    return {key: Gf(terms) for key, terms in cells.items()}


class TestSeriesOracle:
    def test_series_matches_the_mpoly_product(self):
        for l in range(2, 7):
            product = _product_series(l, 6)
            series = series_coeffs(l, 6, 6)
            for i in range(7):
                for j in range(7):
                    assert (series.get((i, j), Gf())
                            == product.get((i, j), Gf())), (i, j, l)


class TestCoeffRoute:
    # every n <= 4, l = 2..6 is test_identities' coeff row
    def test_dets_equal(self):
        for n in range(1, 5):
            for l in range(2, 6):
                assert det_cofactor(coeff_matrix(n, l)) == \
                    det_cofactor(det_matrix(n, l)), (n, l)

    def test_changed_entry_fails(self, monkeypatch):
        # one coefficient-matrix entry off by R changes the determinant
        R = Gf.weight(r=1)
        for n, l in ((1, 2), (3, 4), (5, 3)):
            assert verify_coeff_route(n, l)
            m = coeff_matrix(n, l)
            m[n - 1][n - 1] += R
            monkeypatch.setattr(detform, "coeff_matrix", lambda *_: m)
            assert not verify_coeff_route(n, l), (n, l)
            monkeypatch.undo()

    def test_refuses_a_term_of_too_high_degree(self, monkeypatch):
        # v (v - 1) ... (v - n) for v = x = P R, y = R or z = Q vanishes at
        # every simplex point x + y + z <= n, where the determinant is
        # taken, so gf_det plus it must still be refused
        R, P, Q = Gf.weight(r=1), Gf.weight(p=1), Gf.weight(q=1)
        for n, l in ((2, 3), (3, 4)):
            d = detform.gf_det(n, l)
            for v, at in ((P * R, lambda c: (c, 1, 1)),
                          (R, lambda c: (1, 1, c)), (Q, lambda c: (1, c, 1))):
                vanishing = Gf.weight()
                for c in range(n + 1):
                    vanishing *= v - c
                assert all(gf_value(vanishing, *at(c)) == 0
                           for c in range(n + 1))
                monkeypatch.setattr(detform, "gf_det",
                                    lambda *_: d + vanishing)
                assert not verify_coeff_route(n, l), (n, l, v)
                monkeypatch.undo()


class TestKMatrix:
    def test_determinant_is_one(self):
        # lower triangular with ones on the diagonal
        for n in range(0, 9):
            k = k_matrix(n)
            assert all(k[i][j] == int(i == j) for i in range(n)
                       for j in range(i, n)), n


class TestDetMatrix:
    def test_same_determinant_as_the_summed_matrix(self):
        for n in range(0, 7):
            for l in range(1, 9):
                assert det_bareiss(summed_matrix(n, l)) == \
                    gf_det(n, l), (n, l)

    def test_is_k_times_the_summed_matrix(self):
        for n in range(0, 8):
            for l in range(1, 9):
                assert det_matrix(n, l) == \
                    mat_mul(k_matrix(n), summed_matrix(n, l)), (n, l)

    def test_entries_have_at_most_three_terms_of_degree_one(self):
        # every entry is linear in each of P, Q and R, so the determinant
        # has degree <= n in each: the bound an evaluation kernel needs,
        # for the paths route's K(n) + R K(n) M as for K(n) + R B(n, l)
        matrices = [((n, l), det_matrix(n, l))
                    for n in range(0, 9) for l in range(1, 9)]
        matrices += [((n, l, d), pathfam.det_matrix(n, l, d))
                     for n in range(0, 9) for l in range(1, 7)
                     for d in range(0, l)]
        for key, m in matrices:
            for row in m:
                for entry in row:
                    assert len(entry.terms) <= 3, (key, entry)
                    assert all(e <= 1 for exp in entry.terms
                               for e in exp), (key, entry)

    def test_kernel_takes_one_determinant_per_simplex_point(self, monkeypatch):
        # both routes take C(n+3, 3) integer determinants, the lattice
        # points x + y + z <= n, not the n^2 (n+1) of a degree-bound box
        calls = []
        det = exactalg.det_fraction_free
        monkeypatch.setattr(exactalg, "det_fraction_free",
                            lambda m: calls.append(1) or det(m))
        routes = [("det", lambda n: gf_det(n, 4)),
                  ("paths", lambda n: pathfam.gf_via_paths(n, 4, 1)),
                  ("paths d=0", lambda n: pathfam.gf_via_paths(n, 3, 0))]
        for name, route in routes:
            for n in range(1, 9):
                calls.clear()
                route(n)
                assert len(calls) == comb(n + 3, 3), (name, n, len(calls))


def asm_number(m):
    """A(m) = prod_{j=0}^{m-1} (3j+1)! / (m+j)!, the number of m x m
    alternating sign matrices (D. Zeilberger, "Proof of the alternating
    sign matrix conjecture", 1996; G. Kuperberg, "Another proof of the
    alternating sign matrix conjecture", 1996)."""
    return (prod(factorial(3 * j + 1) for j in range(m))
            // prod(factorial(m + j) for j in range(m)))


def bareiss_count(n, l):
    """det(delta_ij + C(i+j+l-1, i)) by Bareiss elimination, the count's
    determinant taken without its closed product."""
    return det_fraction_free([[binomial(i + j + l - 1, i) + int(i == j)
                               for j in range(n)] for i in range(n)])


def mirrored(g, n):
    """The terms of R^n G(Q, P, 1/R): P^p Q^q R^r -> P^q Q^p R^(n-r)."""
    return {(q, p, n - r): c for (p, q, r), c in g.terms.items()}


def at(g, axis, value):
    """The terms of G with P (axis 0) or Q (axis 1) set to value, 0 or 1,
    as a polynomial in the other two variables."""
    out = {}
    for e, c in g.terms.items():
        if value or not e[axis]:
            rest = e[:axis] + e[axis + 1:]
            out[rest] = out.get(rest, 0) + c
    return {e: c for e, c in out.items() if c}


class TestAnchors:
    # closed forms from outside the routes, so no route checks itself

    def test_asm_numbers_count_l3(self):
        # (n,3)-trapezoids are the alternating sign triangles of order
        # n + 1, counted by the ASM numbers
        assert [asm_number(m) for m in range(1, 8)] \
            == [1, 2, 7, 42, 429, 7436, 218348]
        # A(m + 1) = A(m) m! (3m+1)! / ((2m)! (2m+1)!), the ratio of two
        # of asm_number's products, which is checked at n = 40 and 200
        a = 1
        for n in range(0, 201):
            assert count(n, 3) == a, n
            if n in (40, 200):
                assert a == asm_number(n + 1), n
            m = n + 1
            a = (a * factorial(m) * factorial(3 * m + 1)
                 // (factorial(2 * m) * factorial(2 * m + 1)))

    def test_count_is_the_determinant(self):
        # n <= 40 at every l = 1..12, the quasi count l = 1 included
        for l in range(1, 13):
            for n in range(0, 41):
                assert count(n, l) == bareiss_count(n, l), (n, l)

    def test_product_at_mu_minus_1(self):
        # count's product never runs at mu = -1 (l = 0), where t_polynomial
        # samples it: it is still the determinant there
        values = [andrews._product(n, -1) for n in range(0, 41)]
        assert values[:7] == [1, 2, 4, 12, 60, 500, 7000]
        for n, value in enumerate(values):
            assert value == bareiss_count(n, 0), n

    def test_asm_numbers_by_enumeration(self):
        for n in range(0, 7):
            if n:
                assert gf_value(trapezoid.gf(n, 3)) == asm_number(n + 1), n
            for d in range(0, 3):
                assert gf_value(cssp.gf(2, n, d)) == asm_number(n + 1), \
                    (n, d)

    def test_mirror(self):
        # reversing every row of a trapezoid swaps its left and right
        # columns: G_n(P, Q, R) = R^n G_n(Q, P, 1/R), term by term; on
        # CSSPPs and path families the symmetry is not visible.  route ->
        # the n and l it is checked at, with every d it reads
        reach = {"det": (range(0, 9), range(1, 7)),
                 "paths": (range(0, 7), range(1, 6)),
                 "cssp": (range(0, 6), range(1, 6)),
                 "ast": (range(1, 7), range(1, 6)),
                 "operator": (range(1, 5), range(2, 6))}
        for route, (ns, ls) in reach.items():
            for n, l, d in cells(route, ns, ls):
                g = gf_by(route, n, l, d)
                assert mirrored(g, n) == g.terms, (route, n, l, d)

    def test_base_shift(self):
        # G_n(1, Q, R; l) = G_n(0, Q, R; l + 1) and G_n(P, 1, R; l) =
        # G_n(P, 0, R; l + 1): Pascal's rule at P = 1 and the hockey-stick
        # sum at Q = 1 on the determinant; on every other route it ties
        # the route at l to itself at l + 1.  (route, d) -> (n, l), where
        # d = 1 is d = 0 at l = 1; the object sums, whose cost grows
        # fastest, stop at n = 5
        routes = {
            ("det", None): (range(0, 7), range(1, 6)),
            ("paths", 1): (range(0, 7), range(1, 6)),
            ("ast", None): (range(1, 6), range(1, 6)),
            ("cssp", 1): (range(0, 6), range(1, 6)),
            ("cssp", 0): (range(0, 6), range(1, 6)),
            ("operator", None): (range(1, 5), range(2, 6)),
        }
        for (route, d), (ns, ls) in routes.items():
            for n in ns:
                g = {l: gf_by(route, n, l, d and min(d, l - 1))
                     for l in range(ls[0], ls[-1] + 2)}
                for l in ls:
                    for axis in (0, 1):
                        assert at(g[l], axis, 1) == at(g[l + 1], axis, 0), \
                            (route, d, n, l, "PQ"[axis])
