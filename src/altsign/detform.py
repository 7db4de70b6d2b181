"""The binomial determinant route.

The generating function of (n,l)-alternating sign trapezoids (equivalently
of class-(l-1) column strict shifted plane partitions with at most n parts
in the first row) equals the n x n determinant with entries

    R * sum_{k=0}^{i} Q^{i-k} (C(k+j+l-3, k) + P C(k+j+l-3, k-1)) + [i = j]

for 0 <= i, j <= n-1.  It is reached from the coefficient matrix of the
power series F(X,Y) = R (1+X-PX)/(1+X+Y) + (1+X)^{l-2} (1+QX)/(1-XY) by
determinant-preserving transformations, which this module verifies
numerically: the closed coefficient formula is compared against a direct
series expansion, and the two matrices are checked to have equal
determinants.

The code takes the determinant of K(n) + R B(n, l) = K(n) (I + R K(n)^{-1}
B(n, l)), with K(n) = I - Q S of determinant 1 (S the shift below the
diagonal) and B(n, l) the two binomials at k = i: the determinant is the
same, and every entry is an integer combination of 1, P R, R and Q, the
one form exactalg.det_gf takes.  It writes P R, R and Q as x, y and z, so
the determinant has total degree <= n, takes the integer determinants at
the C(n+3, 3) lattice points x + y + z <= n and interpolates, so no
polynomial is ever divided.  The paths route takes its determinant on the
same form (exactalg.k_form): with M = pathfam.path_matrix(n, l, 1),
det_matrix(n, l) = K(n) (I + R M) (at d = 0 when l = 1), so `gf det` and
`gf paths --d 1` reach one matrix.
`verify coeff` takes det_gf of the coefficient matrix, of the same form,
and compares it with gf_det.

The constant-term form det(F(X_i,Y_j)) / prod (X_j-X_i)(Y_j-Y_i) is not
evaluated directly (it would need multivariate series division); it is
covered transitively by the agreement of this route with the operator
route.

At P = Q = R = 1 the determinant is det(delta_ij + C(l-1+i+j, j)), which
`count` takes by Andrews' closed product, with no matrix: that is
altsign.andrews.count, bound here as detform.count.
"""

from __future__ import annotations

from .andrews import count  # unused here: bound as detform.count
from .errors import check_domain
from .exactalg import Gf, binomial, det_gf, k_form


def det_matrix(n: int, l: int) -> list[list[Gf]]:
    """The n x n matrix whose determinant the route takes: K(n) + R B(n, l),
    with B[i][j] = C(i+j+l-3, i) + P C(i+j+l-3, i-1)."""
    P = Gf.weight(p=1)
    return k_form([[binomial(a, i) + P * binomial(a, i - 1)
                    for a in range(i + l - 3, i + l - 3 + n)]
                   for i in range(n)])


def gf_det(n: int, l: int) -> Gf:
    """Generating function by the determinant route (derived for l >= 2;
    l = 1 is allowed experimentally but carries no guarantee)."""
    check_domain(n, l)
    return det_gf(det_matrix(n, l))


def behrend_coeff(i: int, j: int, l: int) -> Gf:
    """[X^i Y^j] F(X,Y) in closed form:
    R (-1)^j (C(-j,i) - P C(-j-1,i-1)) + C(l-2,i-j) + Q C(l-2,i-j-1)."""
    sign = -1 if j % 2 else 1
    return Gf({(0, 0, 1): sign * binomial(-j, i),
               (1, 0, 1): -sign * binomial(-j - 1, i - 1),
               (0, 0, 0): binomial(l - 2, i - j),
               (0, 1, 0): binomial(l - 2, i - j - 1)})


def coeff_matrix(n: int, l: int) -> list[list[Gf]]:
    return [[behrend_coeff(i, j, l) for j in range(n)] for i in range(n)]


def _series_terms(l: int, max_i: int, max_j: int):
    """(i, j, (deg P, deg Q, deg R), coefficient) for every term of the
    truncated expansion of F(X,Y), one summand at a time."""
    # R (1 + X - P X) / (1 + X + Y), with
    # 1/(1+X+Y) = sum_m (-(X+Y))^m; [X^a Y^b] = (-1)^(a+b) C(a+b, a)
    for a in range(max_i + 1):
        for b in range(max_j + 1):
            c = (-1) ** (a + b) * binomial(a + b, a)
            yield a, b, (0, 0, 1), c
            if a < max_i:  # the X and -P X shifts
                yield a + 1, b, (0, 0, 1), c
                yield a + 1, b, (1, 0, 1), -c
    # (1+X)^(l-2) (1+QX) / (1-XY);  1/(1-XY) = sum_k X^k Y^k
    for k in range(min(max_i, max_j) + 1):
        for a in range(max_i - k + 1):
            yield a + k, k, (0, 0, 0), binomial(l - 2, a)
            yield a + k, k, (0, 1, 0), binomial(l - 2, a - 1)


def series_coeffs(l: int, max_i: int, max_j: int) -> dict:
    """[X^i Y^j] F(X,Y) for i <= max_i, j <= max_j by direct truncated
    expansion of the two geometric factors (the independent oracle for
    behrend_coeff).  Requires l >= 2."""
    if l < 2:
        raise ValueError("the series expansion is defined for l >= 2")
    cells = {}  # (i, j) -> {(deg P, deg Q, deg R): coefficient}
    for i, j, e, c in _series_terms(l, max_i, max_j):
        cell = cells.setdefault((i, j), {})
        cell[e] = cell.get(e, 0) + c
    return {key: Gf(terms) for key, terms in cells.items()}


def verify_coeff_route(n: int, l: int) -> bool:
    """Two independent checks of the coefficient-matrix step: the closed
    coefficient formula against the direct series expansion up to X^6 Y^6,
    and det(coefficient matrix) = gf_det(n, l)."""
    series = series_coeffs(l, 6, 6)
    if any(series.get((i, j), Gf()) != behrend_coeff(i, j, l)
           for i in range(7) for j in range(7)):
        return False
    return det_gf(coeff_matrix(n, l)) == gf_det(n, l)
