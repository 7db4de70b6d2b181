"""The number of (n,l)-alternating sign trapezoids by Andrews' product, at
one l and as a polynomial in l.

At P = Q = R = 1 the determinant of the determinant route (altsign.detform)
is det(delta_ij + C(l-1+i+j, j)), which Andrews' product takes in ints with
no matrix.  Only t_polynomial loads polynomial code, so `altsign count`
does not load altsign.exactalg; detform.count and operatorform.t_polynomial
bind the same functions.
"""

from __future__ import annotations

from math import factorial, prod

from .errors import NonDivisibleError, check_domain


def _rising(a: int, k: int, step: int = 1) -> int:
    """a (a + step) ... (a + (k-1) step); step 2 gives 2^k (a/2)_k."""
    return prod(range(a, a + k * step, step))


def _product(n: int, mu: int) -> int:
    """det(delta_ij + C(mu+i+j, j)), 0 <= i, j < n, for mu >= -1, by the
    product 2 prod_{i=1}^{n-1} Delta_i(mu) of G. E. Andrews ("Plane
    partitions (III): The weak Macdonald conjecture", 1979;
    C. Krattenthaler, "Advanced determinant calculus", 1999), with (a)_k
    the rising factorial,

        Delta_2j   = (mu+2j+2)_j (mu/2+2j+3/2)_{j-1}
                     / ((j)_j (mu/2+j+3/2)_{j-1}),
        Delta_2j-1 = (mu+2j)_{j-1} (mu/2+2j+1/2)_j
                     / ((j)_j (mu/2+j+1/2)_{j-1}).

    The half-integer factorials are taken doubled, so every factor is an
    integer ratio; each partial product 2 prod_{i<m} Delta_i is the m x m
    determinant, so every step divides exactly (NonDivisibleError if not)."""
    if n == 0:
        return 1
    c = 2
    for i in range(1, n):
        j = (i + 1) // 2
        if i % 2:
            num = _rising(mu + 2 * j, j - 1) * _rising(mu + 4 * j + 1, j, 2)
            den = 2 * _rising(j, j) * _rising(mu + 2 * j + 1, j - 1, 2)
        else:
            num = (_rising(mu + 2 * j + 2, j)
                   * _rising(mu + 4 * j + 3, j - 1, 2))
            den = _rising(j, j) * _rising(mu + 2 * j + 3, j - 1, 2)
        c, rem = divmod(c * num, den)
        if rem:
            raise NonDivisibleError(f"factor {i} not divisible", remainder=rem)
    return c


def count(n: int, l: int) -> int:
    """Number of (n,l)-trapezoids: the product at mu = l - 1."""
    check_domain(n, l)
    return _product(n, l - 1)


def t_polynomial(n: int) -> list:
    """t_n(l), the number of (n,l)-trapezoids, as a polynomial in l: its
    coordinates c_k over the falling factorials (l)_k, lowest first,
    trailing zeros dropped, c_k = D^k t_n(0) / k! (Newton) from the product
    at mu = l - 1 for l = 0..n(n-1)/2, its degree in mu.  Valid counts for
    l >= 2; t_n(1) counts the quasi variant, and t_0 = 1 the empty one."""
    from fractions import Fraction
    from .exactalg import forward_differences
    check_domain(n)
    coords = [Fraction(d, factorial(k)) for k, d in enumerate(
        forward_differences([_product(n, l - 1)
                             for l in range(n * (n - 1) // 2 + 1)]))]
    while len(coords) > 1 and coords[-1] == 0:
        coords.pop()
    return coords
