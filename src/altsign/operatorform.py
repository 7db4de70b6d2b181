"""The operator formula route: the polynomial M_n, difference operators,
closed-form (s,t)-tree counts, trapezoid counts and generating functions
with prescribed 1-column positions, the base-length polynomial t_n, and
exact verification of the two symmetrizer identities the derivation rests
on.

Operators act on sparse polynomials by substitution:

    shift E_x:            p(x) -> p(x+1)
    forward difference:   fwd = E_x - Id
    backward difference:  bwd = Id - E_x^{-1}

Operators in distinct variables commute, as do all operators in the same
variable (they are polynomials in E_x).  Since E bwd = fwd and
E^{-1} fwd = bwd, the weight factors of the generating function reduce to
one shift each:

    E (1 - P bwd)      = P + (1 - P) E
    E^{-1} (1 + Q fwd) = Q + (1 - Q) E^{-1}
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache

from .errors import ShapeMismatchError
from .exactalg import Gf, MPoly, gf_from_mpoly


def xvar(i: int) -> str:
    return f"x{i}"


def shift(p: MPoly, name: str, k: int = 1) -> MPoly:
    return p.shift_var(name, k)


def fwd_diff(p: MPoly, name: str) -> MPoly:
    return p.shift_var(name, 1) - p


def bwd_diff(p: MPoly, name: str) -> MPoly:
    return p - p.shift_var(name, -1)


@lru_cache(maxsize=None)
def compute_Mn(n: int) -> MPoly:
    """The polynomial prod_{p<q} (1 + fwd_q + fwd_p fwd_q) applied to
    prod_{i<j} (x_j - x_i)/(j - i); total degree n(n-1)/2, M_1 = 1.

    Cached per n; practical up to n = 6 or so.
    """
    if n < 1:
        raise ValueError("n must be positive")
    poly = MPoly.constant(1)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            poly = poly * (MPoly.variable(xvar(j)) - MPoly.variable(xvar(i)))
            poly = poly * Fraction(1, j - i)
    for p_ in range(1, n + 1):
        for q_ in range(p_ + 1, n + 1):
            dq = fwd_diff(poly, xvar(q_))
            poly = poly + dq + fwd_diff(dq, xvar(p_))
    return poly


def _apply_diffs(n: int, s, t) -> MPoly:
    """(-fwd_{x_1})^{s_1} ... (-fwd_{x_m})^{s_m} bwd^{t_1} ... bwd_{x_n}^{t_k}
    applied to M_n, with m = len(s) and k = len(t)."""
    p = compute_Mn(n)
    for i, si in enumerate(s, start=1):
        for _ in range(si):
            p = -fwd_diff(p, xvar(i))
    for i, ti in enumerate(t, start=n - len(t) + 1):
        for _ in range(ti):
            p = bwd_diff(p, xvar(i))
    return p


def _integer(v: Fraction) -> int:
    if v.denominator != 1:
        raise ArithmeticError(f"operator value {v} is not an integer")
    return v.numerator


def _substitute(p: MPoly, point) -> MPoly:
    """p with x_i replaced by point[i-1] (numbers or polynomials)."""
    for i, value in enumerate(point, start=1):
        p = p.substitute(xvar(i), value)
    return p


def eval_Mn(n: int, values) -> int:
    return count_sttrees_formula(n, (), (), values)


def count_sttrees_formula(n: int, s, t, b) -> int:
    """Closed-form count of (s,t)-trees of order n with diagonal bottom
    entries b: apply (-fwd_{x_1})^{s_1} ... bwd_{x_n}^{t_n} to M_n and
    evaluate at x = b."""
    s, t, b = tuple(s), tuple(t), tuple(b)
    if len(s) + len(t) > n:
        raise ShapeMismatchError("len(s) + len(t) exceeds n")
    if len(b) != n:
        raise ShapeMismatchError(f"need {n} bottom entries, got {len(b)}")
    p = _apply_diffs(n, s, t)
    return _integer(p.evaluate({xvar(i + 1): b[i] for i in range(n)}))


def _positions(n: int, j):
    """Check the signed positions j_1 < ... < j_m < 0 < j_{m+1} < ... < j_n;
    (j, m), or None outside the labeled range -n..n (the value is 0 there)."""
    j = tuple(j)
    if any(x == 0 for x in j) or list(j) != sorted(set(j)):
        raise ValueError(f"positions must be strictly increasing and nonzero: {j}")
    if len(j) != n:
        raise ShapeMismatchError(f"need {n} positions, got {len(j)}")
    if j and (j[0] < -n or j[-1] > n):
        return None
    return j, sum(1 for x in j if x < 0)


def _orders(j, m):
    """The difference orders of the positions j: (-fwd)^{-j_i-1} on the m
    negative ones, bwd^{j_i-1} on the rest."""
    return tuple(-x - 1 for x in j[:m]), tuple(x - 1 for x in j[m:])


def _position_point(j, m, l):
    """The evaluation point x_i = j_i (i <= m), x_i = j_i + l - 3 (i > m);
    l may be a number or the symbolic polynomial l."""
    return tuple(x if i < m else x + l - 3 for i, x in enumerate(j))


def count_ast_prescribed(n: int, l: int, j) -> int:
    """Number of (n,l)-trapezoids whose 1-columns sit at the signed
    positions j_1 < ... < j_m < 0 < j_{m+1} < ... < j_n; zero when the
    positions leave the labeled range."""
    checked = _positions(n, j)
    if checked is None:
        return 0
    j, m = checked
    return count_sttrees_formula(n, *_orders(j, m), _position_point(j, m, l))


def gf_ast_prescribed(n: int, l: int, j) -> Gf:
    """P,Q-generating function of the (n,l)-trapezoids with 1-columns at
    positions j: the operator product E (1 - P bwd) (-fwd)^{-j_i-1} for the
    negative positions and E^{-1} (1 + Q fwd) bwd^{j_i-1} for the positive
    ones, applied to M_n.  At P = Q = 1 this reduces to the plain count."""
    if l < 2:
        raise ValueError("the weighted operator formula needs l >= 2")
    checked = _positions(n, j)
    if checked is None:
        return Gf.zero()
    j, m = checked
    P = MPoly.variable("P")
    Q = MPoly.variable("Q")
    p = _apply_diffs(n, *_orders(j, m))
    for i in range(1, n + 1):
        w, k = (P, 1) if i <= m else (Q, -1)
        p = w * p + (1 - w) * shift(p, xvar(i), k)
    return gf_from_mpoly(_substitute(p, _position_point(j, m, l)))


def all_positions(n: int):
    """All admissible 1-column position vectors: m negative labels from
    -n..-1 and n-m positive labels from 1..n, for m = 0..n."""
    if n < 1:
        raise ValueError("n must be positive")
    for m in range(n + 1):
        for neg in itertools.combinations(range(-n, 0), m):
            for pos in itertools.combinations(range(1, n + 1), n - m):
                yield m, neg + pos


def gf_ast_via_operator(n: int, l: int) -> Gf:
    """Full generating function by the operator route: sum R^m times the
    prescribed-position P,Q-polynomials over all position vectors."""
    total = Gf.zero()
    for m, j in all_positions(n):
        total += Gf.monomial(r=m) * gf_ast_prescribed(n, l, j)
    return total


def count_ast_via_operator(n: int, l: int) -> int:
    return sum(count_ast_prescribed(n, l, j) for _, j in all_positions(n))


def t_polynomial(n: int) -> MPoly:
    """The number of (n,l)-trapezoids as a polynomial in the symbolic base
    length l: the prescribed-position operator values summed over all
    positions, with x_i = j_i + l - 3 substituted symbolically for the
    positive positions.  Valid counts for l >= 2; t_n(1) counts the quasi
    variant."""
    ell = MPoly.variable("l")
    total = MPoly.constant(0)
    for m, j in all_positions(n):
        p = _apply_diffs(n, *_orders(j, m))
        total += _substitute(p, _position_point(j, m, ell))
    return total


def t_value(n: int, l: int) -> int:
    return _integer(t_polynomial(n).evaluate({"l": l}))


def falling_factorial_coeffs(p: MPoly, name: str = "l"):
    """Coefficients c_k with p = sum_k c_k * name*(name-1)*...*(name-k+1),
    via Newton's forward differences at 0."""
    deg = p.degree() if p.degree() >= 0 else 0
    values = [p.evaluate({name: i}) for i in range(deg + 1)]
    coeffs = []
    fact = 1
    for k in range(deg + 1):
        if k:
            fact *= k
        coeffs.append(values[0] / fact)
        values = [values[i + 1] - values[i] for i in range(len(values) - 1)]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def verify_asymM(n: int, x) -> bool:
    """Check the constant-term representation of M_n at a non-negative
    integer point: antisymmetrize prod (1+Y_i)^{x_i} prod_{i<j}
    (1+Y_j+Y_i Y_j) over the Y's, exact-divide by the Vandermonde product,
    evaluate at Y = 0 and compare with M_n(x)."""
    x = tuple(x)
    if len(x) != n or any(v < 0 for v in x):
        raise ValueError("x must be n non-negative integers")
    ys = [f"Y{i}" for i in range(1, n + 1)]
    total = MPoly.constant(0)
    for sigma in itertools.permutations(range(n)):
        term = MPoly.constant(_sign(sigma))
        for i in range(n):
            term *= (MPoly.variable(ys[sigma[i]]) + 1) ** x[i]
        for i in range(n):
            for j in range(i + 1, n):
                yi = MPoly.variable(ys[sigma[i]])
                yj = MPoly.variable(ys[sigma[j]])
                term *= 1 + yj + yi * yj
        total += term
    vandermonde = MPoly.constant(1)
    for i in range(n):
        for j in range(i + 1, n):
            vandermonde *= MPoly.variable(ys[j]) - MPoly.variable(ys[i])
    quotient = total.exact_divide(vandermonde)
    at_zero = quotient.evaluate({y: 0 for y in ys})
    return at_zero == Fraction(eval_Mn(n, x))


def _sign(sigma):
    sign = 1
    for i in range(len(sigma)):
        for j in range(i + 1, len(sigma)):
            if sigma[i] > sigma[j]:
                sign = -sign
    return sign


def verify_asym_lemma(n: int, sample_count: int = 100, seed: int = 2024) -> bool:
    """Randomized exact check of the antisymmetrizer lemma

        ASym [ prod_{i<j} (1+X_j+X_i X_j) prod_i X_i^{i-1} /
               (1 - X_i X_{i+1} ... X_n) ]
          = prod_i 1/(1-X_i) prod_{i<j} (1+X_i+X_j)(X_j-X_i)/(1-X_i X_j)

    at sample_count rational points avoiding all poles (every nonempty
    subset product must differ from 1).  Exact rational arithmetic, so any
    agreement failure is decisive."""
    rng = random.Random(seed)
    for _ in range(sample_count):
        x = _sample_point(rng, n)
        lhs = Fraction(0)
        for sigma in itertools.permutations(range(n)):
            y = [x[sigma[i]] for i in range(n)]
            term = Fraction(_sign(sigma))
            for i in range(n):
                for j in range(i + 1, n):
                    term *= 1 + y[j] + y[i] * y[j]
            for i in range(n):
                prod_tail = Fraction(1)
                for j in range(i, n):
                    prod_tail *= y[j]
                term *= y[i] ** i / (1 - prod_tail)
            lhs += term
        rhs = Fraction(1)
        for i in range(n):
            rhs /= 1 - x[i]
        for i in range(n):
            for j in range(i + 1, n):
                rhs *= (1 + x[i] + x[j]) * (x[j] - x[i]) / (1 - x[i] * x[j])
        if lhs != rhs:
            return False
    return True


def _sample_point(rng, n):
    while True:
        x = [Fraction(rng.randint(-19, 19), rng.randint(2, 13))
             for _ in range(n)]
        ok = True
        for size in range(1, n + 1):
            for subset in itertools.combinations(x, size):
                prod = Fraction(1)
                for v in subset:
                    prod *= v
                if prod == 1:
                    ok = False
        if ok and len(set(x)) == n:
            return x
