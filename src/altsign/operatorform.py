"""The operator formula route: the polynomial M_n, difference operators,
closed-form (s,t)-tree counts, trapezoid counts and generating functions
with prescribed 1-column positions, and exact verification of the two
symmetrizer identities the derivation rests on.

M_n is kept as integer coordinates m_a over the binomial basis
prod_i C(x_i, a_i), where the forward difference is an index shift,
fwd C(x, a) = C(x, a - 1), and prod_{i<j} (x_j - x_i) / (j - i) =
det[C(x_j, i - 1)] has coordinate sgn(sigma) at a = sigma: nothing on the
route divides.  Every operator is a polynomial in the shifts E_x:

    forward difference:   fwd = E_x - Id
    backward difference:  bwd = Id - E_x^{-1}
    weight factors:       E (1 - P bwd)      = E + P (1 - E)
                          E^{-1} (1 + Q fwd) = E^{-1} + Q (1 - E^{-1})

Operators in distinct variables commute, as do all operators in the same
variable.  A position x fixes both the operator on one variable and that
variable's value v: (-fwd)^a = (1 - E)^a (x < 0) or bwd^a = (1 - E^{-1})^a
(x > 0), times the weight factor.  As fwd C(y, t) = C(y, t - 1) and
bwd C(y, t) = C(y - 1, t - 1) for every integer y, each such factor maps
C(., t) read at v to one binomial, so each step (_step) contracts the
first index.  At P = Q = 1 the weight factors are the identity, so every
formula folds the one step per variable at unit weights into an int (a
count) or at the monomials P, Q, R into a Gf.  t_n as a polynomial in l
is Andrews' product's (altsign.andrews.t_polynomial).
"""

from __future__ import annotations

import itertools
import math
import random
from functools import lru_cache
from types import MappingProxyType
from typing import TYPE_CHECKING

from .andrews import t_polynomial  # unused here: bound for callers
from .errors import InvalidShapeError, ShapeMismatchError, check_domain
from .exactalg import Gf, add_into, binomial

if TYPE_CHECKING:
    from .exactalg import MPoly


def shift(p: MPoly, name: str, k: int = 1) -> MPoly:
    return p.shift_var(name, k)


def fwd_diff(p: MPoly, name: str) -> MPoly:
    return p.shift_var(name, 1) - p


def bwd_diff(p: MPoly, name: str) -> MPoly:
    return p - p.shift_var(name, -1)


# the largest n of each entry point: M_7 has 222,642 coordinates, and M_8
# is not built in memory; verify asymm builds one constant term over the
# n^n exponent grid per point, 4^n points at about 62 ms each at n = 5, so
# n = 6 would take hours; verify asym sums over the n! permutations per
# sample, about 0.11 s of CPU at n = 6, 1.1 s at n = 7 and 10.6 s at n = 8
# (one 2-core Xeon), so n = 8 at the default 100 samples would take 18
# minutes
REACH = {"the operator route": 7, "verify asymm": 5, "verify asym": 7}


def check_reach(n: int, name: str = "the operator route") -> None:
    """ValueError, before any work, past n = REACH[name]."""
    if n > REACH[name]:
        raise ValueError(f"n = {n} is past {name}'s reach, n <= {REACH[name]}")


def check_samples(count: int) -> None:
    """ValueError below one sample: a sweep over none checks nothing."""
    if count < 1:
        raise ValueError(f"need at least one sample, got {count}")


@lru_cache(maxsize=None)
def compute_Mn(n: int) -> MappingProxyType:
    """M_n as {a: m_a} over prod_i C(x_i, a_i): prod_{p<q} (1 + fwd_q +
    fwd_p fwd_q) applied to the scaled Vandermonde product {sigma: sgn
    sigma}, each fwd lowering one index by one.  M_n has total degree
    n(n-1)/2 and M_0 = 1.  Cached per n, so read-only; refused past n = 7."""
    check_domain(n)
    check_reach(n)
    coords = {sigma: _sign(sigma)
              for sigma in itertools.permutations(range(n))}
    for p_ in range(n):
        for q_ in range(p_ + 1, n):
            out = {}
            for a, c in coords.items():
                add_into(out, a, c)
                if a[q_]:
                    b = a[:q_] + (a[q_] - 1,) + a[q_ + 1:]
                    add_into(out, b, c)
                    if a[p_]:
                        add_into(out, b[:p_] + (a[p_] - 1,) + b[p_ + 1:], c)
            coords = {a: c for a, c in out.items() if c}
    return MappingProxyType(coords)


# the weights (P, Q, R): units for a count, the monomials for a Gf
_UNIT = (1, 1, 1)
_PQR = (Gf.weight(p=1), Gf.weight(q=1), Gf.weight(r=1))


def _step(coords: dict, x: int, value, weights) -> dict:
    """The one operator step of the first variable at the signed position
    x, read at x_1 = value: (1 - E^e)^a (E^e + w (1 - E^e)), with (a, e, w)
    = (-x-1, 1, P) for x < 0 and (x-1, -1, Q) for x > 0.  Applied to
    C(x_1, a_1), that is a number (a Gf at _PQR), so the step contracts the
    first index of the coordinates.  At w = 1 the weight factor is the
    identity (Pascal's rule holds at every integer value)."""
    a, e, w = (-x - 1, 1, weights[0]) if x < 0 else (x - 1, -1, weights[1])

    def diffs(b, s, t):  # (1 - E^e)^b E^{es} C(., t), read at value
        if e == 1:  # (-fwd)^b at value + s
            return (-1) ** b * binomial(value + s, t - b)
        return binomial(value - s - b, t - b)  # fwd^b at value - s - b

    factors, out = {}, {}
    for key, c in coords.items():
        t = key[0]
        if t not in factors:
            factors[t] = diffs(a, 1, t) + w * diffs(a + 1, 0, t)
        if factors[t]:
            add_into(out, key[1:], c * factors[t])
    return {rest: c for rest, c in out.items() if c}


def _fold(n: int, xs, values, weights):
    """M_n after the step of every variable x_i at (xs[i-1], values[i-1])
    at the weights: an int, or a Gf at _PQR."""
    coords = compute_Mn(n)
    for x, value in zip(xs, values):
        coords = _step(coords, x, value, weights)
    return 0 * weights[2] + coords.get((), 0)  # a Gf at _PQR even for n = 0


def _at(x: int, l: int) -> int:
    """x_i's value at the signed position x: x, or x + l - 3 for x > 0."""
    return x if x < 0 else x + l - 3


def eval_Mn(n: int, values) -> int:
    """M_n at any integer point, monotone or not (no operator acts)."""
    values = tuple(values)
    if len(values) != n:
        raise ShapeMismatchError(f"need {n} values, got {len(values)}")
    return _fold(n, [-1] * n, values, _UNIT)


def count_sttrees_formula(n: int, s, t, b) -> int:
    """Closed-form count of (s,t)-trees of order n with diagonal bottom
    entries b: apply (-fwd_{x_1})^{s_1} ... bwd_{x_n}^{t_n} to M_n and
    evaluate at x = b.  As positions: s_k is x = -s_k - 1, t_k is
    x = t_k + 1, and a free variable is x = -1 (no difference).  Outside
    sttree.formula_domain it raises InvalidShapeError: enumerate_sttrees'
    refusal (sttree.check_instance), or where the formula miscounts."""
    from .sttree import check_instance, formula_domain
    s, t, b = tuple(s), tuple(t), tuple(b)
    check_instance(n, s, t, b)
    if not formula_domain(n, s, t, b):
        raise InvalidShapeError(f"the closed formula does not apply to "
                                f"n={n}, s={s}, t={t}, b={b}")
    xs = ([-k - 1 for k in s] + [-1] * (n - len(s) - len(t))
          + [k + 1 for k in t])
    return _fold(n, xs, b, _UNIT)


def _positions(n: int, j):
    """Check the signed positions j_1 < ... < j_m < 0 < j_{m+1} < ... < j_n;
    j, or None outside the labeled range -n..n (the value is 0 there)."""
    j = tuple(j)
    if any(x == 0 for x in j) or list(j) != sorted(set(j)):
        raise ValueError(f"positions must be strictly increasing and nonzero: {j}")
    if len(j) != n:
        raise ShapeMismatchError(f"need {n} positions, got {len(j)}")
    if j and (j[0] < -n or j[-1] > n):
        return None
    return j


def _gf_weights(l: int) -> tuple:
    """_PQR; the P,Q-weights count trapezoids for l >= 2 only."""
    if l < 2:
        raise ValueError("the weighted operator formula needs l >= 2")
    return _PQR


def _prescribed(n: int, l: int, j, weights):
    j = _positions(n, j)
    return (0 * weights[2] if j is None
            else _fold(n, j, [_at(x, l) for x in j], weights))


def count_ast_prescribed(n: int, l: int, j) -> int:
    """Number of (n,l)-trapezoids whose 1-columns sit at the signed
    positions j_1 < ... < j_m < 0 < j_{m+1} < ... < j_n; zero when the
    positions leave the labeled range."""
    return _prescribed(n, l, j, _UNIT)


def gf_ast_prescribed(n: int, l: int, j) -> Gf:
    """P,Q-generating function of the (n,l)-trapezoids with 1-columns at
    positions j: the operator product E (1 - P bwd) (-fwd)^{-j_i-1} for the
    negative positions and E^{-1} (1 + Q fwd) bwd^{j_i-1} for the positive
    ones, applied to M_n.  At P = Q = 1 this is the plain count."""
    return _prescribed(n, l, j, _gf_weights(l))


def all_positions(n: int):
    """All admissible 1-column position vectors: m negative labels from
    -n..-1 and n-m positive labels from 1..n, for m = 0..n."""
    check_domain(n)
    for m in range(n + 1):
        for neg in itertools.combinations(range(-n, 0), m):
            for pos in itertools.combinations(range(1, n + 1), n - m):
                yield m, neg + pos


def _position_sum(n: int, l: int, weights):
    """The operator values of all_positions(n) at the weights (P, Q, R)
    summed, each times R^m: an int, or a Gf at _PQR.  A depth-first walk
    over increasing labels: x_i takes each label that leaves enough larger
    ones for x_{i+1}..x_n, so the position vectors that share a prefix
    share its steps."""
    labels = [*range(-n, 0), *range(1, n + 1)]
    r, zero = weights[2], 0 * weights[2]

    def walk(coords, i, first):
        if i > n:
            return coords.get((), zero)
        total = zero
        for k in range(first, n + i):
            x = labels[k]
            below = walk(_step(coords, x, _at(x, l), weights), i + 1, k + 1)
            total += r * below if x < 0 else below
        return total

    return zero + walk(compute_Mn(n), 1, 0)  # a Gf at _PQR even for n = 0


def gf_ast_via_operator(n: int, l: int) -> Gf:
    """Full generating function by the operator route: sum R^m times the
    prescribed-position P,Q-polynomials over all position vectors."""
    check_domain(n, l)
    return _position_sum(n, l, _gf_weights(l))


def t_value(n: int, l: int) -> int:
    """t_n(l), the number of (n,l)-trapezoids for l >= 2 (of the quasi
    ones for l = 1): one walk."""
    return _position_sum(n, l, _UNIT)


count_ast_via_operator = t_value


def asymM_constant_term(n: int, x) -> int:
    """S(0) for the quotient S of the antisymmetrization of
    F = prod (1+Y_i)^{x_i} prod_{i<j} (1+Y_j+Y_i Y_j) by the Vandermonde
    product prod_{i<j} (Y_j - Y_i), read off without dividing.

    The Vandermonde product is homogeneous of degree n(n-1)/2 with
    coefficient 1 at Y^delta, delta = (0, 1, ..., n-1), so S(0) is the
    coefficient of Y^delta in the antisymmetrization: the sum over
    permutations sigma of sign(sigma) times F's coefficient at the exponent
    vector sigma.  No factor lowers an exponent, so F is built with every
    term that has an exponent above n-1 dropped."""
    x = tuple(x)
    if len(x) != n or any(v < 0 for v in x):
        raise ValueError("x must be n non-negative integers")

    def unit(*idx):
        return tuple(idx.count(i) for i in range(n))

    factors = [{unit(*[i] * k): binomial(x[i], k)
                for k in range(min(x[i], n - 1) + 1)} for i in range(n)]
    factors += [{unit(): 1, unit(j): 1, unit(i, j): 1}
                for i in range(n) for j in range(i + 1, n)]
    poly = {unit(): 1}
    for factor in factors:
        product = {}
        for e, c in poly.items():
            for f, d in factor.items():
                g = tuple(a + b for a, b in zip(e, f))
                if max(g) < n:
                    product[g] = product.get(g, 0) + c * d
        poly = product
    return sum(_sign(sigma) * poly.get(sigma, 0)
               for sigma in itertools.permutations(range(n)))


def verify_asymM(n: int, x) -> bool:
    """Check the constant-term representation of M_n at a non-negative
    integer point: the constant term of ASym[F] / Vandermonde
    (asymM_constant_term) equals M_n(x)."""
    return asymM_constant_term(n, x) == eval_Mn(n, x)


def _sign(sigma):
    return (-1) ** sum(a > b for a, b in itertools.combinations(sigma, 2))


def verify_asym_lemma(n: int, sample_count: int, seed: int) -> bool:
    """Randomized exact check of the antisymmetrizer lemma

        ASym [ prod_{i<j} (1+X_j+X_i X_j) prod_i X_i^{i-1} /
               (1 - X_i X_{i+1} ... X_n) ]
          = prod_i 1/(1-X_i) prod_{i<j} (1+X_i+X_j)(X_j-X_i)/(1-X_i X_j)

    at sample_count rational points avoiding all poles (every nonempty
    subset product must differ from 1).  Exact rational arithmetic, so any
    agreement failure is decisive."""
    from fractions import Fraction
    check_samples(sample_count)
    rng = random.Random(seed)
    for _ in range(sample_count):
        x = _sample_point(rng, n)
        lhs = Fraction(0)
        for sigma in itertools.permutations(range(n)):
            y = [x[sigma[i]] for i in range(n)]
            term = Fraction(_sign(sigma))
            for i, j in itertools.combinations(range(n), 2):
                term *= 1 + y[j] + y[i] * y[j]
            for i in range(n):
                term *= y[i] ** i / (1 - math.prod(y[i:]))
            lhs += term
        rhs = Fraction(1) / math.prod(1 - v for v in x)
        for i, j in itertools.combinations(range(n), 2):
            rhs *= (1 + x[i] + x[j]) * (x[j] - x[i]) / (1 - x[i] * x[j])
        if lhs != rhs:
            return False
    return True


def _sample_point(rng, n):
    from fractions import Fraction
    while True:
        x = [Fraction(rng.randint(-19, 19), rng.randint(2, 13))
             for _ in range(n)]
        if len(set(x)) == n and all(
                math.prod(subset) != 1 for size in range(1, n + 1)
                for subset in itertools.combinations(x, size)):
            return x
