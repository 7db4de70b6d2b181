"""Exact arithmetic kernel: generalized binomial coefficients, one sparse
multivariate polynomial type with exact coefficients (``MPoly``) with its
specialization to generating functions in P, Q, R over the integers
(``Gf``), Bareiss elimination over ints, and the determinant of a ``Gf``
matrix affine in P R, R and Q, the form of both determinant routes, as
integer determinants at the lattice points of a simplex that ``det_gf``
interpolates.

Python's unbounded ``int`` and ``fractions.Fraction`` serve as the scalar
types; nothing in this package ever touches floating point.  The type
checks accept any ``numbers.Rational``, and ``fractions`` is imported only
where a Fraction is made, so the integer routes never load it.
"""

from __future__ import annotations

from math import comb
from numbers import Rational
from operator import add, index, sub

from .errors import NonDivisibleError


def binomial(a: int, k: int) -> int:
    """Binomial coefficient a(a-1)...(a-k+1)/k! for an integer a of either sign.

    Returns 0 for k < 0.  Satisfies the Pascal recurrence and the
    upper-negation rule C(a,k) = (-1)^k C(k-a-1,k) for all integers a.
    """
    if k < 0:
        return 0
    if a >= 0:
        return comb(a, k)
    return -comb(k - a - 1, k) if k & 1 else comb(k - a - 1, k)


def add_into(states: dict, key, value) -> None:
    """Add value to states[key], or insert it there: the merge step of
    every sweep over a dict of states (trapezoid.gf, cssp.gf, operatorform's
    coordinate steps)."""
    states[key] = states[key] + value if key in states else value


def _var_key(name: str):
    """Canonical sort key for variable names: alphabetic stem, then the
    numeric suffix compared as a number ("x2" before "x10")."""
    stem = name.rstrip("0123456789")
    suffix = name[len(stem):]
    return (stem, int(suffix) if suffix else -1)


def _sorted_vars(names):
    return tuple(sorted(set(names), key=_var_key))


def _divide_sparse(num, den, coeff_div):
    """Exact division of sparse exponent-dict polynomials.  Terms are keyed
    by equal-length exponent tuples; leading terms are taken in graded-lex
    order.  coeff_div(x, y, rem) divides two coefficients.  Raises
    NonDivisibleError (with the residual terms as witness) when the
    division is not exact."""
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    if not num:
        return {}
    order = lambda e: (sum(e), e)
    den_lead = max(den, key=order)
    den_lead_c = den[den_lead]
    rem = dict(num)
    quot = {}
    while rem:
        lead = max(rem, key=order)
        exp = tuple(map(sub, lead, den_lead))
        if any(e < 0 for e in exp):
            raise NonDivisibleError("not divisible", remainder=rem)
        # the leading exponent falls strictly each round, so exp is new
        c = quot[exp] = coeff_div(rem[lead], den_lead_c, rem)
        for de, dc in den.items():
            key = tuple(map(add, exp, de))
            v = rem.get(key, 0) - c * dc
            if v:
                rem[key] = v
            else:
                rem.pop(key, None)
    return quot


def _exact(value):
    """value unchanged if it is an int or a Fraction; evaluation points
    must be exact, as coefficients must."""
    if not isinstance(value, (int, Rational)):
        raise TypeError(f"evaluation point {value!r} is not an int or a "
                        f"Fraction")
    return value


class MPoly:
    """Sparse multivariate polynomial with int or Fraction coefficients.

    Stored as an ordered variable registry plus a map from exponent tuples
    (one slot per registered variable) to nonzero coefficients, each kept
    as given: int arithmetic stays in int, and a Fraction appears only
    where one is put in.  _scalars are the coefficient and scalar types;
    Gf narrows them to int.  Values are immutable in use: all operations
    return new polynomials.
    """

    __slots__ = ("vars", "terms")
    _scalars = (int, Rational)

    def __init__(self, vars=(), terms=None):
        self.vars = tuple(vars)
        clean = {}
        if terms:
            for exp, c in terms.items():
                if not isinstance(c, self._scalars):
                    raise TypeError(f"coefficient {c!r} is not an exact "
                                    f"{type(self).__name__} coefficient")
                if c:
                    clean[tuple(exp)] = +c  # a bool is stored as an int
        self.terms = clean

    @classmethod
    def _make(cls, vars_, terms):
        """Wrap a finished exponent dict (nonzero exact coefficients)
        without copying or cleaning it."""
        p = object.__new__(cls)
        p.vars = vars_
        p.terms = terms
        return p

    @staticmethod
    def variable(name: str) -> "MPoly":
        return MPoly._make((name,), {(1,): 1})

    def __bool__(self):
        return bool(self.terms)

    def _scalar(self, c):
        """The scalar c as a polynomial of this class over this registry."""
        return self._make(self.vars,
                          {(0,) * len(self.vars): c} if c else {})

    def _align(self, other):
        """(result class, registry, terms of self, terms of other) over one
        registry, or None when other is neither a polynomial nor one of
        _scalars.  Operands of one class over one registry keep their class;
        any other pair, a Gf meeting a plain MPoly included, is computed as
        an MPoly over the union of the registries."""
        if isinstance(other, MPoly):
            if type(other) is type(self) and other.vars == self.vars:
                return type(self), self.vars, self.terms, other.terms
            union = _sorted_vars(self.vars + other.vars)
            return MPoly, union, _remap(self, union), _remap(other, union)
        if isinstance(other, self._scalars):
            return type(self), self.vars, self.terms, self._scalar(other).terms
        return None

    def __eq__(self, other):
        aligned = self._align(other)
        if aligned is None:
            return NotImplemented
        return aligned[2] == aligned[3]

    def __hash__(self):
        # equal over any registries -> equal hash; a constant hashes as its value
        if self.degree() <= 0:
            return hash(sum(self.terms.values()))
        return hash(frozenset(
            (frozenset((v, e) for v, e in zip(self.vars, exp) if e), c)
            for exp, c in self.terms.items()))

    def __add__(self, other):
        aligned = self._align(other)
        if aligned is None:
            return NotImplemented
        cls, vars_, a, b = aligned
        out = dict(a)
        for exp, c in b.items():
            v = out.get(exp, 0) + c
            if v:
                out[exp] = v
            else:
                del out[exp]
        return cls._make(vars_, out)

    __radd__ = __add__

    def __neg__(self):
        return self._make(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, (MPoly, self._scalars)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, self._scalars):
            if not other:
                return self._make(self.vars, {})
            return self._make(self.vars,
                              {e: c * other for e, c in self.terms.items()})
        aligned = self._align(other)
        if aligned is None:
            return NotImplemented
        cls, vars_, a, b = aligned
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                key = tuple(map(add, e1, e2))
                v = out.get(key, 0) + c1 * c2
                if v:
                    out[key] = v
                else:
                    out.pop(key, None)
        return cls._make(vars_, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = self._scalar(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def substitute(self, name: str, value) -> "MPoly":
        """Replace a variable by an int, a Fraction or an MPoly."""
        if name not in self.vars:
            return self
        idx = self.vars.index(name)
        rest_vars = self.vars[:idx] + self.vars[idx + 1:]
        groups = {}  # the terms by their power of name, one product each
        for exp, c in self.terms.items():
            groups.setdefault(exp[idx], {})[exp[:idx] + exp[idx + 1:]] = c
        out = MPoly._make(rest_vars, {})
        for e, group in groups.items():
            out += MPoly._make(rest_vars, group) * value ** e
        return out

    def shift_var(self, name: str, c) -> "MPoly":
        """The substitution x -> x + c (used by the shift operator E_x)."""
        return self.substitute(name, MPoly.variable(name) + c)

    def evaluate(self, assignment: dict):
        """Evaluate with every registered variable assigned an int or a
        Fraction; the value is an int when the coefficients and the
        point are."""
        total = 0
        values = [_exact(assignment[v]) for v in self.vars]
        for exp, c in self.terms.items():
            term = c
            for v, e in zip(values, exp):
                if e:
                    term *= v ** e
            total += term
        return total

    @staticmethod
    def _divide_coeff(x, y, _rem):
        from fractions import Fraction
        return Fraction(x, y)

    def exact_divide(self, other) -> "MPoly":
        """Exact division in the polynomial ring; NonDivisibleError otherwise."""
        aligned = self._align(other)
        if aligned is None:
            raise TypeError(f"cannot divide {self!r} by {other!r}")
        cls, vars_, a, b = aligned
        return cls._make(vars_, _divide_sparse(a, b, cls._divide_coeff))

    @staticmethod
    def _print_key(exp):
        # total degree descending, then exponents descending in var order
        return (-sum(exp), tuple(-x for x in exp))

    def __str__(self):
        names = _sorted_vars(self.vars)
        terms = _remap(self, names)
        return join_terms([(terms[e], monomial_str(names, e))
                           for e in sorted(terms, key=self._print_key)])

    __repr__ = __str__


def _remap(p: MPoly, target_vars):
    """Exponent dict of p re-expressed over the registry target_vars."""
    pos = {v: i for i, v in enumerate(target_vars)}
    width = len(target_vars)
    out = {}
    for exp, c in p.terms.items():
        new = [0] * width
        for v, e in zip(p.vars, exp):
            if e:
                new[pos[v]] += e
        out[tuple(new)] = out.get(tuple(new), 0) + c
    return {e: c for e, c in out.items() if c}


def monomial_str(names, exp):
    factors = []
    for v, e in zip(names, exp):
        if e == 1:
            factors.append(v)
        elif e:
            factors.append(f"{v}^{e}")
    return "*".join(factors)


def join_terms(parts):
    """Render (coefficient, monomial-string) pairs as a sum, "0" for none:
    the one term printer of Gf, MPoly and both forms of tpoly."""
    chunks = []
    for coeff, mono in parts:
        neg = coeff < 0
        mag = -coeff if neg else coeff
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not chunks:
            chunks.append(f"-{body}" if neg else body)
        else:
            chunks.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(chunks) or "0"


_PQR = ("P", "Q", "R")


class Gf(MPoly):
    """Generating-function value: an MPoly over the fixed registry
    (P, Q, R) with int coefficients, so its terms map
    (deg P, deg Q, deg R) -> coefficient.  Arithmetic among Gf values and
    ints stays in Gf; with a plain MPoly it gives an MPoly."""

    __slots__ = ()
    _scalars = int

    def __init__(self, terms=None):
        super().__init__(_PQR, terms)

    @classmethod
    def weight(cls, p=0, q=0, r=0, o=0) -> "Gf":
        """P^p Q^q R^r (P+Q-1)^o: the weight of the statistics p, q, r, with
        the expanded (P+Q-1) factor of quasi trapezoids (l = 1) and of the
        d = 0 weight taken o times."""
        w = cls._make(_PQR, {(p, q, r): 1})
        if not o:
            return w
        return w * cls._make(_PQR, {(1, 0, 0): 1, (0, 1, 0): 1,
                                    (0, 0, 0): -1}) ** o

    # Bound in Gf's own namespace as well, so that a per-class profile
    # counts Gf's adds, products and divisions apart from MPoly's.
    __add__ = __radd__ = MPoly.__add__
    __mul__ = __rmul__ = MPoly.__mul__
    exact_divide = MPoly.exact_divide

    @staticmethod
    def _divide_coeff(x, y, rem):
        q_, r_ = divmod(x, y)
        if r_:
            raise NonDivisibleError("coefficient not divisible", remainder=rem)
        return q_

    @staticmethod
    def _print_key(exp):
        # R-major order, matching how these polynomials are written by hand:
        # R-degree descending, then total P,Q-degree ascending, then P before Q.
        return (-exp[2], exp[0] + exp[1], -exp[0])


def det_fraction_free(matrix) -> int:
    """Determinant of a square integer matrix by Bareiss elimination.  Each
    step divides exactly by the previous pivot; a nonzero remainder raises
    NonDivisibleError, which python -O keeps.  A zero pivot is swapped with
    a row below, and a column with none is a determinant of 0.  TypeError
    on any entry that is not an int; the 0x0 determinant is 1.

    It is det_gf's determinant at each lattice point.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    m = [list(map(index, row)) for row in matrix]  # TypeError on a non-int
    if not n:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        top = m[k]
        pivot = top[k]
        for row in m[k + 1:]:
            a = row[k]
            for j in range(k + 1, n):
                row[j], r = divmod(row[j] * pivot - a * top[j], prev)
                if r:
                    raise NonDivisibleError("step not divisible", remainder=r)
        prev = pivot
    return m[-1][-1] if sign == 1 else -m[-1][-1]


def forward_differences(values) -> list:
    """D^k f(0), k = 0 .. len(values) - 1, for f(x) = values[x]."""
    a = list(values)
    for k in range(1, len(a)):
        # after this sweep a[k] is the k-th forward difference at 0
        for i in range(len(a) - 1, k - 1, -1):
            a[i] -= a[i - 1]
    return a


def _newton_coordinates(values) -> list[int]:
    """The coordinates D^k f(0) / k!, lowest first, in the falling-factorial
    basis of the f of degree < len(values) with f(x) = values[x], x = 0, 1,
    ...; integers for an integer polynomial, else NonDivisibleError."""
    a = forward_differences(values)
    fact = 1
    for k in range(2, len(a)):
        fact *= k
        a[k], rem = divmod(a[k], fact)
        if rem:
            raise NonDivisibleError(f"{k}-th difference {a[k] * fact + rem} "
                                    f"not divisible by {k}!", remainder=rem)
    return a


def monomials(a) -> list:
    """Monomial coefficients, lowest first, of sum_k a[k] x(x-1)...(x-k+1):
    ints for int a, Fractions for Fraction a."""
    # Horner in the Newton form a0 + x (a1 + (x-1) (a2 + (x-2) (...)))
    out = [a[-1]]
    for k in range(len(a) - 2, -1, -1):
        out = ([a[k] - k * out[0]]
               + [out[i - 1] - k * out[i] for i in range(1, len(out))]
               + [out[-1]])
    return out


def _simplex_lines(c: dict, top: int, step) -> None:
    """Replace each line of c, a dict over the lattice points
    i + j + k <= top, by step of it: along k, then j, then i."""
    for axis in (2, 1, 0):
        for u in range(top + 1):
            for v in range(top + 1 - u):
                keys = [(u, v)[:axis] + (t,) + (u, v)[axis:]
                        for t in range(top + 1 - u - v)]
                c.update(zip(keys, step([c[key] for key in keys])))


# 1, P R, R and Q as (deg P, deg Q, deg R): the monomials det_gf takes
_AFFINE = ((0, 0, 0), (1, 0, 1), (0, 0, 1), (0, 1, 0))


def _simplex_dets(matrix) -> dict:
    """{(x, y, z): det_fraction_free of matrix at x = P R, y = R, z = Q}
    over the lattice points x + y + z <= n, the order of matrix, whose
    entries must be affine in x, y and z (else ValueError)."""
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix is not square")
        if any(e not in _AFFINE for t in row for e in t.terms):
            raise ValueError(f"row {row} is not affine in P*R, R and Q")
    # one integer matrix per coordinate: c0 + x cx + y cy + z cz
    layers = [[[t.terms.get(e, 0) for t in row] for row in matrix]
              for e in _AFFINE]
    values = {}
    for x in range(n + 1):
        for y in range(n + 1 - x):
            for z in range(n + 1 - x - y):
                values[x, y, z] = det_fraction_free(
                    [[c0 + x * cx + y * cy + z * cz
                      for c0, cx, cy, cz in zip(*rows)]
                     for rows in zip(*layers)])
    return values


def det_gf(matrix) -> Gf:
    """Determinant of a square Gf matrix whose entries are affine in
    x = P R, y = R and z = Q, as K(n) + R X is in both determinant routes;
    ValueError on a ragged matrix or any other monomial; 1 if empty.

    Of order n, the determinant has total degree <= n in x, y, z, so its
    integer values at the C(n+3, 3) lattice points x + y + z <= n
    (_simplex_dets) determine it (Chung and Yao 1977).  Newton
    interpolation on that simplex (_simplex_lines) raises NonDivisibleError
    on a non-integer coordinate, and x^a y^c z^b is P^a Q^b R^(a+c).
    """
    values = _simplex_dets(matrix)
    _simplex_lines(values, len(matrix), _newton_coordinates)
    _simplex_lines(values, len(matrix), monomials)
    return Gf({(a, b, a + c): v for (a, c, b), v in values.items()})

