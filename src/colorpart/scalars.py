"""Exact coefficient arithmetic.

CycNumber: elements of the cyclotomic field Q(zeta_r) = Q[z]/Phi_r(z),
stored as rational coordinate vectors in the power basis 1, z, ..., z^(d-1)
with d = deg Phi_r = euler_phi(r).  A coordinate is an int, or a Fraction
only when it is not integral; every division goes through Fraction, so no
float ever appears.  Phi_r itself is computed as
(z^r - 1) / prod_{d | r, d < r} Phi_d, dividing exactly by monic integer
polynomials, and has int coefficients.

MPoly: sparse multivariate polynomials over CycNumber in the parameter
variables y_0, ..., y_{r-1}.
"""

from fractions import Fraction
from functools import lru_cache

_ZERO = 0
_ONE = 1


def _exact(c):
    """c as an int, or as a Fraction when it is not integral."""
    if type(c) is int:
        return c
    if not isinstance(c, Fraction):
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _normalized(coeffs):
    """A coordinate tuple with its integral Fractions made ints."""
    for c in coeffs:
        if type(c) is not int:
            return tuple(map(_exact, coeffs))
    return coeffs


@lru_cache(maxsize=None)
def _phi_coeffs(r):
    """Coefficients of the r-th cyclotomic polynomial, low degree first."""
    if r < 1:
        raise ValueError("r must be >= 1")
    phi = [-_ONE] + [_ZERO] * (r - 1) + [_ONE]  # z^r - 1
    for d in range(1, r):
        if r % d == 0:
            phi = _polydivmod(phi, _phi_coeffs(d))[0]
    return tuple(map(_exact, phi))


@lru_cache(maxsize=None)
def _reduction_rows(r):
    """Vectors expressing z^d, z^(d+1), ..., z^(2d-2) in the power basis."""
    phi = _phi_coeffs(r)
    d = len(phi) - 1
    rows = []
    # z^d = -(phi_0 + phi_1 z + ... + phi_{d-1} z^{d-1})  (Phi_r is monic)
    cur = [-c for c in phi[:d]]
    rows.append(tuple(cur))
    for _ in range(d - 2):
        nxt = [_ZERO] + cur[: d - 1]
        top = cur[d - 1]
        if top:
            nxt = [a + top * b for a, b in zip(nxt, rows[0])]
        cur = nxt
        rows.append(tuple(cur))
    return tuple(rows)


class CycNumber:
    """An element of Q(zeta_r) with exact rational coordinates: each is an
    int, or a Fraction whose denominator is not 1."""

    __slots__ = ("r", "coeffs", "_hash")

    def __init__(self, r, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != len(_phi_coeffs(r)) - 1:
            raise ValueError("coordinate vector has wrong length")
        self.r, self.coeffs, self._hash = r, _normalized(coeffs), None

    # -- constructors -------------------------------------------------
    @classmethod
    def _trusted(cls, r, coeffs):
        """Trusted constructor for arithmetic results: coeffs is already a
        tuple of the right length, so its length is not checked again."""
        x = object.__new__(cls)
        x.r, x.coeffs, x._hash = r, _normalized(coeffs), None
        return x

    @staticmethod
    def from_rational(r, q):
        d = len(_phi_coeffs(r)) - 1
        return CycNumber(r, (q,) + (_ZERO,) * (d - 1))

    @staticmethod
    def zero(r):
        return CycNumber.from_rational(r, 0)

    @staticmethod
    def one(r):
        return CycNumber.from_rational(r, 1)

    # -- basic protocol ------------------------------------------------
    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, CycNumber):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = CycNumber.from_rational(self.r, other)
        return self.r == other.r and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.r, self.coeffs))
        return self._hash

    def _coerce(self, other):
        if isinstance(other, CycNumber):
            if other.r != self.r:
                raise ValueError("mixed cyclotomic orders")
            return other
        if isinstance(other, (int, Fraction)):
            return CycNumber.from_rational(self.r, other)
        return None

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycNumber._trusted(self.r, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycNumber._trusted(self.r, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycNumber._trusted(self.r, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if not isinstance(other, CycNumber) and isinstance(other, (int, Fraction)):
            # a rational factor scales the coordinates
            return CycNumber._trusted(self.r, tuple(a * other for a in self.coeffs))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = len(self.coeffs)
        prod = [_ZERO] * (2 * d - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(o.coeffs):
                if b:
                    prod[i + j] += a * b
        out = list(prod[:d])
        rows = _reduction_rows(self.r)
        for i in range(d, 2 * d - 1):
            c = prod[i]
            if c:
                row = rows[i - d]
                for j in range(d):
                    out[j] += c * row[j]
        return CycNumber._trusted(self.r, tuple(out))

    __rmul__ = __mul__

    def inverse(self):
        """Field inverse: the reciprocal of a rational number, otherwise
        via the extended Euclidean algorithm in Q[z]."""
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        if not any(self.coeffs[1:]):
            return CycNumber.from_rational(self.r, Fraction(1, self.coeffs[0]))
        phi = list(_phi_coeffs(self.r))
        a = list(self.coeffs)
        # extended gcd of a and phi as rational polynomials
        r0, r1 = phi, _trim(a)
        s0, s1 = [_ZERO], [_ONE]
        while len(r1) > 1 or r1[0]:
            q, rem = _polydivmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _polysub(s0, _polymul(q, s1))
        # now r0 = gcd (a nonzero constant since Phi_r is irreducible)
        c = r0[0]
        if len(r0) != 1 or not c:
            raise ArithmeticError("gcd with cyclotomic polynomial not constant")
        inv = [Fraction(x, c) for x in s0]
        d = len(self.coeffs)
        inv = (inv + [_ZERO] * d)[:d]
        return CycNumber(self.r, tuple(inv))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def conjugate(self):
        """Complex conjugation: zeta -> zeta^(r-1)."""
        out = CycNumber.zero(self.r)
        for i, a in enumerate(self.coeffs):
            if a:
                out = out + a * zeta_pow(self.r, (i * (self.r - 1)) % self.r)
        return out

    def as_rational(self):
        """Return self as an int or Fraction, or raise if not rational."""
        if any(self.coeffs[1:]):
            raise ValueError("not a rational number: %s" % (self,))
        return self.coeffs[0]

    def as_integer(self):
        q = self.as_rational()
        if q.denominator != 1:
            raise ValueError("not an integer: %s" % (self,))
        return q.numerator

    def __repr__(self):
        terms = []
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            if i == 0:
                terms.append(str(a))
            elif i == 1:
                terms.append("%s*z" % a)
            else:
                terms.append("%s*z^%d" % (a, i))
        return " + ".join(terms) if terms else "0"


def _trim(p):
    p = list(p)
    while len(p) > 1 and not p[-1]:
        p.pop()
    return p if p else [_ZERO]


def _polymul(a, b):
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _trim(out)


def _polysub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [_ZERO] * (n - len(a))
    b = list(b) + [_ZERO] * (n - len(b))
    return _trim([x - y for x, y in zip(a, b)])


def _polydivmod(a, b):
    a = list(a)
    b = _trim(b)
    q = [_ZERO] * max(1, len(a) - len(b) + 1)
    while len(_trim(a)) >= len(b) and _trim(a) != [_ZERO]:
        a = _trim(a)
        if len(a) < len(b):
            break
        c = _exact(Fraction(a[-1], b[-1]))
        deg = len(a) - len(b)
        q[deg] += c
        for j, y in enumerate(b):
            a[deg + j] -= c * y
        a = a[:-1]
    return _trim(q), _trim(a)


@lru_cache(maxsize=None)
def zeta_pow(r, j):
    """zeta_r^j as a CycNumber: 1 multiplied j mod r times by zeta, where
    zeta shifts the power basis up and rewrites z^d by Phi_r."""
    low = _reduction_rows(r)[0]  # z^d in the power basis
    coeffs = (_ONE,) + (_ZERO,) * (len(low) - 1)
    for _ in range(j % r):
        top = coeffs[-1]
        coeffs = (_ZERO,) + coeffs[:-1]
        if top:
            coeffs = tuple(a + top * b for a, b in zip(coeffs, low))
    return CycNumber(r, coeffs)


class MPoly:
    """Sparse polynomial in y_0..y_{r-1} with CycNumber coefficients."""

    __slots__ = ("r", "terms", "_hash")

    def __init__(self, r, terms):
        self.r = r
        clean = {}
        for exps, c in terms.items():
            if not isinstance(c, CycNumber):
                c = CycNumber.from_rational(r, c)
            if c:
                clean[tuple(exps)] = c
        self.terms = clean
        self._hash = None

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero(r):
        return MPoly(r, {})

    @staticmethod
    def one(r):
        return MPoly.constant(r, 1)

    @staticmethod
    def constant(r, c):
        return MPoly(r, {(0,) * r: c})

    @staticmethod
    def variable(r, i):
        exps = [0] * r
        exps[i] = 1
        return MPoly(r, {tuple(exps): CycNumber.one(r)})

    @staticmethod
    def monomial(r, exps, c=1):
        return MPoly(r, {tuple(exps): c})

    # -- protocol ------------------------------------------------------
    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, CycNumber)):
            other = MPoly.constant(self.r, other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.r == other.r and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.r, frozenset(self.terms.items())))
        return self._hash

    def _coerce(self, other):
        if isinstance(other, MPoly):
            if other.r != self.r:
                raise ValueError("mixed variable counts")
            return other
        if isinstance(other, (int, Fraction, CycNumber)):
            return MPoly.constant(self.r, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in o.terms.items():
            t = terms.get(e)
            terms[e] = c if t is None else t + c
        return MPoly(self.r, terms)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.r, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in o.terms.items():
            t = terms.get(e)
            terms[e] = -c if t is None else t - c
        return MPoly(self.r, terms)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                if e in terms:
                    terms[e] = terms[e] + c
                else:
                    terms[e] = c
        return MPoly(self.r, terms)

    __rmul__ = __mul__

    # -- queries ---------------------------------------------------------
    def eval(self, point):
        """Exact evaluation at a vector of r CycNumbers or rationals.  Each
        coordinate is raised to each power once, an integral one as an int;
        a monomial at a rational point is a rational that scales its
        coefficient."""
        if len(point) != self.r:
            raise ValueError("evaluation point has wrong length")
        powers = []
        for i, v in enumerate(point):
            if not isinstance(v, CycNumber):
                v = _exact(v)
            row = [1]
            for _ in range(max((e[i] for e in self.terms), default=0)):
                row.append(row[-1] * v)
            powers.append(row)
        total = CycNumber.zero(self.r)
        for e, c in self.terms.items():
            m = 1
            for row, a in zip(powers, e):
                if a:
                    m = m * row[a]
            total = total + c * m
        return total

    def degree_in(self, i):
        if not self.terms:
            raise ValueError("degree of zero polynomial")
        return max(e[i] for e in self.terms)

    def leading_coeff_in(self, i):
        """(max degree d in y_i, coefficient polynomial of y_i^d)."""
        d = self.degree_in(i)
        terms = {}
        for e, c in self.terms.items():
            if e[i] == d:
                e2 = list(e)
                e2[i] = 0
                terms[tuple(e2)] = c
        return d, MPoly(self.r, terms)

    def divexact(self, other):
        """Exact division; raises if the division is not exact.  The
        remainder is one dict: each step pops its lex-max term and updates
        only the keys that the divisor's other terms reach."""
        o = self._coerce(other)
        if not o:
            raise ZeroDivisionError("division by zero polynomial")
        lead_e = max(o.terms)  # lex order on exponent tuples
        lead_inv = o.terms[lead_e].inverse()
        tail = [(e, c) for e, c in o.terms.items() if e != lead_e]
        rem = dict(self.terms)
        quot = {}
        while rem:
            e = max(rem)
            diff = tuple(a - b for a, b in zip(e, lead_e))
            if any(d < 0 for d in diff):
                raise ArithmeticError("inexact polynomial division")
            c = rem.pop(e) * lead_inv
            quot[diff] = c
            for oe, oc in tail:
                key = tuple(a + b for a, b in zip(diff, oe))
                v = rem.get(key)
                v = -(c * oc) if v is None else v - c * oc
                if v:
                    rem[key] = v
                else:
                    del rem[key]
        return MPoly(self.r, quot)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            factors = []
            for i, a in enumerate(e):
                if a == 1:
                    factors.append("y%d" % i)
                elif a > 1:
                    factors.append("y%d^%d" % (i, a))
            cs = repr(c)
            if " + " in cs:
                cs = "(%s)" % cs
            if factors and cs == "1":
                parts.append("*".join(factors))
            elif factors:
                parts.append(cs + "*" + "*".join(factors))
            else:
                parts.append(cs)
        return " + ".join(parts)
