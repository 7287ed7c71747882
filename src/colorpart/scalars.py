"""Exact coefficient arithmetic.

CycNumber: elements of the cyclotomic field Q(zeta_r) = Q[z]/Phi_r(z),
stored as rational coordinate vectors in the power basis 1, z, ..., z^(d-1)
with d = deg Phi_r = euler_phi(r).  A coordinate is an int, or a Fraction
only when it is not integral; every division goes through Fraction, so no
float ever appears.  Phi_r itself is computed as
(z^r - 1) / prod_{d | r, d < r} Phi_d, dividing exactly by monic integer
polynomials, and has int coefficients.  The inverse of a non-rational
element a is P / (a * P), where P is the product of the Galois conjugates
of a other than a itself and a * P is its norm, a rational number.

MPoly: sparse multivariate polynomials over Q(zeta_r) in the parameter
variables y_0, ..., y_{r-1}, stored as one flat dict from (y-exponents,
z-degree) to the rational coordinate of that term: an int, or a Fraction
only when it is not integral.  The pair is packed into one int, each
exponent and the z-degree in a 32-bit field, y_0's the highest, so a
monomial product is one integer addition and int order is lex order.  A
product's z-degrees d..2d-2 are rewritten by the same reduction rows as
CycNumber's.  eval_many evaluates many polynomials at one point, forming
each coordinate's powers once for all of them, and MPoly.eval is its
one-polynomial case.
Exact division forms a CycNumber only for an irrational leading
coefficient.
`terms` is a read-only {y-exponents: CycNumber} view built on demand.
The constructor rejects an exponent vector that is not r ints in
0..2^31 - 1 and a coefficient that is not an int, Fraction or CycNumber;
arithmetic results skip the check.
"""

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate
from math import gcd, lcm
from operator import mul, or_
from types import MappingProxyType

_ZERO = 0
_ONE = 1


def _exact(c):
    """c as an int, or as a Fraction when it is not integral; TypeError
    unless c is an int or a Fraction, so no float or string gets in."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError("%r is not an int or a Fraction" % (c,))


def _normalized(coeffs):
    """A coordinate tuple with its integral Fractions made ints."""
    for c in coeffs:
        if type(c) is not int:
            return tuple(map(_exact, coeffs))
    return coeffs


@lru_cache(maxsize=None)
def _phi_coeffs(r):
    """Coefficients of the r-th cyclotomic polynomial, low degree first:
    z^r - 1 divided exactly by each monic Phi_d, d | r, d < r, in int
    arithmetic."""
    if r < 1:
        raise ValueError("r must be >= 1")
    phi = [-_ONE] + [_ZERO] * (r - 1) + [_ONE]  # z^r - 1
    for d in range(1, r):
        if r % d == 0:
            div = _phi_coeffs(d)
            m = len(div) - 1
            quot = [_ZERO] * (len(phi) - m)
            for top in range(len(phi) - 1, m - 1, -1):
                c = quot[top - m] = phi[top]
                if c:
                    for j, b in enumerate(div):
                        phi[top - m + j] -= c * b
            phi = quot
    return tuple(phi)


@lru_cache(maxsize=None)
def _reduction_rows(r):
    """Vectors expressing z^d, z^(d+1), ..., z^(2d-2) in the power basis."""
    phi = _phi_coeffs(r)
    d = len(phi) - 1
    # z^d = -(phi_0 + phi_1 z + ... + phi_{d-1} z^{d-1})  (Phi_r is monic)
    cur = [-c for c in phi[:d]]
    rows = [tuple(cur)]
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
        den * P / N.  Here a = den * self has int coordinates, P is the
        product of the Galois conjugates sigma_j(a) for j prime to r,
        j != 1, and N = a * P is the field norm of a, an int."""
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        if not any(self.coeffs[1:]):
            return CycNumber.from_rational(self.r, Fraction(1, self.coeffs[0]))
        den = lcm(*(c.denominator for c in self.coeffs))
        a = self * den  # int coordinates, so the products below stay in ints
        prod = reduce(CycNumber.__mul__, (a._galois(j) for j in range(2, self.r)
                                          if gcd(j, self.r) == 1))
        return prod * Fraction(den, (a * prod).as_rational())

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

    def _galois(self, j):
        """sigma_j: zeta -> zeta^j, applied coordinate by coordinate."""
        out = [_ZERO] * len(self.coeffs)
        for i, a in enumerate(self.coeffs):
            if a:
                out = [x + a * y for x, y in zip(out, zeta_pow(self.r, i * j % self.r).coeffs)]
        return CycNumber._trusted(self.r, tuple(out))

    def conjugate(self):
        """Complex conjugation: zeta -> zeta^(r-1)."""
        return self._galois(self.r - 1)

    def as_rational(self):
        """Return self as an int or Fraction, or raise if not rational."""
        if any(self.coeffs[1:]):
            raise ValueError("not a rational number: %s" % (self,))
        return self.coeffs[0]

    def __repr__(self):
        return " + ".join(str(a) if i == 0 else "%s*z" % a if i == 1 else "%s*z^%d" % (a, i)
                          for i, a in enumerate(self.coeffs) if a) or "0"


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


# -- packed monomial keys ------------------------------------------------------

_BITS = 32  # width of one field of a packed key
_FIELD = (1 << _BITS) - 1
_LIMIT = 1 << (_BITS - 1)  # every exponent stays below its field's top bit


@lru_cache(maxsize=None)
def _layout(r):
    """(d, shifts, guard) for keys in r variables.  d = euler_phi(r) is the
    number of z-degrees; shifts[i] is the bit offset of y_i's field, y_0's
    the highest, so the int order of keys is the lex order of
    (y-exponents, z-degree); guard has the top bit of every field set."""
    d = len(_phi_coeffs(r)) - 1
    shifts = tuple(_BITS * (r - i) for i in range(r))
    guard = sum(_LIMIT << (_BITS * f) for f in range(r + 1))
    return d, shifts, guard


def _quo(a, b):
    """a / b for rationals, an int wherever it is integral."""
    if type(a) is int and type(b) is int:
        q, m = divmod(a, b)
        if not m:
            return q
    return _exact(Fraction(a) / b)


def _settled(r, acc):
    """The MPoly of a raw {key: coordinate} sum: zeros dropped, integral
    Fractions made ints."""
    return MPoly._trusted(r, {k: c if type(c) is int else _exact(c)
                              for k, c in acc.items() if c})


class MPoly:
    """Sparse polynomial in y_0..y_{r-1} over Q(zeta_r), stored as one flat
    dict: the packed key of (y-exponents, z-degree) maps to the rational
    coordinate of that z-power in the monomial's coefficient.  A monomial
    product is one key addition; `terms` is the {y-exponents: CycNumber}
    view, built on each access."""

    __slots__ = ("r", "_c", "_hash")

    def __init__(self, r, terms):
        """terms maps exponent vectors, r non-negative ints each, to ints,
        Fractions or CycNumbers of order r.  A malformed exponent vector or
        a CycNumber of another order raises ValueError, a coefficient of
        any other type TypeError."""
        _, shifts, _ = _layout(r)
        flat = {}
        for exps, c in terms.items():
            exps = tuple(exps)
            if len(exps) != r or not all(type(e) is int and 0 <= e < _LIMIT for e in exps):
                raise ValueError("exponent vector %r is not %d exponents in 0..%d"
                                 % (exps, r, _LIMIT - 1))
            if isinstance(c, CycNumber):
                if c.r != r:
                    raise ValueError("mixed cyclotomic orders")
                coords = c.coeffs
            elif isinstance(c, (int, Fraction)):
                coords = (_exact(c),)
            else:
                raise TypeError("coefficient %r is not an int, Fraction or CycNumber"
                                % (c,))
            base = sum(e << s for e, s in zip(exps, shifts))
            for z, a in enumerate(coords):
                if a:
                    flat[base + z] = a
        self.r, self._c, self._hash = r, flat, None

    # -- constructors -------------------------------------------------
    @classmethod
    def _trusted(cls, r, flat):
        """Trusted constructor for arithmetic results: flat is already a
        packed, reduced map with nonzero normalized coordinates."""
        x = object.__new__(cls)
        x.r, x._c, x._hash = r, flat, None
        return x

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
        return MPoly.monomial(r, [int(j == i) for j in range(r)])

    @staticmethod
    def monomial(r, exps, c=1):
        return MPoly(r, {tuple(exps): c})

    # -- protocol ------------------------------------------------------
    @property
    def terms(self):
        """Read-only {y-exponents: CycNumber} view of the polynomial."""
        d, shifts, _ = _layout(self.r)
        coords = {}
        for key, c in self._c.items():
            base = key - (key & _FIELD)
            vec = coords.get(base)
            if vec is None:
                vec = coords[base] = [0] * d
            vec[key & _FIELD] = c
        return MappingProxyType({
            tuple(base >> s & _FIELD for s in shifts): CycNumber._trusted(self.r, tuple(vec))
            for base, vec in coords.items()})

    def __bool__(self):
        return bool(self._c)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, CycNumber)):
            other = MPoly.constant(self.r, other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.r == other.r and self._c == other._c

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.r, frozenset(self._c.items())))
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
        acc = dict(self._c)
        for k, c in o._c.items():
            acc[k] = acc.get(k, 0) + c
        return _settled(self.r, acc)

    __radd__ = __add__

    def __neg__(self):
        return MPoly._trusted(self.r, {k: -c for k, c in self._c.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc = dict(self._c)
        for k, c in o._c.items():
            acc[k] = acc.get(k, 0) - c
        return _settled(self.r, acc)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        """Term by term: a product of monomials is one key addition, and
        z-degrees d..2d-2 are then rewritten by _reduction_rows.  Fields
        never carry into each other, since every exponent is below half
        its field; a product exponent that reaches that bound raises."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        r = self.r
        d, _, guard = _layout(r)
        acc = {}
        get = acc.get
        right = list(o._c.items())
        for k1, c1 in self._c.items():
            for k2, c2 in right:
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2
        if reduce(or_, acc, 0) & guard:
            raise OverflowError("an exponent reached %d" % _LIMIT)
        for key in [k for k in acc if k & _FIELD >= d]:
            c = acc.pop(key)
            base = key - (key & _FIELD)
            for j, a in enumerate(_reduction_rows(r)[(key & _FIELD) - d]):
                if a:
                    acc[base + j] = get(base + j, 0) + c * a
        return _settled(r, acc)

    __rmul__ = __mul__

    # -- queries ---------------------------------------------------------
    def eval(self, point):
        """Exact evaluation at a vector of r CycNumbers or rationals: the
        one-polynomial case of eval_many."""
        return eval_many(self.r, (self,), point)[0]

    def degree_in(self, i):
        if not 0 <= i < self.r:
            raise IndexError("no variable y%d" % i)
        if not self._c:
            raise ValueError("degree of zero polynomial")
        s = _layout(self.r)[1][i]
        return max(k >> s & _FIELD for k in self._c)

    def leading_coeff_in(self, i):
        """(max degree d in y_i, coefficient polynomial of y_i^d)."""
        d = self.degree_in(i)
        s = _layout(self.r)[1][i]
        return d, MPoly._trusted(self.r, {k - (d << s): c for k, c in self._c.items()
                                          if k >> s & _FIELD == d})

    def divexact(self, other):
        """Exact division; raises ArithmeticError if it is not exact.  The
        divisor's lead is its lex-max exponent vector.  Each step pops the
        lex-max exponent of the remainder, one dict, divides its coordinate
        vector by the lead's (rationally unless the lead coefficient is
        irrational) and subtracts the quotient term times the divisor's
        other terms in place."""
        o = self._coerce(other)
        if o is None:
            raise TypeError("cannot divide an MPoly by %r" % (other,))
        if not o:
            raise ZeroDivisionError("division by zero polynomial")
        r = self.r
        d, _, guard = _layout(r)
        rows = _reduction_rows(r)
        top = max(o._c)
        lead = top - (top & _FIELD)
        lc = [o._c.get(lead + z, 0) for z in range(d)]
        inv = CycNumber._trusted(r, tuple(lc)).inverse() if any(lc[1:]) else None
        tail = [(k, c) for k, c in o._c.items() if k - (k & _FIELD) != lead]
        rem = dict(self._c)
        get = rem.get
        quot = {}
        while rem:
            top = max(rem)
            e = top - (top & _FIELD)
            if e & guard:
                raise OverflowError("an exponent reached %d" % _LIMIT)
            diff = (e | guard) - lead  # a field keeps its top bit iff e >= lead there
            if diff & guard != guard:
                raise ArithmeticError("inexact polynomial division")
            diff -= guard
            vec = [rem.pop(e + z, 0) for z in range(d)]
            if inv is None:
                q = [_quo(c, lc[0]) for c in vec]
            else:
                q = (CycNumber._trusted(r, tuple(vec)) * inv).coeffs
            for z, qc in enumerate(q):
                if not qc:
                    continue
                quot[diff + z] = qc
                for k, c in tail:
                    key = diff + z + k
                    if key & _FIELD < d:
                        v = get(key, 0) - qc * c
                        if v:
                            rem[key] = v
                        else:
                            del rem[key]
                        continue
                    base = key - (key & _FIELD)
                    for j, a in enumerate(rows[(key & _FIELD) - d]):
                        v = get(base + j, 0) - qc * c * a
                        if v:
                            rem[base + j] = v
                        elif base + j in rem:
                            del rem[base + j]
        return MPoly._trusted(r, quot)

    def __repr__(self):
        parts = []
        for e, c in sorted(self.terms.items(), reverse=True):
            cs = repr(c)
            factors = ["y%d" % i if a == 1 else "y%d^%d" % (i, a) for i, a in enumerate(e) if a]
            if not factors or cs != "1":
                factors.insert(0, "(%s)" % cs if " + " in cs else cs)
            parts.append("*".join(factors))
        return " + ".join(parts) or "0"


def eval_many(r, polys, point):
    """The values of the MPolys in polys, all in r variables, at one point
    of r CycNumbers or rationals, as a tuple of CycNumbers.  Each
    coordinate's powers are formed once for all of the polynomials, an
    integral coordinate's as ints; a term's coordinate times its monomial
    value is added to its z-degree's coordinate, or, where the point is
    cyclotomic, times zeta to that degree.  A point of the wrong length or
    a polynomial in other than r variables raises ValueError, a coordinate
    that is not a CycNumber, int or Fraction TypeError."""
    if len(point) != r:
        raise ValueError("evaluation point has wrong length")
    if any(p.r != r for p in polys):
        raise ValueError("mixed variable counts")
    d, shifts, _ = _layout(r)
    point = [v if isinstance(v, CycNumber) else _exact(v) for v in point]
    cyclotomic = any(isinstance(v, CycNumber) for v in point)
    zetas = [zeta_pow(r, z) for z in range(d)]
    pows = [list(accumulate([v] * max((k >> s & _FIELD for p in polys for k in p._c),
                                      default=0), mul, initial=1))
            for v, s in zip(point, shifts)]
    out = []
    for p in polys:
        acc = [0] * d
        for key, a in p._c.items():
            for row, s in zip(pows, shifts):
                e = key >> s & _FIELD
                if e:
                    a *= row[e]
            if cyclotomic:
                for j, b in enumerate((a * zetas[key & _FIELD]).coeffs):
                    acc[j] += b
            else:
                acc[key & _FIELD] += a
        out.append(CycNumber._trusted(r, tuple(acc)))
    return tuple(out)
