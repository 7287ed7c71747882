"""The nested polynomial arithmetic that MPoly's flat map replaced, kept as
the oracle: a dict {y-exponents: CycNumber}, so every coefficient product
is a CycNumber product and every monomial product a tuple sum, and its
fraction-free Bareiss determinant."""

from fractions import Fraction

from colorpart.scalars import CycNumber


class NestedMPoly:
    """Sparse polynomial in y_0..y_{r-1} with CycNumber coefficients."""

    def __init__(self, r, terms):
        self.r = r
        self.terms = {}
        for exps, c in terms.items():
            if not isinstance(c, CycNumber):
                c = CycNumber.from_rational(r, c)
            if c:
                self.terms[tuple(exps)] = c

    @staticmethod
    def of(p):
        """The nested copy of a flat MPoly, read through its terms view."""
        return NestedMPoly(p.r, dict(p.terms))

    @staticmethod
    def constant(r, c):
        return NestedMPoly(r, {(0,) * r: c})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return self.r == other.r and self.terms == other.terms

    def _coerce(self, other):
        if isinstance(other, NestedMPoly):
            return other
        if isinstance(other, (int, Fraction, CycNumber)):
            return NestedMPoly.constant(self.r, other)
        raise TypeError(other)

    def __add__(self, other):
        terms = dict(self.terms)
        for e, c in self._coerce(other).terms.items():
            terms[e] = terms[e] + c if e in terms else c
        return NestedMPoly(self.r, terms)

    def __neg__(self):
        return NestedMPoly(self.r, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __mul__(self, other):
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in self._coerce(other).terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                terms[e] = terms[e] + c if e in terms else c
        return NestedMPoly(self.r, terms)

    def divexact(self, other):
        """Exact division by repeatedly removing the lex-max term of the
        remainder; raises ArithmeticError if the division is not exact."""
        o = self._coerce(other)
        if not o:
            raise ZeroDivisionError("division by zero polynomial")
        lead_e = max(o.terms)
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
        return NestedMPoly(self.r, quot)


def nested_det_bareiss(M, r):
    """Fraction-free determinant of a square matrix of flat MPolys, computed
    over their nested copies; each step divides exactly by the previous
    pivot unless it is 1."""
    n = len(M)
    one = NestedMPoly.constant(r, 1)
    if n == 0:
        return one
    M = [[NestedMPoly.of(e) for e in row] for row in M]
    prev = one
    sign = 1
    for t in range(n - 1):
        if not M[t][t]:
            p = next((s for s in range(t + 1, n) if M[s][t]), None)
            if p is None:
                return NestedMPoly(r, {})
            M[t], M[p] = M[p], M[t]
            sign = -sign
        unit = prev == one
        for s in range(t + 1, n):
            for j in range(t + 1, n):
                v = M[t][t] * M[s][j] - M[s][t] * M[t][j]
                M[s][j] = v if unit else v.divexact(prev)
            M[s][t] = NestedMPoly(r, {})
        prev = M[t][t]
    det = M[n - 1][n - 1]
    return -det if sign < 0 else det
