"""Exact cyclotomic numbers and sparse multivariate polynomials."""

import os
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import colorpart
from colorpart.cli import main
from colorpart.scalars import (
    CycNumber,
    MPoly,
    _phi_coeffs,
    eval_many,
    zeta_pow,
)
from helpers import as_integer, eval_by_repeated_products
from nested_mpoly import NestedMPoly


def test_zeta_powers_cycle():
    for r in range(1, 7):
        z = zeta_pow(r, 1)
        acc = CycNumber.one(r)
        for j in range(r):
            assert acc == zeta_pow(r, j)
            acc = acc * z
        assert acc == CycNumber.one(r)


def test_zeta_sum_is_zero():
    # sum over a full orbit of r-th roots of unity vanishes for r > 1
    for r in range(2, 7):
        total = CycNumber.zero(r)
        for j in range(r):
            total = total + zeta_pow(r, j)
        assert total == CycNumber.zero(r)


def test_r4_zeta_squared_is_minus_one():
    z = zeta_pow(4, 1)
    assert z * z == CycNumber.from_rational(4, Fraction(-1))


def test_conjugate_and_inverse():
    for r in range(1, 13):
        one = CycNumber.one(r)
        for j in range(r):
            z = zeta_pow(r, j)
            assert z.conjugate() == zeta_pow(r, (-j) % r)
            assert z * z.inverse() == one
        # a non-unit: 2 + 3 zeta - zeta^2
        a = 2 + 3 * zeta_pow(r, 1) - zeta_pow(r, 2)
        assert a * a.inverse() == one
        assert a.conjugate() == 2 + 3 * zeta_pow(r, r - 1) - zeta_pow(r, r - 2)


def test_as_integer_rejects_nonrational():
    z = zeta_pow(3, 1)
    with pytest.raises(ValueError):
        z.as_rational()
    assert as_integer(z + z.conjugate()) == -1


def test_constructor_rejects_a_wrong_length():
    # arithmetic results skip this check; the public constructor keeps it
    with pytest.raises(ValueError, match="wrong length"):
        CycNumber(3, (1, 0, 0))
    with pytest.raises(ValueError, match="wrong length"):
        CycNumber(5, [1])


rationals = st.fractions(min_value=-30, max_value=30, max_denominator=7)


@st.composite
def cyc_numbers(draw, r=3):
    coeffs = draw(st.lists(rationals, min_size=1, max_size=r))
    num = CycNumber.zero(r)
    for j, c in enumerate(coeffs):
        num = num + zeta_pow(r, j) * CycNumber.from_rational(r, c)
    return num


@settings(max_examples=60, deadline=None)
@given(cyc_numbers(), cyc_numbers(), cyc_numbers())
def test_field_axioms_r3(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    if b:
        assert (a / b) * b == a


@st.composite
def mpolys(draw, r=2):
    """Rational coefficients at r = 2 (where Q(zeta_2) = Q), arbitrary
    cyclotomic ones otherwise."""
    coeffs = rationals if r == 2 else cyc_numbers(r)
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        e = tuple(draw(st.integers(0, 3)) for _ in range(r))
        terms[e] = draw(coeffs)
    return MPoly(r, terms)


@pytest.mark.parametrize("r", [1, 2, 3])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_subtraction_and_addition_term_by_term(r, data):
    a, b = data.draw(mpolys(r)), data.draw(mpolys(r))
    assert a - b == a + (-b)
    assert a + b == b + a
    assert (a + b) - b == a and a - a == MPoly.zero(r)


def points(r):
    """Evaluation points mixing ints, fractions and cyclotomic numbers."""
    coord = st.one_of(st.integers(-3, 3), rationals, cyc_numbers(r))
    return st.tuples(*[coord] * r)


def divexact_by_subtraction(p, q):
    """The original exact division, kept as the oracle: one monomial
    quotient term at a time, each rebuilding the remainder as rem - t*q."""
    if not q:
        raise ZeroDivisionError("division by zero polynomial")
    rem = p
    quot = MPoly.zero(p.r)
    lead_e = max(q.terms)
    lead_c = q.terms[lead_e]
    while rem:
        e = max(rem.terms)
        diff = tuple(a - b for a, b in zip(e, lead_e))
        if any(d < 0 for d in diff):
            raise ArithmeticError("inexact polynomial division")
        t = MPoly.monomial(p.r, diff, rem.terms[e] / lead_c)
        quot = quot + t
        rem = rem - t * q
    return quot


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ArithmeticError:
        return ArithmeticError


@settings(max_examples=60, deadline=None)
@given(mpolys(), mpolys())
def test_divexact_inverts_multiplication(a, b):
    if not b:
        return
    assert (a * b).divexact(b) == a


@settings(max_examples=40, deadline=None)
@given(mpolys(3), mpolys(3), mpolys(3))
def test_divexact_matches_the_subtraction_oracle_r3(a, b, c):
    # exact quotients by an irrational lead, and (with c added) inexact ones
    if not b:
        return
    assert (a * b).divexact(b) == a == divexact_by_subtraction(a * b, b)
    p = a * b + c
    assert _outcome(p.divexact, b) == _outcome(divexact_by_subtraction, p, b)


def test_inexact_division_raises():
    y0 = MPoly.variable(2, 0)
    with pytest.raises(ArithmeticError):
        (y0 * y0 + 1).divexact(y0 + 1)
    with pytest.raises(ZeroDivisionError):
        y0.divexact(MPoly.zero(2))


@settings(max_examples=60, deadline=None)
@given(mpolys(), mpolys(), st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
def test_evaluation_is_a_homomorphism(a, b, pt):
    point = tuple(Fraction(v) for v in pt)
    assert (a * b).eval(point) == a.eval(point) * b.eval(point)
    assert (a + b).eval(point) == a.eval(point) + b.eval(point)
    assert a.eval(point) == eval_by_repeated_products(a, point)


@settings(max_examples=60, deadline=None)
@given(mpolys(3), mpolys(3), points(3))
def test_evaluation_matches_the_repeated_product_oracle_r3(a, b, point):
    assert a.eval(point) == eval_by_repeated_products(a, point)
    assert (a * b).eval(point) == a.eval(point) * b.eval(point)


def test_evaluation_rejects_a_wrong_length_point():
    with pytest.raises(ValueError):
        MPoly.variable(3, 0).eval((1, 2))


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_eval_many_matches_the_repeated_product_oracle(r, data):
    # with the zero polynomial among them, at int, Fraction and CycNumber
    # points; each value is also what eval gives alone, and the same
    # polynomials evaluated at a second point give that point's values
    polys = data.draw(st.lists(mpolys(r), max_size=4)) + [MPoly.zero(r)]
    point, other = data.draw(points(r)), data.draw(points(r))
    values = eval_many(r, polys, point)
    assert values == tuple(eval_by_repeated_products(p, point) for p in polys)
    assert values == tuple(p.eval(point) for p in polys)
    assert values[-1] == CycNumber.zero(r)
    assert eval_many(r, (), point) == ()
    assert eval_many(r, polys, other) == tuple(
        eval_by_repeated_products(p, other) for p in polys)


def test_eval_many_reads_each_term_and_each_largest_exponent():
    # every z-degree of a coordinate, a variable that is absent (y_1 in
    # p) or whose powers reach past another polynomial's (y_1 in q), and
    # the zero polynomial
    p = MPoly(3, {(2, 0, 1): CycNumber(3, (5, Fraction(1, 2))), (0, 0, 0): 7})
    q = MPoly(3, {(0, 3, 0): -1})
    values = eval_many(3, [p, q, MPoly.zero(3)], (2, 3, Fraction(1, 4)))
    assert values == (CycNumber(3, (12, Fraction(1, 2))), CycNumber(3, (-27, 0)),
                      CycNumber.zero(3))
    z = zeta_pow(3, 1)
    assert eval_many(3, [p, q], (z, 2, 1)) == (
        CycNumber(3, (5, Fraction(1, 2))) * z * z + 7, CycNumber.from_rational(3, -8))


def test_eval_many_shares_the_powers_of_one_point():
    y0, y1 = MPoly.variable(2, 0), MPoly.variable(2, 1)
    polys = [y0 * y0 * y1, y1 * y1 * y1 + 1, MPoly.zero(2), MPoly.constant(2, Fraction(1, 3))]
    assert eval_many(2, polys, (3, Fraction(1, 2))) == (
        Fraction(9, 2), Fraction(9, 8), 0, Fraction(1, 3))


def test_eval_many_rejects_a_wrong_length_point_and_mixed_orders():
    with pytest.raises(ValueError, match="wrong length"):
        eval_many(3, [MPoly.variable(3, 0)], (1, 2))
    with pytest.raises(ValueError, match="wrong length"):
        eval_many(2, (), (1,))
    with pytest.raises(ValueError, match="mixed variable counts"):
        eval_many(2, [MPoly.variable(2, 0), MPoly.variable(3, 0)], (1, 2))
    with pytest.raises(TypeError, match="not an int or a Fraction"):
        eval_many(1, [MPoly.variable(1, 0)], (0.5,))


@settings(max_examples=60, deadline=None)
@given(cyc_numbers(), rationals, st.integers(-50, 50))
def test_rational_scaling_matches_the_field_product(a, q, n):
    assert a * q == a * CycNumber.from_rational(3, q) == q * a
    assert a * n == a * CycNumber.from_rational(3, n) == n * a


# -- a Fraction-only oracle for the int/Fraction coordinates --------------------


def _fractions(coords):
    return [Fraction(c) for c in coords]


def frac_reduce(r, poly):
    """poly mod Phi_r by long division, every coefficient a Fraction."""
    phi = _fractions(_phi_coeffs(r))
    d = len(phi) - 1
    p = _fractions(poly) + [Fraction(0)] * d
    for top in range(len(p) - 1, d - 1, -1):
        c = p[top]
        for j in range(d + 1):
            p[top - d + j] -= c * phi[j]
    return tuple(p[:d])


def frac_add(a, b, sign=1):
    return tuple(x + sign * y for x, y in zip(_fractions(a), _fractions(b)))


def frac_mul(r, a, b):
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(_fractions(a)):
        for j, y in enumerate(_fractions(b)):
            prod[i + j] += x * y
    return frac_reduce(r, prod)


def frac_inverse(r, a):
    """Solve a * x = 1 by Gauss-Jordan elimination on the matrix of
    multiplication by a, whose column j is a * z^j."""
    d = len(a)
    cols = [frac_mul(r, a, [Fraction(int(i == j)) for i in range(d)])
            for j in range(d)]
    aug = [[cols[j][i] for j in range(d)] + [Fraction(int(i == 0))]
           for i in range(d)]
    for c in range(d):
        p = next(i for i in range(c, d) if aug[i][c])
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for i in range(d):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return tuple(row[d] for row in aug)


def frac_eval(r, poly, point):
    """The value of an MPoly at a rational point, term by term."""
    d = len(_phi_coeffs(r)) - 1
    total = (Fraction(0),) * d
    for e, c in poly.terms.items():
        m = Fraction(1)
        for v, a in zip(point, e):
            m *= Fraction(v) ** a
        total = frac_add(total, [x * m for x in _fractions(c.coeffs)])
    return total


def assert_normal(x):
    """Every coordinate is an int or a non-integral Fraction."""
    for c in x.coeffs:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), x.coeffs


ORACLE_R = (1, 2, 3, 5, 8)
# ints, integral Fractions and non-integral Fractions
coordinates = st.one_of(st.integers(-20, 20),
                        st.integers(-20, 20).map(Fraction),
                        rationals)


@st.composite
def mixed_cyc(draw, r):
    d = len(_phi_coeffs(r)) - 1
    return CycNumber(r, draw(st.lists(coordinates, min_size=d, max_size=d)))


@st.composite
def oracle_case(draw):
    r = draw(st.sampled_from(ORACLE_R))
    a, b = draw(mixed_cyc(r)), draw(mixed_cyc(r))
    q = draw(coordinates)
    n_terms = draw(st.integers(0, 3))
    terms = {tuple(draw(st.integers(0, 2)) for _ in range(r)): draw(mixed_cyc(r))
             for _ in range(n_terms)}
    point = tuple(draw(coordinates) for _ in range(r))
    return r, a, b, q, MPoly(r, terms), point


@settings(max_examples=150, deadline=None)
@given(oracle_case())
def test_coordinates_match_the_fraction_oracle(case):
    r, a, b, q, poly, point = case
    results = [
        (a + b, frac_add(a.coeffs, b.coeffs)),
        (a - b, frac_add(a.coeffs, b.coeffs, -1)),
        (a * b, frac_mul(r, a.coeffs, b.coeffs)),
        (a * q, tuple(x * Fraction(q) for x in _fractions(a.coeffs))),
        (q * a, tuple(x * Fraction(q) for x in _fractions(a.coeffs))),
        (poly.eval(point), frac_eval(r, poly, point)),
    ]
    if b:
        inv = frac_inverse(r, b.coeffs)
        results += [(b.inverse(), inv), (a / b, frac_mul(r, a.coeffs, inv))]
    for got, expected in results + [(a, _fractions(a.coeffs))]:
        assert got.coeffs == tuple(expected)
        assert_normal(got)


@st.composite
def flat_and_nested(draw, r):
    """One polynomial as a flat MPoly and as its nested oracle copy."""
    n_terms = draw(st.integers(0, 4))
    terms = {tuple(draw(st.integers(0, 2)) for _ in range(r)): draw(mixed_cyc(r))
             for _ in range(n_terms)}
    return MPoly(r, terms), NestedMPoly(r, terms)


@pytest.mark.parametrize("r", range(1, 7))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_flat_arithmetic_matches_the_nested_oracle(r, data):
    # products reduce z-degrees >= euler_phi(r); a random c makes the
    # second division inexact, and both sides must raise then
    (a, A), (b, B), (c, C) = (data.draw(flat_and_nested(r)) for _ in range(3))
    for got, expected in [(a * b, A * B), (a - b, A - B), (a + b, A + B), (-a, -A)]:
        assert dict(got.terms) == expected.terms
    if b:
        assert (a * b).divexact(b) == a
        assert dict(a.terms) == (A * B).divexact(B).terms
        p, P = a * b + c, A * B + C
        assert (_outcome(lambda: dict(p.divexact(b).terms))
                == _outcome(lambda: P.divexact(B).terms))


MALFORMED_EXPONENTS = [
    "MPoly(2, {(-1, 0): 1}).eval((2, 3))",
    "MPoly(2, {(1, 0): 1}) * MPoly(2, {(0, 1, 5): 1})",
    "MPoly(2, {(1,): 1})",
    "MPoly(1, {(2**31,): 1})",
]


@pytest.mark.parametrize("probe", MALFORMED_EXPONENTS)
def test_constructor_rejects_a_malformed_exponent_vector(probe):
    # a negative exponent was evaluated as if it were 0, and a vector of
    # length r + 1 was truncated by zip in a product
    with pytest.raises(ValueError, match="exponent vector"):
        eval(probe)


@pytest.mark.parametrize("coeff", [object(), 0.5, "1/2"])
def test_constructor_rejects_a_coefficient_that_is_not_exact(coeff):
    with pytest.raises(TypeError, match="coefficient"):
        MPoly(2, {(1, 0): coeff})


@pytest.mark.parametrize("entry", [
    lambda v: CycNumber(1, (v,)),
    lambda v: CycNumber(3, (1, v)),
    lambda v: CycNumber.from_rational(2, v),
    lambda v: MPoly.one(2).eval((v, 1)),
    lambda v: MPoly.one(2).eval((1, v)),
], ids=["cyc", "cyc-second-coordinate", "from-rational", "eval", "eval-second"])
@pytest.mark.parametrize("value", [0.5, 0.1, "1/2", None])
def test_a_float_or_string_is_refused_at_every_entry(entry, value):
    # Fraction() would take 0.1 as 3602879701896397/36028797018963968
    # and parse "1/2"; the exact core takes only ints and Fractions
    with pytest.raises(TypeError, match="not an int or a Fraction"):
        entry(value)


def test_malformed_exponent_vectors_are_rejected_under_O():
    script = "\n".join(["from colorpart.scalars import MPoly",
                        "for probe in %r:" % (MALFORMED_EXPONENTS,),
                        "    try:",
                        "        eval(probe)",
                        "    except ValueError:",
                        "        continue",
                        "    raise SystemExit('accepted: ' + probe)"])
    src = os.path.dirname(os.path.dirname(colorpart.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_a_product_exponent_past_the_key_field_raises():
    big = MPoly.monomial(2, (0, 2**30))
    assert (big * MPoly.variable(2, 1)).degree_in(1) == 2**30 + 1
    with pytest.raises(OverflowError):
        big * big


def test_phi_and_zeta_powers_are_integer():
    for r in range(1, 13):
        assert all(type(c) is int for c in _phi_coeffs(r))
        for j in range(r):
            assert all(type(c) is int for c in zeta_pow(r, j).coeffs)


def test_leading_coeff_in():
    y0, y1 = MPoly.variable(2, 0), MPoly.variable(2, 1)
    p = y0 * y0 * y0 + y0 * y1 - y1 * y1
    d, coeff = p.leading_coeff_in(0)
    assert d == 3 and coeff == MPoly.one(2)
    d1, coeff1 = p.leading_coeff_in(1)
    assert d1 == 2 and coeff1 == MPoly.constant(2, -1)


@pytest.mark.parametrize("r, coeffs", [
    (1, (-1, 1)),
    (2, (1, 1)),
    (6, (1, -1, 1)),
    (8, (1, 0, 0, 0, 1)),
    (9, (1, 0, 0, 1, 0, 0, 1)),
    (10, (1, -1, 1, -1, 1)),
    (12, (1, 0, -1, 0, 1)),  # z^4 - z^2 + 1
])
def test_cyclotomic_polynomials_frozen(r, coeffs):
    assert _phi_coeffs(r) == tuple(Fraction(c) for c in coeffs)


def _polymul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_cyclotomic_polynomials_multiply_to_z_r_minus_1():
    for r in range(1, 61):
        prod = [1]
        for d in range(1, r + 1):
            if r % d == 0:
                prod = _polymul(prod, _phi_coeffs(d))
        assert prod == [Fraction(-1)] + [Fraction(0)] * (r - 1) + [Fraction(1)]
        totient = sum(1 for j in range(1, r + 1) if gcd(j, r) == 1)
        assert len(_phi_coeffs(r)) - 1 == totient


def test_cli_runs_without_sympy():
    # a None entry in sys.modules makes every import of sympy fail
    script = "\n".join([
        "import sys",
        "sys.modules['sympy'] = None",
        "from click.testing import CliRunner",
        "from colorpart.cli import main",
        "for args in " + repr(SYMPY_FREE_CALLS) + ":",
        "    res = CliRunner().invoke(main, args)",
        "    assert res.exit_code == 0, res.output",
        "    sys.stdout.write(res.output)",
    ])
    src = os.path.dirname(os.path.dirname(colorpart.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    expected = "".join(CliRunner().invoke(main, args).output
                       for args in SYMPY_FREE_CALLS)
    assert proc.stdout == expected


SYMPY_FREE_CALLS = [
    ["count", "--k", "6", "--r", "2"],
    ["gram", "--r", "5", "--k", "1", "--shape", "[[],[],[],[],[]]"],
]
