"""Character engine: symmetric groups, wreath products, coefficient sums."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

import colorpart
from colorpart import characters as C
from colorpart.characters import (
    abacus_moves,
    admissible_set,
    chi_sn,
    class_type,
    g_elements,
    k_coefficient,
    kronecker,
    lr3_coeff,
    lr_coeff,
    multipartitions,
    partitions,
    r_coefficient,
    reduced_kronecker,
    theorem_formula_check,
    wreath_char,
    wreath_char_table,
    wreath_dim,
    xt_formula,
    xt_multiplicity_oracle,
    z_order,
)
from colorpart.scalars import CycNumber
from colorpart.verify import FORMULA_EXAMPLE_R3


def test_partition_counts():
    assert [len(list(partitions(n))) for n in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]
    assert len(multipartitions(2, 3)) == 10
    assert len(multipartitions(3, 2)) == 9


def test_sn_character_values():
    # hook lengths / classical table entries
    assert chi_sn((3, 2), (1, 1, 1, 1, 1)) == 5
    assert chi_sn((2, 2, 1), (5,)) == 0
    # chi^{(4,1)}(sigma) = #fixed points - 1
    assert chi_sn((4, 1), (2, 2, 1)) == 0
    assert chi_sn((4, 1), (5,)) == -1
    assert chi_sn((4, 1), (2, 1, 1, 1)) == 2
    assert chi_sn((1, 1, 1), (3,)) == 1
    assert chi_sn((5,), (3, 2)) == 1


def test_sn_column_orthogonality():
    n = 5
    lams = list(partitions(n))
    for mu in lams:
        for nu in lams:
            s = sum(chi_sn(lam, mu) * chi_sn(lam, nu) for lam in lams)
            assert s == (z_order(mu) if mu == nu else 0)


def test_z_order():
    assert z_order((1, 1, 1)) == 6
    assert z_order((3, 1, 1)) == 6
    assert z_order((2, 2)) == 8


def test_lr_coefficients():
    assert lr_coeff((3, 2, 1), (2, 1), (2, 1)) == 2
    assert lr_coeff((2, 1), (1,), (1, 1)) == 1
    assert lr_coeff((2, 2), (2, 1), (1,)) == 1
    assert lr_coeff((4,), (2,), (1,)) == 0
    # Pieri: c^lam_{mu,(1)} = 1 iff lam/mu is one box, so the sum over mu
    # counts the removable corners of lam (= number of distinct row lengths)
    for lam in partitions(4):
        expected = len(set(lam))
        assert sum(lr_coeff(lam, mu, (1,)) for mu in partitions(3)) == expected


def test_lr3_is_iterated_lr():
    total = sum(lr3_coeff(lam, (1,), (1,), (1,)) for lam in partitions(3))
    # f^lam multiplicities: induction of trivial^3 to S3 decomposes with
    # standard-tableau multiplicities
    assert total == 4  # 1 + 2 + 1


def test_wreath_table_orthogonality():
    for r, n in [(2, 2), (3, 1), (2, 3)]:
        reps, sizes, table = wreath_char_table(r, n)
        order = sum(sizes.values())
        for a in table:
            for b in table:
                s = CycNumber.zero(r)
                for t in reps:
                    s = s + (
                        table[a][t]
                        * table[b][t].conjugate()
                        * CycNumber.from_rational(r, Fraction(sizes[t]))
                    )
                expected = Fraction(order) if a == b else Fraction(0)
                assert s == CycNumber.from_rational(r, expected)


def test_wreath_dimension_sum():
    for r, n in [(2, 2), (3, 2), (2, 3)]:
        order = len(g_elements(r, n))
        assert sum(wreath_dim(r, n, lam) ** 2 for lam in multipartitions(r, n)) == order


def test_class_type_is_conjugation_invariant():
    from colorpart.characters import gmul, ginv

    r, n = 2, 3
    elems = g_elements(r, n)
    for g in elems[:20]:
        t = class_type(r, g)
        for x in elems[::50]:
            assert class_type(r, gmul(r, gmul(r, x, g), ginv(r, x))) == t


def test_kronecker_values():
    assert kronecker((2, 1), (2, 1), (2, 1), 3) == 1
    assert kronecker((3,), (2, 1), (2, 1), 3) == 1
    assert kronecker((3,), (3,), (2, 1), 3) == 0
    assert kronecker((2, 2), (2, 2), (2, 2), 4) == 1


def test_reduced_kronecker_values():
    assert reduced_kronecker((1,), (1,), (1,)) == 1
    assert reduced_kronecker((1,), (1,), ()) == 1
    assert reduced_kronecker((2,), (2,), (2,)) == 2
    assert reduced_kronecker((1,), (), ()) == 0
    assert reduced_kronecker((), (), ()) == 1
    assert reduced_kronecker((1, 1), (1,), (1,)) == 1


def test_admissible_set():
    entries = admissible_set(2, 2, 2)
    assert [(e["t"], e["a"], e["b"], e["c"]) for e in entries] == [
        (0, 1, 1, 1),
        (2, 0, 0, 0),
    ]
    assert admissible_set(0, 1, 2) == []
    assert [e["t"] for e in admissible_set(1, 1, 2)] == [0]


def test_k_coefficient_trivial():
    triv = ((2,), (), ())
    assert k_coefficient(3, triv, triv, triv) == 1


def test_worked_formula_example_r3():
    lam_bar, mu_bar, nu_bar = FORMULA_EXAMPLE_R3
    # the two cross K-coefficients vanish, leaving a single contribution
    assert k_coefficient(3, mu_bar, nu_bar, lam_bar) == 0
    rep = theorem_formula_check(3, lam_bar, mu_bar, nu_bar)
    assert rep == {"lhs": 1, "rhs": 1, "ok": True}
    assert r_coefficient(3, lam_bar, mu_bar, nu_bar) == 1


def test_formula_small_sweep_r2():
    multis = [m for w in range(2) for m in multipartitions(2, w)]
    for lam_bar in multis:
        for mu_bar in multis:
            for nu_bar in multis:
                rep = theorem_formula_check(2, lam_bar, mu_bar, nu_bar)
                assert rep["ok"], (lam_bar, mu_bar, nu_bar, rep)


def test_xt_oracle_matches_formula_small():
    r = 2
    for l, m, n in [(1, 1, 0), (1, 1, 2), (2, 1, 1)]:
        for entry in admissible_set(l, m, n):
            t = entry["t"]
            for lam_bar in multipartitions(r, l):
                for mu_bar in multipartitions(r, m):
                    for nu_bar in multipartitions(r, n):
                        assert xt_multiplicity_oracle(
                            r, lam_bar, mu_bar, nu_bar, t
                        ) == xt_formula(r, lam_bar, mu_bar, nu_bar, t)


def test_wreath_char_at_identity_is_dimension():
    from colorpart.characters import g_identity

    for r, n in [(2, 2), (3, 1)]:
        for lam in multipartitions(r, n):
            v = wreath_char(r, n, lam, g_identity(n))
            assert v == CycNumber.from_rational(r, Fraction(wreath_dim(r, n, lam)))


def test_abacus_moves_add_and_remove_ribbons():
    # the 2-ribbons addable to the empty shape, with their heights
    assert list(abacus_moves((), 2)) == [((2,), 0), ((1, 1), 1)]
    # (2,1) is a 3-hook of height 1; no 2-ribbon is removable from it
    assert list(abacus_moves((2, 1), -3)) == [((), 1)]
    assert list(abacus_moves((2, 1), -2)) == []
    assert list(abacus_moves((2, 2), -2)) == [((1, 1), 1), ((2,), 0)]


def test_r_coefficient_rejects_r_below_one():
    with pytest.raises(ValueError):
        r_coefficient(0, (), (), ())


def test_theorem_formula_check_rejects_r_below_one():
    with pytest.raises(ValueError):
        theorem_formula_check(0, (), (), ())


# -- integrity checks: explicit raises, kept under python -O --------------------


@pytest.mark.parametrize("call, message", [
    (lambda: kronecker((1,), (1,), (2,), 1), "sizes"),
    (lambda: C._pad((3,), 4), "padding"),
    (lambda: k_coefficient(2, ((1,), ()), ((1,), ()), ((), ())), "weights"),
    (lambda: xt_formula(1, ((1,),), ((1,),), ((),), 1), "admissible"),
    (lambda: C.xt_elements(1, 1, 1, 0, 1), "admissible"),
], ids=["kronecker-sizes", "pad-below-first-part", "k-weights",
        "xt-formula-t", "xt-elements-t"])
def test_mismatched_sizes_and_inadmissible_t_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_kronecker_rejects_a_non_integer(monkeypatch):
    monkeypatch.setattr(C, "z_order", lambda rho: 3)
    with pytest.raises(ArithmeticError, match="not an integer"):
        kronecker((2,), (2,), (2,), 2)


def _minus_one(r, n, lam_bar, g):
    return CycNumber.from_rational(r, -1)


def test_k_coefficient_rejects_a_negative_value(monkeypatch):
    monkeypatch.setattr(C, "wreath_char", _minus_one)
    with pytest.raises(ArithmeticError, match="non-negative"):
        k_coefficient(1, ((),), ((),), ((),))


def test_xt_oracle_rejects_a_negative_value(monkeypatch):
    monkeypatch.setattr(C, "wreath_char", _minus_one)
    with pytest.raises(ArithmeticError, match="non-negative"):
        xt_multiplicity_oracle(1, ((),), ((),), ((),), 0)


OPTIMIZED_SCRIPT = """
import sys
from fractions import Fraction
from colorpart import characters as C
from colorpart.modules_rep import _solve
from colorpart.ribbon import insert
from colorpart.rs import rs_inverse

C.z_order = lambda rho: 3
checks = [lambda: _solve([[Fraction(0)]], [Fraction(0)]),
          lambda: C.kronecker((2,), (2,), (2,), 2),
          lambda: insert({(1,): frozenset({(1, 1)})}, 0, (1,), 1),
          lambda: rs_inverse(((((((2,),), ((1,),)),), ((),)),
                              (((((1,),), ((2,),)),), ((),))), 1, 2, 2)]
print(sys.flags.optimize)
for check in checks:
    try:
        check()
        print("passed")
    except (ArithmeticError, ValueError) as exc:
        print(type(exc).__name__)
"""


def test_integrity_checks_raise_under_python_O():
    # asserts vanish under -O; these checks must not
    src = os.path.dirname(os.path.dirname(colorpart.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_SCRIPT],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "ArithmeticError", "ArithmeticError",
                                   "ValueError", "ValueError"]
