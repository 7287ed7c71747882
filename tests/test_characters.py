"""Character engine: symmetric groups, wreath products, coefficient sums."""

import ast
import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import factorial
from pathlib import Path

import pytest

import colorpart
from colorpart import characters as C
from colorpart import verify as V
from colorpart.characters import (
    abacus_moves,
    admissible_set,
    chi_sn,
    g_elements,
    ginv,
    gmul,
    k_coefficient,
    kronecker,
    lr3_coeff,
    lr_coeff,
    multipartitions,
    partitions,
    r_coefficient,
    reduced_kronecker,
    theorem_formula_check,
    wreath_char_table,
    xt_formula,
    xt_multiplicity_oracle,
    z_order,
)
from colorpart.scalars import CycNumber, zeta_pow
from colorpart.verify import FORMULA_EXAMPLE_R3
from helpers import as_integer, class_sum_by_cyc_numbers, class_type, g_identity


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


def wreath_char(r, n, lam_bar, g):
    return wreath_char_table(r, n)[2][lam_bar][class_type(r, g)]


def test_wreath_table_orthogonality():
    for r, n in [(2, 2), (3, 1), (2, 3), (2, 4), (3, 3)]:
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


def wreath_dim(r, n, lam_bar):
    return as_integer(wreath_char(r, n, lam_bar, g_identity(n)))


def test_wreath_dimension_sum():
    for r, n in [(2, 2), (3, 2), (2, 3), (2, 4), (3, 3)]:
        order = len(g_elements(r, n))
        assert sum(wreath_dim(r, n, lam) ** 2 for lam in multipartitions(r, n)) == order


def test_class_type_is_conjugation_invariant():
    r, n = 2, 3
    elems = g_elements(r, n)
    for g in elems[:20]:
        t = class_type(r, g)
        for x in elems[::50]:
            assert class_type(r, gmul(r, gmul(r, x, g), ginv(r, x))) == t


# -- brute-force oracles: the character table and K element by element ----------


def _restricted_cycle_type(perm, block):
    """Cycle type of a block-preserving permutation restricted to block."""
    idx = {v: i for i, v in enumerate(block)}
    seen = [False] * len(block)
    cycles = []
    for s in range(len(block)):
        length = 0
        while not seen[s]:
            seen[s] = True
            s = idx[perm[block[s] - 1]]
            length += 1
        if length:
            cycles.append(length)
    return tuple(sorted(cycles, reverse=True))


@lru_cache(maxsize=None)
def wreath_char_table_by_conjugation(r, n):
    """The character table by induction summed over all of G(r,n): chi(g) =
    (1/|H|) sum over x in G of theta(x^-1 g x), theta zero off the block
    subgroup H, whose order is the closed form prod_i r^k_i k_i!."""
    elements = g_elements(r, n)
    reps, sizes = {}, {}
    for g in elements:
        t = class_type(r, g)
        reps.setdefault(t, g)
        sizes[t] = sizes.get(t, 0) + 1
    table = {}
    for lam_bar in multipartitions(r, n):
        blocks, start, h_order = [], 1, 1
        for lam in lam_bar:
            k = sum(lam)
            blocks.append(tuple(range(start, start + k)))
            start += k
            h_order *= r**k * factorial(k)

        def theta(g):
            f, perm = g
            if not all(perm[v - 1] in blk for blk in blocks for v in blk):
                return CycNumber.zero(r)
            val = CycNumber.one(r)
            for i, blk in enumerate(blocks):
                val = val * zeta_pow(r, i * sum(f[v - 1] for v in blk))
                val = val * chi_sn(lam_bar[i], _restricted_cycle_type(perm, blk))
            return val

        table[lam_bar] = {
            t: sum((theta(gmul(r, gmul(r, ginv(r, x), g), x)) for x in elements),
                   CycNumber.zero(r)) * Fraction(1, h_order)
            for t, g in reps.items()}
    return reps, sizes, table


def k_coefficient_by_elements(r, delta, delta1, delta2):
    """K summed over every element (w, u, xi) of H(r,t), with characters
    read off the conjugation-sweep table."""
    t = C.weight(delta)
    table = wreath_char_table_by_conjugation(r, t)[2]

    def chi(label, w, xi):
        return table[label][class_type(r, (w, xi))]

    total = CycNumber.zero(r)
    for xi in permutations(range(1, t + 1)):
        for w in product(range(r), repeat=t):
            for u in product(range(r), repeat=t):
                wu = tuple((a + b) % r for a, b in zip(w, u))
                total = total + (chi(delta, w, xi) * chi(delta1, u, xi)
                                 * chi(delta2, wu, xi).conjugate())
    return (total * Fraction(1, r ** (2 * t) * factorial(t))).as_rational()


@pytest.mark.parametrize("r, n", [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2),
                                  (2, 3), (3, 1), (3, 2), (4, 1), (4, 2), (5, 2)])
def test_wreath_char_table_equals_the_conjugation_sweep(r, n):
    reps, sizes, table = wreath_char_table(r, n)
    _, sweep_sizes, sweep_table = wreath_char_table_by_conjugation(r, n)
    assert sizes == sweep_sizes and table == sweep_table
    assert all(class_type(r, g) == T for T, g in reps.items())


@pytest.mark.parametrize("r, n", [(2, 7), (3, 5), (4, 4)])
def test_wreath_classes_are_the_multipartitions_with_laid_out_reps(r, n):
    reps, sizes, _ = wreath_char_table(r, n)
    assert set(sizes) == set(reps) == set(multipartitions(r, n))
    assert sum(sizes.values()) == r**n * factorial(n)
    for T, (f, tau) in reps.items():
        assert class_type(r, (f, tau)) == T
        # cycles on consecutive points, longest first, each color on the
        # cycle's first point
        start, lengths = 0, []
        while start < n:
            d = next(d for d in range(1, n - start + 1) if tau[start + d - 1] == start + 1)
            assert tau[start:start + d] == tuple(range(start + 2, start + d + 1)) + (start + 1,)
            assert not any(f[start + 1:start + d])
            lengths.append(d)
            start += d
        assert lengths == sorted(lengths, reverse=True)


@pytest.mark.parametrize("r, t", [(1, 0), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1),
                                  (2, 2), (3, 0), (3, 1)])
def test_k_coefficient_equals_the_element_sum(r, t):
    labels = multipartitions(r, t)
    for delta, delta1, delta2 in product(labels, repeat=3):
        assert k_coefficient(r, delta, delta1, delta2) \
            == k_coefficient_by_elements(r, delta, delta1, delta2)


@pytest.mark.parametrize("r, ts", [(1, range(5)), (2, range(4)), (3, range(3)), (4, [2])])
def test_k_coefficient_equals_the_cyc_number_class_sum(monkeypatch, r, ts):
    # the reduction by Phi_r runs where phi(r) >= 2, so at r = 3 and 4
    triples = [x for t in ts for x in product(multipartitions(r, t), repeat=3)]
    values = [k_coefficient(r, *x) for x in triples]
    monkeypatch.setattr(C, "_class_sum", class_sum_by_cyc_numbers)
    assert [k_coefficient(r, *x) for x in triples] == values


@pytest.mark.parametrize("r", [2, 3])
def test_xt_oracle_equals_the_cyc_number_class_sum(monkeypatch, r):
    cases = [(labels, d["t"]) for sizes in product(range(3), repeat=3)
             for d in admissible_set(*sizes)
             for labels in product(*(multipartitions(r, n) for n in sizes))]
    values = [xt_multiplicity_oracle(r, *labels, t) for labels, t in cases]
    monkeypatch.setattr(C, "_class_sum", class_sum_by_cyc_numbers)
    assert [xt_multiplicity_oracle(r, *labels, t) for labels, t in cases] == values


def test_kronecker_values():
    assert kronecker((2, 1), (2, 1), (2, 1)) == 1
    assert kronecker((3,), (2, 1), (2, 1)) == 1
    assert kronecker((3,), (3,), (2, 1)) == 0
    assert kronecker((2, 2), (2, 2), (2, 2)) == 1


def test_reduced_kronecker_values():
    assert reduced_kronecker((1,), (1,), (1,)) == 1
    assert reduced_kronecker((1,), (1,), ()) == 1
    assert reduced_kronecker((2,), (2,), (2,)) == 2
    assert reduced_kronecker((1,), (), ()) == 0
    assert reduced_kronecker((), (), ()) == 1
    assert reduced_kronecker((1, 1), (1,), (1,)) == 1


# -- the stabilization window, kept as the oracle of the stated bound ----------


def _first_size(lam, mu, nu):
    """n0 = |lam| + |mu| + |nu|, raised to every padding floor |x| + x_1."""
    return max(sum(lam) + sum(mu) + sum(nu),
               *(sum(x) + (x[0] if x else 0) for x in (lam, mu, nu)))


@lru_cache(maxsize=None)
def _padded_kronecker(lam, mu, nu, n):
    return kronecker(C._pad(lam, n), C._pad(mu, n), C._pad(nu, n))


def reduced_kronecker_by_window(lam, mu, nu):
    """The first two equal consecutive values of g(lam[n], mu[n], nu[n])
    from n = n0 on, within five steps."""
    n0 = _first_size(lam, mu, nu)
    values = [_padded_kronecker(lam, mu, nu, n) for n in range(n0, n0 + 5)]
    for prev, val in zip(values, values[1:]):
        if val == prev:
            return val
    raise AssertionError("no plateau within the window for %r %r %r" % (lam, mu, nu))


def _counted_kronecker(monkeypatch):
    """Patch C.kronecker to record the size n of every call."""
    sizes = []

    def counted(lam, mu, nu):
        sizes.append(sum(lam))
        return kronecker(lam, mu, nu)

    monkeypatch.setattr(C, "kronecker", counted)
    return sizes


def _triples(w):
    parts = [p for i in range(w + 1) for p in partitions(i)]
    return list(product(parts, repeat=3))


def test_reduced_kronecker_makes_one_kronecker_call(monkeypatch):
    sizes = _counted_kronecker(monkeypatch)
    for count, triple in enumerate(_triples(2), start=1):
        reduced_kronecker(*triple)
        assert len(sizes) == count, triple


def test_reduced_kronecker_equals_the_window_and_stays_constant(monkeypatch):
    triples = _triples(4)
    assert len(triples) == 1728
    sizes = _counted_kronecker(monkeypatch)
    below = 0
    for lam, mu, nu in triples:
        value = reduced_kronecker(lam, mu, nu)
        assert value == reduced_kronecker_by_window(lam, mu, nu), (lam, mu, nu)
        # the bound as stated: the least over the three roles of
        # |mu| + |nu| + lam_1, and at least each padding floor |x| + x_1
        roles = [(lam, mu, nu), (mu, lam, nu), (nu, lam, mu)]
        bound = max(min(sum(b) + sum(c) + (a[0] if a else 0) for a, b, c in roles),
                    *(sum(x) + (x[0] if x else 0) for x in (lam, mu, nu)))
        n0 = _first_size(lam, mu, nu)
        assert sizes[-1] == bound <= n0
        below += bound < n0
        for n in range(bound, n0 + 5):
            assert _padded_kronecker(lam, mu, nu, n) == value, (lam, mu, nu, n)
    # the bound is below the window's start on most triples
    assert below > len(triples) // 2


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


@pytest.mark.parametrize("r, w", [(2, 2), (3, 1)])
def test_formula_sweep_table_matches_theorem_formula_check(monkeypatch, r, w):
    # r_coefficient is made wrong where the first label has weight 1, so
    # the sweep reports failures; they must be the triples and reports
    # of theorem_formula_check, in its order
    right = C.r_coefficient

    def wrong(r, lam_bar, mu_bar, nu_bar):
        return right(r, lam_bar, mu_bar, nu_bar) + (C.weight(lam_bar) == 1)

    monkeypatch.setattr(C, "r_coefficient", wrong)
    monkeypatch.setattr(V, "r_coefficient", wrong)
    calls = []
    monkeypatch.setattr(V, "reduced_kronecker",
                        lambda *t: calls.append(t) or C.reduced_kronecker(*t))
    multis = [m for i in range(w + 1) for m in multipartitions(r, i)]
    expect = []
    for triple in product(multis, repeat=3):
        rep = theorem_formula_check(r, *triple)
        if not rep["ok"]:
            expect.append(triple + (rep,))
    checked, failures = V._formula_sweep(r, w)
    assert checked == len(multis) ** 3
    assert failures == expect and failures
    # one call per distinct triple of partitions of size <= w
    parts = {lam for m in multis for lam in m}
    assert sorted(calls) == sorted(product(parts, repeat=3))


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


# -- brute-force X^t oracle: the permutation character summed element by element


def xt_elements_by_sweep(r, l, m, n, t):
    """X^t as frozensets of (frozenset of tagged vertices, color) parts: a
    parts {j',k''}, b parts {i,k''}, c parts {i,j'} and t parts {i,j',k''}."""
    data = [d for d in admissible_set(l, m, n) if d["t"] == t]
    if not data:
        raise ValueError("t = %d is not admissible" % t)
    a, b, c = data[0]["a"], data[0]["b"], data[0]["c"]
    L, M, N = range(1, l + 1), range(1, m + 1), range(1, n + 1)
    out = []
    for bl in combinations(L, b):
        restl = [x for x in L if x not in bl]
        for tl in combinations(restl, t):
            cl = tuple(x for x in restl if x not in tl)
            for cm in combinations(M, c):
                restm = [x for x in M if x not in cm]
                for tm in combinations(restm, t):
                    am = tuple(x for x in restm if x not in tm)
                    for an in combinations(N, a):
                        restn = [x for x in N if x not in an]
                        for tn in combinations(restn, t):
                            bn = tuple(x for x in restn if x not in tn)
                            for pa, pb, pcm, ptm, ptn in product(
                                    permutations(an), permutations(bn),
                                    permutations(cm), permutations(tm),
                                    permutations(tn)):
                                parts = [(("m", am[i]), ("n", pa[i])) for i in range(a)]
                                parts += [(("l", bl[i]), ("n", pb[i])) for i in range(b)]
                                parts += [(("l", cl[i]), ("m", pcm[i])) for i in range(c)]
                                parts += [(("l", tl[i]), ("m", ptm[i]), ("n", ptn[i]))
                                          for i in range(t)]
                                for colors in product(range(r), repeat=len(parts)):
                                    out.append(frozenset(
                                        (frozenset(p), s) for p, s in zip(parts, colors)))
    return out


def xt_act_by_sweep(r, g1, g2, g3, x):
    """Action of (g1, g2, g3) in G(r,l) x (G(r,m) x G(r,n))^op on x."""
    (h1, s1), (h2, s2), (h3, s3) = g1, g2, g3
    s2i, s3i = C.pinv(s2), C.pinv(s3)
    new = []
    for part, color in x:
        d = dict(part)
        np = []
        if "l" in d:
            i2 = s1[d["l"] - 1]
            np.append(("l", i2))
            color = (color + h1[i2 - 1]) % r
        if "m" in d:
            np.append(("m", s2i[d["m"] - 1]))
            color = (color + h2[d["m"] - 1]) % r
        if "n" in d:
            np.append(("n", s3i[d["n"] - 1]))
            color = (color + h3[d["n"] - 1]) % r
        new.append((frozenset(np), color))
    return frozenset(new)


def xt_multiplicity_by_sweep(r, lam_bar, mu_bar, nu_bar, t):
    """The permutation character's inner product, summed over every element
    of G(r,l) x G(r,m) x G(r,n) with its fixed points counted one by one."""
    l, m, n = C.weight(lam_bar), C.weight(mu_bar), C.weight(nu_bar)
    X = xt_elements_by_sweep(r, l, m, n, t)
    total = CycNumber.zero(r)
    for g1, g2, g3 in product(g_elements(r, l), g_elements(r, m), g_elements(r, n)):
        fixed = sum(1 for x in X if xt_act_by_sweep(r, g1, g2, g3, x) == x)
        if fixed:
            total = total + (wreath_char(r, l, lam_bar, g1) * wreath_char(r, m, mu_bar, g2)
                             * wreath_char(r, n, nu_bar, g3) * fixed)
    order = len(g_elements(r, l)) * len(g_elements(r, m)) * len(g_elements(r, n))
    return (total * Fraction(1, order)).as_rational()


# -- X^t element by element: the oracle for the cycle-type fixed-point count


def xt_elements(r, l, m, n, t):
    """All colored tripartite matchings with a parts {j',k''}, b parts
    {i,k''}, c parts {i,j'} and t parts {i,j',k''}.

    An element is a frozenset of parts (i, j, k, color), 0 marking an absent
    vertex.  Each l-vertex picks its kind; the c and t l-vertices pick
    distinct m partners, then the b and t l-vertices and the m-vertices
    left over pick distinct n partners.
    """
    c = C._xt_kinds(l, m, n, t)[2]
    L, M = range(1, l + 1), range(1, m + 1)
    out = []
    for kinds in product("bct", repeat=l):
        if kinds.count("c") != c or kinds.count("t") != t:
            continue
        for js in permutations(M, c + t):
            jof = dict(zip((i for i in L if kinds[i - 1] != "b"), js))
            done = [(i, jof[i], 0) for i in L if kinds[i - 1] == "c"]
            pending = [(i, jof.get(i, 0)) for i in L if kinds[i - 1] != "c"]
            pending += [(0, j) for j in M if j not in js]
            for ks in permutations(range(1, n + 1)):
                parts = done + [(i, j, k) for (i, j), k in zip(pending, ks)]
                for colors in product(range(r), repeat=len(parts)):
                    out.append(frozenset(
                        p + (s,) for p, s in zip(parts, colors)))
    return out


def _xt_index_map(g, left):
    """(image, added color) per vertex of g's side, index 0 standing for an
    absent vertex: G(r,l) acts from the left, G(r,m) and G(r,n) (the dual
    slots) from the right."""
    f, tau = g
    if left:
        return (0,) + tau, (0,) + tuple(f[v - 1] for v in tau)
    return (0,) + C.pinv(tau), (0,) + f


def xt_fixed_points_by_elements(r, l, m, n, t):
    """xt_fixed_points with every element of X^t tested against every
    triple of class representatives: x is fixed iff every part maps into
    x, so each test stops at the first part that leaves x."""
    X = xt_elements(r, l, m, n, t)
    tables = [wreath_char_table(r, size) for size in (l, m, n)]
    sides = [[(T, sizes[T], _xt_index_map(g, left)) for T, g in reps.items()]
             for (reps, sizes, _), left in zip(tables, (True, False, False))]
    table = {}
    for (T1, k1, (i1, c1)), (T2, k2, (i2, c2)), (T3, k3, (i3, c3)) in product(*sides):
        fixed = 0
        for x in X:
            for i, j, k, s in x:
                if (i1[i], i2[j], i3[k], (s + c1[i] + c2[j] + c3[k]) % r) not in x:
                    break
            else:
                fixed += 1
        if fixed:
            table[T1, T2, T3] = fixed * k1 * k2 * k3
    return table


def _xt_cases(size_max):
    for l, m, n in product(range(size_max + 1), repeat=3):
        for entry in admissible_set(l, m, n):
            yield l, m, n, entry["t"]


def _as_index_parts(x):
    """A sweep element in xt_elements' form: parts (i, j, k, color)."""
    out = set()
    for part, color in x:
        d = dict(part)
        out.add((d.get("l", 0), d.get("m", 0), d.get("n", 0), color))
    return frozenset(out)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_xt_oracle_equals_the_element_sweep_up_to_size_one(r):
    for l, m, n, t in _xt_cases(1):
        for lam_bar in multipartitions(r, l):
            for mu_bar in multipartitions(r, m):
                for nu_bar in multipartitions(r, n):
                    assert xt_multiplicity_oracle(r, lam_bar, mu_bar, nu_bar, t) \
                        == xt_multiplicity_by_sweep(r, lam_bar, mu_bar, nu_bar, t)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_xt_elements_equal_the_sweep_up_to_size_two(r):
    for l, m, n, t in _xt_cases(2):
        X = xt_elements(r, l, m, n, t)
        swept = xt_elements_by_sweep(r, l, m, n, t)
        assert len(X) == len(swept) == len(set(X))
        assert set(X) == {_as_index_parts(x) for x in swept}


@pytest.mark.parametrize("r, size", [(1, 3), (2, 3), (3, 2)])
def test_xt_fixed_points_equal_the_element_enumeration(r, size):
    # every table c10 reads, with its key order
    for l, m, n, t in _xt_cases(size):
        table = C.xt_fixed_points(r, l, m, n, t)
        assert list(table.items()) == list(
            xt_fixed_points_by_elements(r, l, m, n, t).items())


@pytest.mark.parametrize("r, size", [(1, 5), (2, 5), (3, 4)])
def test_the_identity_fixes_all_of_xt(r, size):
    # |X^t| = l! m! n! / (a! b! c! t!) r^(a+b+c+t), from the identity's
    # cycles alone: no element and no table of G(r, size) is built
    for l, m, n, t in _xt_cases(size):
        a, b, c = C._xt_kinds(l, m, n, t)
        count = (factorial(l) * factorial(m) * factorial(n) * r ** (a + b + c + t)
                 // (factorial(a) * factorial(b) * factorial(c) * factorial(t)))
        identity = tuple(((1, 0),) * k for k in (l, m, n))
        assert C._orbit_groupings(r, identity, t) == count


def test_wreath_char_at_identity_is_dimension():
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
    (lambda: kronecker((1,), (1,), (2,)), "sizes"),
    (lambda: C._pad((3,), 4), "padding"),
    (lambda: k_coefficient(2, ((1,), ()), ((1,), ()), ((), ())), "weights"),
    (lambda: xt_formula(1, ((1,),), ((1,),), ((),), 1), "admissible"),
    (lambda: C.xt_fixed_points(1, 1, 1, 0, 1), "admissible"),
], ids=["kronecker-sizes", "pad-below-first-part", "k-weights",
        "xt-formula-t", "xt-fixed-points-t"])
def test_mismatched_sizes_and_inadmissible_t_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_kronecker_rejects_a_non_integer(monkeypatch):
    monkeypatch.setattr(C, "z_order", lambda rho: 3)
    with pytest.raises(ArithmeticError, match="not an integer"):
        kronecker((2,), (2,), (2,))


def _patch_minus_one_table(monkeypatch):
    """Every character value read from wreath_char_table becomes -1."""
    def minus_one_table(r, n):
        reps, sizes, table = wreath_char_table(r, n)
        minus_one = CycNumber.from_rational(r, -1)
        return reps, sizes, {label: dict.fromkeys(row, minus_one)
                             for label, row in table.items()}
    monkeypatch.setattr(C, "wreath_char_table", minus_one_table)


def test_k_coefficient_rejects_a_negative_value(monkeypatch):
    _patch_minus_one_table(monkeypatch)
    with pytest.raises(ArithmeticError, match="non-negative"):
        k_coefficient(1, ((),), ((),), ((),))


def test_xt_oracle_rejects_a_negative_value(monkeypatch):
    _patch_minus_one_table(monkeypatch)
    with pytest.raises(ArithmeticError, match="non-negative"):
        xt_multiplicity_oracle(1, ((),), ((),), ((),), 0)


OPTIMIZED_SCRIPT = """
import random
import sys
from fractions import Fraction
from colorpart import characters as C
from colorpart.diagrams import egf_coefficients
from colorpart.groupoid import random_downward
from colorpart import modules_rep as MR
from colorpart.ribbon import insert
from colorpart.rs import rs_inverse
from colorpart.scalars import MPoly

C.z_order = lambda rho: 3
std, polys, peel = MR._specht_data((2, 1))
MR._specht_data = lambda lam: (std, polys, peel[1:])
# an r = 1 determinant that does not split over 0..2m-2
MR.gram_det = lambda r, k, lam_bar: MPoly(1, {(2,): 1, (0,): 1})
# one fixed point at the identity classes of G(2,1) x G(2,1): a quarter
MR._cartan_fixed_points = lambda r, m, l: {(((1,), ()), ((1,), ())): 1}
checks = [lambda: MR._unit_factors.__wrapped__(2, ()),
          lambda: MR.specht_matrix((2, 1), (1, 2, 3)),
          lambda: C.kronecker((2,), (2,), (2,)),
          lambda: insert({(1,): frozenset({(1, 1)})}, 0, (1,), 1),
          lambda: rs_inverse(((((((2,),), ((1,),)),), ((),)),
                              (((((1,),), ((2,),)),), ((),))), 1, 2, 2),
          lambda: egf_coefficients(Fraction(1, 2), 2),
          lambda: random_downward(random.Random(0), 2, 2, 1),
          lambda: C.xt_fixed_points(1, 1, 1, 0, 1),
          lambda: MR.cartan_entry.__wrapped__(2, ((1,), ()), ((1,), ()))]
print(sys.flags.optimize)
for check in checks:
    try:
        check()
        print("passed")
    except (ArithmeticError, ValueError) as exc:
        print(type(exc).__name__)

# round trips of the trusted builds and the key-once insertions over CPar_2
# at r = 2: how many of the 94 diagrams pass each
from colorpart.diagrams import ColoredDiagram, compose, enumerate_diagrams, factor_triangular
from colorpart.ribbon import sw_diagram, sw_image_key
from colorpart.rs import rs_forward

def factors_ok(d):
    d1, d0, d2 = factor_triangular(d)
    p, e1 = compose(d1, d0)
    return (compose(p, d2) == (d, (0, 0)) and e1 == (0, 0)
            and d1.is_normally_ordered_up() and d2.is_normally_ordered_down()
            and all(f.blocks == ColoredDiagram(2, f.k, f.l, f.blocks).blocks
                    for f in (d1, d0, d2)))

cpar = list(enumerate_diagrams(2, 2, 2))
print(len(cpar), sum(map(factors_ok, cpar)),
      sum(rs_inverse(rs_forward(d), 2, 2, 2) == d for d in cpar),
      len({sw_image_key(sw_diagram(d)) for d in cpar}))
"""


def test_integrity_checks_raise_under_python_O():
    # asserts vanish under -O; these checks, and the round trips, must not
    src = os.path.dirname(os.path.dirname(colorpart.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_SCRIPT],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "ArithmeticError", "ArithmeticError", "ArithmeticError",
                                   "ValueError", "ValueError",
                                   "ArithmeticError", "ValueError",
                                   "ValueError", "ArithmeticError", "94", "94", "94", "94"]


def _asserts(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield node.lineno


def test_the_library_has_no_assert():
    # an integrity check must survive python -O and name what went wrong;
    # the scripts check their results too
    package = Path(colorpart.__file__).parent
    paths = sorted(package.glob("*.py")) + sorted((package.parents[1] / "scripts").glob("*.py"))
    found = {path.name: lines for path in paths
             if (lines := list(_asserts(ast.parse(path.read_text()))))}
    assert found == {}
