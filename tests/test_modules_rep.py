"""Cell modules, Gram matrices, semisimplicity and the Cartan matrix."""

import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from hashlib import sha256
from functools import lru_cache
from itertools import combinations, product
from math import prod

import pytest

from colorpart import modules_rep as MR
from colorpart.characters import (
    g_elements,
    ginv,
    gmul,
    multipartitions,
    pinv,
    weight,
    wreath_char_table,
)
from colorpart.diagrams import (ColoredDiagram, compose, count_bell, enumerate_diagrams,
                                flip_invert, set_partitions)
from colorpart.modules_rep import (
    _specht_data,
    build_matrix_rep,
    cartan_entry,
    cartan_matrix,
    cartan_tensor_check,
    cell_dimension,
    det_bareiss,
    enumerate_cross_section,
    gram_det,
    gram_matrix,
    semisimplicity_certificate,
    specht_dim,
    specht_matrix,
)
from colorpart.scalars import CycNumber, MPoly, zeta_pow
from colorpart.verify import GRAM_K1_R2, _perm_diagram
from helpers import (as_integer, class_sum_by_cyc_numbers, class_type,
                     eval_by_repeated_products, g_identity)
from nested_mpoly import NestedMPoly, nested_det_bareiss


def test_specht_dimensions():
    assert specht_dim((3,)) == 1
    assert specht_dim((2, 1)) == 2
    assert specht_dim((1, 1, 1)) == 1
    assert specht_dim((3, 2)) == 5
    assert specht_dim((2, 2, 1)) == 5


def test_specht_matrices_multiply():
    from itertools import permutations

    for lam in [(2, 1), (3, 1), (2, 2)]:
        n = sum(lam)
        perms = list(permutations(range(1, n + 1)))
        rng = random.Random(0)
        for _ in range(15):
            a, b = rng.choice(perms), rng.choice(perms)
            ab = tuple(a[b[i] - 1] for i in range(n))
            Ma, Mb = specht_matrix(lam, a), specht_matrix(lam, b)
            prod = [
                [
                    sum(Ma[i][t] * Mb[t][j] for t in range(len(Ma)))
                    for j in range(len(Ma))
                ]
                for i in range(len(Ma))
            ]
            assert [list(row) for row in specht_matrix(lam, ab)] == prod


def _solve(matrix, rhs):
    """Solve matrix @ x = rhs exactly (matrix has full column rank)."""
    rows, cols = len(matrix), len(matrix[0]) if matrix else 0
    aug = [list(matrix[i]) + [rhs[i]] for i in range(rows)]
    piv = []
    rank = 0
    for c in range(cols):
        p = next((i for i in range(rank, rows) if aug[i][c]), None)
        if p is None:
            raise ArithmeticError("column rank deficiency")
        aug[rank], aug[p] = aug[p], aug[rank]
        inv = Fraction(1) / aug[rank][c]
        aug[rank] = [x * inv for x in aug[rank]]
        for i in range(rows):
            if i != rank and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[rank])]
        piv.append(c)
        rank += 1
    if any(aug[i][cols] for i in range(rank, rows)):
        raise ArithmeticError("inconsistent system")
    x = [Fraction(0)] * cols
    for row_i, c in enumerate(piv):
        x[c] = aug[row_i][cols]
    return x


def _apply_perm(t, perm):
    return tuple(tuple(perm[v - 1] for v in row) for row in t)


def specht_matrix_by_solve(lam, perm):
    """The original Specht matrix, kept as the oracle: each column builds
    e_{perm t} from scratch and solves the tall system of standard
    polytabloids over all tabloids."""
    std = MR.standard_tableaux(lam)
    vecs = [MR._polytabloid(t) for t in std]
    tabloids = sorted({tb for v in vecs for tb in v}, key=repr)
    index = {tb: i for i, tb in enumerate(tabloids)}
    matrix = [[Fraction(vecs[j].get(tb, 0)) for j in range(len(std))] for tb in tabloids]
    out = []
    for t in std:
        rhs = [Fraction(0)] * len(index)
        for tb, c in MR._polytabloid(_apply_perm(t, perm)).items():
            rhs[index[tb]] = Fraction(c)
        out.append(_solve(matrix, rhs))
    return tuple(tuple(col[i] for col in out) for i in range(len(std)))


def test_straightening_matches_the_solve_oracle():
    from itertools import permutations

    # every permutation for n <= 4; at n = 5, the first size where peeling
    # out of dominance order goes wrong, the adjacent transpositions and a
    # seeded sample
    rng = random.Random(5)
    cases = [(lam, perm) for n in range(5) for (lam,) in multipartitions(1, n)
             for perm in permutations(range(1, n + 1))]
    swaps = [tuple(range(1, i)) + (i + 1, i) + tuple(range(i + 2, 6)) for i in range(1, 5)]
    sample = swaps + [tuple(rng.sample(range(1, 6), 5)) for _ in range(8)]
    cases += [(lam, perm) for (lam,) in multipartitions(1, 5) for perm in sample]
    for lam, perm in cases:
        got = specht_matrix(lam, perm)
        assert got == specht_matrix_by_solve(lam, perm)
        assert all(type(x) is int for row in got for x in row)


def test_straightening_rejects_a_vector_outside_the_span(monkeypatch):
    # a peel that misses the first standard tabloid leaves e_t, t = std[0],
    # outside the span of what it peels
    lam, perm = (2, 1), (1, 2, 3)
    std, polys, peel = _specht_data(lam)
    monkeypatch.setattr(MR, "_specht_data", lambda lam: (std, polys, peel[1:]))
    with pytest.raises(ArithmeticError, match="outside the span"):
        specht_matrix.__wrapped__(lam, perm)


def _kron(a, b):
    if not a:
        return b
    if not b:
        return a
    return tuple(
        tuple(a[i][j] * b[p][q] for j in range(len(a)) for q in range(len(b)))
        for i in range(len(a))
        for p in range(len(b))
    )


def base_matrix(rep, h):
    """The block-subgroup representation: color scalar x Specht kron."""
    f, tau = h
    phase = 0
    mat = ()
    for j, blk in enumerate(rep.blocks):
        phase += j * sum(f[v - 1] for v in blk)
        off = blk[0] - 1 if blk else 0
        local = tuple(tau[off + v - 1] - off for v in range(1, len(blk) + 1))
        mat = _kron(mat, specht_matrix(rep.lam_bar[j], local))
    if not mat:
        mat = ((Fraction(1),),)
    scal = zeta_pow(rep.r, phase % rep.r)
    return tuple(
        tuple(scal * x if x else CycNumber.zero(rep.r) for x in row)
        for row in mat
    )


def preserves_blocks(rep, h):
    return all(h[1][v - 1] in blk for blk in rep.blocks for v in blk)


def induced_matrix(rep, g):
    """The full dim x dim matrix of g on the induced module, kept as the
    oracle for MatrixRep.matrix.  With g t = t2 h, t2 is the one coset rep
    for which t2^-1 g t preserves the blocks."""
    r, d = rep.r, rep.dim
    m = [[CycNumber.zero(r) for _ in range(d)] for _ in range(d)]
    for c, t in enumerate(rep.coset_reps):
        gt = gmul(r, g, t)
        (c2, h), = [(c2, h) for c2, t2 in enumerate(rep.coset_reps)
                    for h in [gmul(r, ginv(r, t2), gt)] if preserves_blocks(rep, h)]
        sig = base_matrix(rep, h)
        for v in range(rep.base_dim):
            for w in range(rep.base_dim):
                if sig[v][w]:
                    m[c2 * rep.base_dim + v][c * rep.base_dim + w] = sig[v][w]
    return tuple(tuple(row) for row in m)


def test_wreath_rep_is_multiplicative_and_traces_match():
    for r, n, lam_bar in [(2, 2, ((1,), (1,))), (3, 1, ((), (1,), ()))]:
        rep = build_matrix_rep(r, lam_bar)
        elems = g_elements(r, n)
        rng = random.Random(1)
        for _ in range(10):
            a, b = rng.choice(elems), rng.choice(elems)
            Mab = induced_matrix(rep, gmul(r, a, b))
            Ma, Mb = induced_matrix(rep, a), induced_matrix(rep, b)
            prod = [
                [
                    sum(
                        (Ma[i][t] * Mb[t][j] for t in range(rep.dim)),
                        CycNumber.zero(r),
                    )
                    for j in range(rep.dim)
                ]
                for i in range(rep.dim)
            ]
            assert [list(row) for row in Mab] == prod
            trace = sum((Ma[i][i] for i in range(rep.dim)), CycNumber.zero(r))
            assert trace == wreath_char_table(r, n)[2][lam_bar][class_type(r, a)]


@pytest.mark.parametrize("r, n", [(r, n) for r in range(1, 4) for n in range(5)])
def test_coset_reps_are_the_first_element_of_each_coset(r, n):
    # brute force: g_elements in order, each new element opening the coset
    # g H, H the elements that preserve the blocks
    elements = g_elements(r, n)
    for lam_bar in multipartitions(r, n):
        rep = build_matrix_rep(r, lam_bar)
        sizes = [sum(lam) for lam in lam_bar]
        starts = [1 + sum(sizes[:j]) for j in range(r)]
        assert rep.blocks == tuple(tuple(range(s, s + k)) for s, k in zip(starts, sizes))
        subgroup = [h for h in elements if preserves_blocks(rep, h)]
        firsts, seen = [], set()
        for g in elements:
            if g not in seen:
                firsts.append(g)
                seen.update(gmul(r, g, h) for h in subgroup)
        assert rep.coset_reps == firsts
        assert rep.dim == len(firsts) * rep.base_dim


@pytest.mark.parametrize("r, lam_bar", [
    (2, ((1,), (1,))), (3, ((), (1,), ())), (1, ((2, 1),)), (2, ((2, 1), ())),
    (2, ((1,), (1, 1))), (3, ((1,), (), (1,)))])
def test_column_is_the_first_column_of_the_induced_matrix(r, lam_bar):
    rep = build_matrix_rep(r, lam_bar)
    for g in g_elements(r, rep.n):
        assert rep.matrix(g) == induced_matrix(rep, g)


@lru_cache(maxsize=None)
def primitive_idempotent(r, lam_bar):
    """eps = (dim/|G|) sum_g rho(g^{-1})_{11} g, as dict g -> CycNumber."""
    rep = build_matrix_rep(r, lam_bar)
    elements = g_elements(r, rep.n)
    scale = Fraction(rep.dim, len(elements))
    eps = {}
    for g in elements:
        c = induced_matrix(rep, ginv(r, g))[0][0] * scale
        if c:
            eps[g] = c
    return eps


def algebra_mul(r, a, b):
    """Group algebra convolution of dicts g -> CycNumber."""
    out = {}
    for g, cg in a.items():
        for h, ch in b.items():
            gh = gmul(r, g, h)
            out[gh] = out.get(gh, CycNumber.zero(r)) + cg * ch
    return {g: c for g, c in out.items() if c}


def phi_table_by_convolution(r, lam_bar):
    """phi(z) with eps z eps = phi(z) eps: the identity coefficient of
    eps z eps, sum_g eps_g eps_{(gz)^-1}, over that of eps."""
    eps = primitive_idempotent(r, lam_bar)
    n = weight(lam_bar)
    zero = CycNumber.zero(r)
    table = {}
    for z in g_elements(r, n):
        coeff = sum((c * eps.get(ginv(r, gmul(r, g, z)), zero) for g, c in eps.items()),
                    zero)
        table[z] = coeff / eps[g_identity(n)]
    return table


def test_primitive_idempotent_is_idempotent():
    r, lam_bar = 2, ((1,), ())
    eps = primitive_idempotent(r, lam_bar)
    assert algebra_mul(r, eps, eps) == eps


@pytest.mark.parametrize("r, n", [(r, n) for r in (1, 2, 3) for n in (0, 1, 2)]
                         + [(1, 3), (2, 3)])
def test_phi_table_matches_the_convolution_oracle(r, n):
    # by Schur orthogonality phi(z) = rho(z)_11, the corner of matrix(z)
    for lam_bar in multipartitions(r, n):
        rep = build_matrix_rep(r, lam_bar)
        phi = phi_table_by_convolution(r, lam_bar)
        assert {z: rep.matrix(z)[0][0] for z in phi} == phi


def cross_section_by_validation(r, k, i):
    """The original cross-section, kept as the oracle: every element built
    through the validating constructor."""
    out = []
    for part in set_partitions(range(1, k + 1)):
        if len(part) < i:
            continue
        part = [tuple(b) for b in part]
        for chosen in combinations(range(len(part)), i):
            props = sorted((part[c] for c in chosen), key=min)
            others = [part[c] for c in range(len(part)) if c not in chosen]
            base = [(props[j], (j + 1,), 0) for j in range(i)]
            base += [((), (j,), 0) for j in range(i + 1, k + 1)]
            for colors in product(range(r), repeat=len(others)):
                out.append(ColoredDiagram(r, k, k, base + [
                    (b, (), c) for b, c in zip(others, colors)]))
    return out


@pytest.mark.parametrize("r, k", [(r, k) for r in (1, 2, 3) for k in range(5)])
def test_cross_section_equals_the_validating_build(r, k):
    for i in range(k + 1):
        cs = enumerate_cross_section(r, k, i)
        assert type(cs) is tuple
        assert list(cs) == cross_section_by_validation(r, k, i)


def test_cross_section_rejects_bad_sizes():
    for r, k, i in [(0, 1, 0), (2, 1, 2), (2, 2, -1)]:
        with pytest.raises(ValueError):
            enumerate_cross_section(r, k, i)


def test_cross_section_counts():
    assert len(enumerate_cross_section(2, 1, 0)) == 2
    assert len(enumerate_cross_section(2, 1, 1)) == 1
    assert len(enumerate_cross_section(2, 2, 0)) == 6
    assert len(enumerate_cross_section(2, 2, 1)) == 5
    assert len(enumerate_cross_section(2, 2, 2)) == 1
    assert len(enumerate_cross_section(3, 2, 0)) == 12
    assert len(enumerate_cross_section(3, 2, 1)) == 7


def group_diagram(r, k, i, g):
    """The (k,k)-diagram of g in G(r,i) padded with trivial strands absent:
    propagating blocks {v, (tau^{-1}v)'} colored f(v), plus trivial top and
    bottom singletons at i+1..k."""
    f, tau = g
    ti = pinv(tau)
    blocks = [((v,), (ti[v - 1],), f[v - 1]) for v in range(1, i + 1)]
    blocks += [((v,), (), 0) for v in range(i + 1, k + 1)]
    blocks += [((), (v,), 0) for v in range(i + 1, k + 1)]
    return ColoredDiagram(r, k, k, blocks)


class NotInLForm(RuntimeError):
    pass


def factor_cross_section(d, i):
    """Factor a rank-i (k,k)-diagram with cross-section bottom structure as
    (d2, g): d2 in S(k,i), g in G(r,i); raises NotInLForm otherwise."""
    r, k = d.r, d.k
    if d.rank() != i:
        raise NotInLForm("rank is not %d" % i)
    props = []
    for top, bot, c in d.blocks:
        if top and bot:
            if len(bot) != 1 or bot[0] > i:
                raise NotInLForm("propagating bottom is not a singleton in 1..i")
            props.append((top, bot[0], c))
        elif bot:
            if len(bot) != 1 or bot[0] <= i or c:
                raise NotInLForm("nonpropagating bottom not a trivial singleton")
    props.sort(key=lambda x: min(x[0]))
    tau = [0] * i
    f = [0] * i
    blocks = []
    for p, (top, m, c) in enumerate(props, start=1):
        blocks.append((top, (p,), 0))
        tau[m - 1] = p
        f[p - 1] = c
    blocks += [((), (j,), 0) for j in range(i + 1, k + 1)]
    blocks += [(top, (), c) for top, bot, c in d.blocks if top and not bot]
    d2 = ColoredDiagram(r, k, k, blocks)
    g = (tuple(f), tuple(tau))
    return d2, g


def recompose_cross_section(d2, g, i):
    """Inverse of factor_cross_section: rebuild the rank-i diagram."""
    r, k = d2.r, d2.k
    f, tau = g
    ti = pinv(tau) if i else ()
    blocks = []
    for top, bot, c in d2.blocks:
        if top and bot:
            p = bot[0]
            blocks.append((top, (ti[p - 1],), f[p - 1]))
        else:
            blocks.append((top, bot, c))
    return ColoredDiagram(r, k, k, blocks)


def act(d, d1, i):
    """Action of d in CPar_k on the cross-section index d1 of a rank-i cell
    module: returns (d2, g, exponents) or None when the rank drops."""
    prod, exps = compose(d, d1)
    if prod.rank() != i:
        return None
    d2, g = factor_cross_section(prod, i)
    return d2, g, exps


def test_cross_section_factorization_roundtrip():
    for r, k in [(2, 1), (2, 2), (3, 1)]:
        for i in range(k + 1):
            for d2 in enumerate_cross_section(r, k, i):
                for g in g_elements(r, i):
                    d = recompose_cross_section(d2, g, i)
                    e2, h = factor_cross_section(d, i)
                    assert (e2, h) == (d2, g)


def test_group_diagram_is_a_homomorphism():
    r, k, i = 2, 2, 2
    elems = g_elements(r, i)
    for g in elems:
        for h in elems:
            dg, dh = group_diagram(r, k, i, g), group_diagram(r, k, i, h)
            prod, exps = compose(dg, dh)
            assert not any(exps)
            assert prod == group_diagram(r, k, i, gmul(r, g, h))


def test_action_factors_through_cross_section():
    # acting by a diagram either kills a basis label or produces d2, g, exps
    r, k, i = 2, 2, 1
    cs = enumerate_cross_section(r, k, i)
    diagrams = list(enumerate_diagrams(r, k, k))
    rng = random.Random(2)
    for _ in range(60):
        d = rng.choice(diagrams)
        d1 = rng.choice(cs)
        res = act(d, d1, i)
        if res is None:
            prod, _ = compose(d, d1)
            assert prod.rank() < i
        else:
            d2, g, exps = res
            assert d2 in cs
            back = recompose_cross_section(d2, g, i)
            prod, e = compose(d, d1)
            assert prod == back and exps == e


def test_gram_data_k1_r2():
    for lam_bar, expected in GRAM_K1_R2.items():
        M = gram_matrix(2, 1, lam_bar)
        assert tuple(tuple(row) for row in M) == expected
    y0, y1 = MPoly.variable(2, 0), MPoly.variable(2, 1)
    assert gram_det(2, 1, ((), ())) == y0 * y0 - y1 * y1


def test_gram_matrices_are_symmetric():
    for r, k in [(2, 1), (2, 2)]:
        for i in range(k + 1):
            for lam_bar in multipartitions(r, i):
                M = gram_matrix(r, k, lam_bar)
                n = len(M)
                for a in range(n):
                    for b in range(n):
                        assert M[a][b] == M[b][a]


def gram_matrix_by_compose(r, k, lam_bar):
    """The original Gram build, kept as the oracle: each pair (d, d') of
    the cross-section composes flip_invert(d) d', factors the product
    through the cross-section and reads y^e rho(g)_ab."""
    lam_bar = tuple(tuple(lam) for lam in lam_bar)
    i = weight(lam_bar)
    cs = enumerate_cross_section(r, k, i)
    rep = build_matrix_rep(r, lam_bar)
    rho = {}
    rows = []
    for d in cs:
        di = flip_invert(d)
        blocks = []
        for dp in cs:
            prod, exps = compose(di, dp)
            if prod.rank() != i:
                blocks.append(None)
                continue
            d2, g = factor_cross_section(prod, i)
            # the product is e_i-padded: d2 is the identity on 1..i with
            # trivial singletons past i
            assert all(top == bot or (not top and len(bot) == 1 and c == 0)
                       or (not bot and len(top) == 1 and c == 0)
                       for top, bot, c in d2.blocks), prod
            if g not in rho:
                rho[g] = rep.matrix(g)
            blocks.append((exps, rho[g]))
        for a in range(rep.dim):
            row = []
            for blk in blocks:
                if blk is None:
                    row.extend([MPoly.zero(r)] * rep.dim)
                else:
                    exps, m = blk
                    row.extend(MPoly.monomial(r, exps, x) for x in m[a])
            rows.append(row)
    return rows


@pytest.mark.parametrize("r, k", [(r, k) for r in (1, 2, 3) for k in range(4)]
                         + [(1, 4), (4, 2), (5, 1), (2, 4)])
def test_gram_matrix_equals_the_compose_oracle(r, k):
    for i in range(k + 1):
        for lam_bar in multipartitions(r, i):
            assert gram_matrix(r, k, lam_bar) == gram_matrix_by_compose(r, k, lam_bar)


def test_bareiss_determinant_against_cofactors():
    y0, y1 = MPoly.variable(2, 0), MPoly.variable(2, 1)
    M = [
        [y0, y1, MPoly.one(2)],
        [y1, y0, MPoly.zero(2)],
        [MPoly.one(2), MPoly.zero(2), y0],
    ]
    expected = y0 * (y0 * y0 - y1 * y1) - y0  # expand along the last row
    assert det_bareiss(M, 2) == expected


def det_by_permutations(M, r):
    """The Leibniz sum over all permutations, kept as the oracle for small
    matrices."""
    from itertools import permutations

    total = MPoly.zero(r)
    for perm in permutations(range(len(M))):
        inversions = sum(1 for a in range(len(perm)) for b in range(a)
                         if perm[b] > perm[a])
        term = MPoly.one(r)
        for row, col in enumerate(perm):
            term = term * M[row][col]
        total = total + (-term if inversions % 2 else term)
    return total


def _bareiss_cases():
    y0, y1 = MPoly.variable(2, 0), MPoly.variable(2, 1)
    one, zero = MPoly.one(2), MPoly.zero(2)
    return {
        # the only monomial below the first row sits in column 0: a row swap
        "row swap": [[y0 + y1, y0 + one], [y1, y0 + y1 + one]],
        # the only monomial of row 0 is off the diagonal: a column swap
        "column swap": [[y0 + y1, y1], [y0 + one, y0 + y1 + one]],
        # the only monomial is at (1, 1): both swaps at once
        "both swaps": [[y0 + y1, y0 + one], [y0 + 2 * one, y1 * y1]],
        # at each step the sparsest entry is off the diagonal
        "off-diagonal pivots": [[y0 + y1, y0 + one, y1],
                                [y1 + 2 * one, zero, y0 + y1],
                                [y0 * y1 + one, y0 - y1, y0 + y1 + one]],
        # row 1 has a zero in the first pivot column, so its products are
        # the pivot's alone
        "zero pivot column entry": [[y0, y1 + one, zero],
                                    [zero, y0 + y1, y1],
                                    [y1, zero, y0 + one]],
        # the second row is y0 times the first
        "singular": [[y0 + one, y1, y0 + y1], [y0 * y0 + y0, y0 * y1, y0 * y0 + y0 * y1],
                     [y1, one, y0]],
        # rank 1: the trailing submatrix after one step is all zero
        "zero block": [[y0, y1, one], [y0 * y1, y1 * y1, y1],
                       [y0 * y0 + y0, y0 * y1 + y1, y0 + one]],
        "1x1": [[y0 + y1 + one]],
        "0x0": [],
    }


@pytest.mark.parametrize("name", list(_bareiss_cases()))
def test_bareiss_pivoting_against_the_leibniz_sum(name):
    M = _bareiss_cases()[name]
    det = det_bareiss(M, 2)
    assert det == det_by_permutations(M, 2)
    assert NestedMPoly.of(det) == nested_det_bareiss(M, 2)
    if name in ("singular", "zero block"):
        assert not det
    if name == "0x0":
        assert det == MPoly.one(2)


@pytest.mark.parametrize("name", ["row swap", "both swaps", "off-diagonal pivots"])
def test_a_transposition_negates_the_determinant(name):
    M = _bareiss_cases()[name]
    det = det_bareiss(M, 2)
    assert det
    rows = [M[1], M[0]] + M[2:]
    cols = [[row[1], row[0]] + row[2:] for row in M]
    assert det_bareiss(rows, 2) == -det
    assert det_bareiss(cols, 2) == -det


def test_bareiss_on_random_sparse_matrices():
    # seeded matrices of sizes 1..5 over Q(zeta_3), about a third of the
    # entries zero, against the Leibniz sum
    rng = random.Random(7)
    r = 3
    pool = [MPoly.zero(r)] * 3 + [
        MPoly.monomial(r, exps, zeta_pow(r, j) * c)
        for exps in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 2)]
        for j in range(r) for c in (1, -2)]
    for _ in range(40):
        n = rng.randint(1, 5)
        M = [[sum(rng.sample(pool, rng.randint(1, 2)), MPoly.zero(r)) for _ in range(n)]
             for _ in range(n)]
        assert det_bareiss(M, r) == det_by_permutations(M, r)


RANK0_R3_K2 = ((), (), ())


@pytest.mark.parametrize("r, k", [(r, k) for r in (1, 2, 3) for k in (0, 1, 2)])
def test_cell_determinants_match_the_nested_oracle(r, k):
    # the 12x12 rank-0 cell of (3,2) takes the nested oracle ~15 s; it is
    # frozen against the parent's output below instead
    for i in range(k + 1):
        for lam_bar in multipartitions(r, i):
            if (r, k, lam_bar) != (3, 2, RANK0_R3_K2):
                det = gram_det(r, k, lam_bar)
                assert NestedMPoly.of(det) == nested_det_bareiss(gram_matrix(r, k, lam_bar), r)


def test_rank0_determinant_r3_k2_is_frozen():
    # the 12x12 Gram determinant as the nested Bareiss printed it; read
    # through the cache that c12 fills
    det = gram_det(3, 2, RANK0_R3_K2)
    assert len(det.terms) == 290
    assert sha256(repr(det).encode()).hexdigest() == (
        "707a48be29abef83a3a69d8c8a7b8efbbf2907edacc215d71d10d0ff709cc263")
    M = gram_matrix(3, 2, RANK0_R3_K2)
    for x in [(2, 1, 1), (5, -2, Fraction(1, 3))]:
        assert det.eval(x) == eliminate_at(M, x)[1]
    assert det.eval((2, 1, 1))


def test_dimension_identity():
    for r in (1, 2, 3):
        for k in (0, 1, 2):
            total = sum(
                cell_dimension(r, k, lam_bar) ** 2
                for i in range(k + 1)
                for lam_bar in multipartitions(r, i)
            )
            assert total == count_bell(2 * k, r)


@pytest.mark.parametrize("r, lam_bar", [
    pytest.param(r, lam_bar, id="%d-%s" % (r, lam_bar))
    for r, sizes in ((1, range(7)), (2, range(5)), (3, range(4)))
    for n in sizes for lam_bar in multipartitions(r, n)
    if build_matrix_rep(r, lam_bar).dim > 1])
def test_top_cell_form_is_nondegenerate(r, lam_bar):
    # the top cell (k = |lam_bar|) is the irreducible G(r,k)-module, so an
    # invariant form on it is zero or nondegenerate, and it is not zero
    assert gram_det(r, weight(lam_bar), lam_bar)


def eliminate_at(M, x):
    """(rank, determinant) of the matrix M at the point x, by Gaussian
    elimination with field division over Q(zeta_r), in Fractions where
    r <= 2; no Bareiss step and no MPoly product.  The determinant is 0
    where the rank falls short."""
    rows = [[e.eval(x) for e in row] for row in M]
    if len(x) <= 2:
        rows = [[Fraction(v.as_rational()) for v in row] for row in rows]
    rank, det = 0, 1
    for c in range(len(rows[0]) if rows else 0):
        p = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if p is None:
            det = 0
            continue
        if p != rank:
            rows[rank], rows[p] = rows[p], rows[rank]
            det = -det
        det = det * rows[rank][c]
        inv = 1 / rows[rank][c]
        pivot = [v * inv for v in rows[rank]]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], pivot)]
        rank += 1
    return rank, det


@pytest.mark.parametrize("r, k, points", [
    pytest.param(1, 4, {(7,): 4140, (11,): 4140, (6,): 4121, (5,): 3968, (3,): 2603,
                        (0,): 2275}, id="1-4"),
    pytest.param(2, 3, {(2, 1): 2430, (7, 2): 2430, (3, 1): 1555}, id="2-3"),
    pytest.param(3, 3, {(2, 1, 1): 12351}, id="3-3"),
])
def test_cell_ranks_square_to_the_semisimple_quotient(r, k, points):
    # End(k) is cellular: the sum over cells of rank(G(x))^2 is
    # dim A/rad A, so B_{2k,r} at a semisimple point (P_4(x) for x not in
    # 0..6, Halverson-Ram) and less where the algebra is not semisimple
    grams = [gram_matrix(r, k, lam_bar)
             for i in range(k + 1) for lam_bar in multipartitions(r, i)]
    for x, expected in points.items():
        assert sum(eliminate_at(M, x)[0] ** 2 for M in grams) == expected
    assert count_bell(2 * k, r) == max(points.values())


@pytest.mark.parametrize("lam", [
    lam for i in range(6) for (lam,) in multipartitions(1, i) if specht_dim(lam) > 1],
    ids=str)
def test_form_is_invariant_at_r1(lam):
    # (1 x Q) M is the cell form, Q the Gram matrix of the standard
    # polytabloids under the S_n-invariant tabloid form, so it is symmetric
    _, polys, _ = _specht_data(lam)
    Q = [[sum(c * b.get(tb, 0) for tb, c in a.items()) for b in polys] for a in polys]
    M = gram_matrix(1, 5, (lam,))
    dim = len(Q)
    QM = [[sum((M[d + j][col] * q for j, q in enumerate(Q[a]) if q), MPoly.zero(1))
           for col in range(len(M))]
          for d in range(0, len(M), dim) for a in range(dim)]
    assert all(QM[s][t] == QM[t][s] for s in range(len(QM)) for t in range(s))


def test_semisimplicity_points():
    ss = semisimplicity_certificate(2, 1, (2, 1))
    assert ss["semisimple"] and ss["dimension_identity"]
    dets = {lam: val for lam, (_, val) in ss["dets"].items()}
    assert dets[((), ())] == Fraction(3)
    ns = semisimplicity_certificate(2, 1, (1, 1))
    assert not ns["semisimple"]


def test_semisimplicity_rejects_bad_points():
    with pytest.raises(ValueError):
        semisimplicity_certificate(2, 1, (1,))
    with pytest.raises(ValueError):
        semisimplicity_certificate(2, 1, (0, 0))


@pytest.mark.parametrize("point", [(0.1,), ("1/2",), (None,)])
def test_semisimplicity_refuses_a_point_that_is_not_exact(point):
    # Fraction(0.1) evaluated at 3602879701896397/36028797018963968, and
    # Fraction("1/2") parsed the string
    with pytest.raises(TypeError, match="not an int or a Fraction"):
        semisimplicity_certificate(1, 1, point)


def test_semisimplicity_takes_fractions():
    cert = semisimplicity_certificate(1, 1, (Fraction(1, 2),))
    assert cert["x"] == (Fraction(1, 2),)
    assert cert["semisimple"]
    # an integral Fraction comes back as an int, as scalars keeps it
    x = semisimplicity_certificate(2, 1, (Fraction(4, 2), Fraction(1, 2)))["x"]
    assert x == (2, Fraction(1, 2))
    assert [type(v) for v in x] == [int, Fraction]


# the (r, k) of the cellular benchmark's certificates and of c12, and (3,2)
CERT_CASES = [(1, 3), (2, 2), (3, 1), (4, 1), (5, 1), (2, 1), (3, 2)]


def expand_form(r, form):
    """A factored form read back as an MPoly: y0.. the variables, z zeta_r."""
    names = {"y%d" % c: MPoly.variable(r, c) for c in range(r)}
    names.update({"z%d" % m: MPoly.constant(r, zeta_pow(r, m)) for m in range(r)})
    names["power"] = lambda base, e: prod([base] * e, start=MPoly.one(r))
    form = re.sub(r"z\^?(\d*)", lambda m: "z" + (m.group(1) or "1"), form)
    form = re.sub(r"(\([^()]*\)|y\d+)\^(\d+)", r"power(\1, \2)", form)
    return eval(form, {"__builtins__": {}}, names) * MPoly.one(r)


def _cert_points(rng, r):
    """Int points, with negative coordinates, Fraction points and points
    with a zero coordinate, each with some coordinate nonzero."""
    ints = [tuple(rng.randint(-3, 6) for _ in range(r)) for _ in range(3)]
    negative = [tuple(-rng.randint(1, 4) for _ in range(r))]
    fractions = [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                       for _ in range(r)) for _ in range(3)]
    zeros = [tuple(0 if j != i else rng.choice([-2, Fraction(3, 2), 5])
                   for j in range(r)) for i in range(r)]
    zeros += [(0,) * (r - 1) + (1,), (1,) + (0,) * (r - 1)]
    return [x for x in ints + negative + fractions + zeros if any(x)]


@pytest.mark.parametrize("r, k", CERT_CASES)
def test_certificate_values_are_each_determinant_at_the_point(r, k):
    # the values against the Bareiss determinants through the
    # repeated-product oracle, which reads each one through its terms
    # view; at r = 2, 3 and k <= 2 the factored form, read back, is the
    # determinant itself
    rng = random.Random(r * 10 + k)
    cells = [lam for i in range(k + 1) for lam in multipartitions(r, i)]
    for lam in cells if r in (2, 3) else ():
        form = semisimplicity_certificate(r, k, (1,) * r)["dets"][lam][0]
        assert expand_form(r, form) == gram_det(r, k, lam)
    for x in _cert_points(rng, r):
        cert = semisimplicity_certificate(r, k, x)
        assert list(cert["dets"]) == cells
        for lam in cells:
            form, val = cert["dets"][lam]
            assert form == MR._factored_form(r, MR._label_factors(r, k, lam))
            assert type(val) is CycNumber
            assert val == eval_by_repeated_products(gram_det(r, k, lam), x)
        assert cert["semisimple"] == all(val for _, val in cert["dets"].values())
        # normal form: an int when integral, a Fraction otherwise
        assert cert["x"] == tuple(x)
        assert [type(v) for v in cert["x"]] == [
            int if Fraction(v).denominator == 1 else Fraction for v in x]
        dim_sq = sum(cell_dimension(r, k, lam) ** 2 for lam in cells)
        assert cert["sum_dim_sq"] == dim_sq == cert["bell"] == count_bell(2 * k, r)
        assert cert["dimension_identity"]


def test_factored_forms_at_r2_k2():
    cert = semisimplicity_certificate(2, 2, (3, 1))
    assert {lam: form for lam, (form, _) in cert["dets"].items()} == {
        ((), ()): "(y0 + y1)^4*(y0 + y1 - 2)*(y0 - y1)^4*(y0 - y1 - 2)",
        ((), (1,)): "(y0 + y1)^2*(y0 - y1)*(y0 - y1 - 4)",
        ((1,), ()): "(y0 + y1)*(y0 + y1 - 4)*(y0 - y1)^2",
        ((), (2,)): "1", ((), (1, 1)): "1", ((1,), (1,)): "1", ((2,), ()): "1",
        ((1, 1), ()): "1"}
    # t_0 = 2 and t_1 = 1 are both on a wall: (y0 + y1 - 4) and (y0 - y1 - 2)
    # vanish, y0 - y1 - 4 does not
    assert [val for _, val in cert["dets"].values()][:3] == [0, -64, 0]


def test_unit_factors_are_the_partition_algebra_roots():
    # P_3's rank-0 cell: t^5 (t - 1)^4 (t - 2)
    assert MR._unit_factors(3, ()) == ((0, 5), (1, 4), (2, 1))
    assert MR._unit_factors(0, ()) == ()
    assert MR._unit_factors(2, (2,)) == ()


@pytest.mark.parametrize("det", [
    # a root past 2m - 2 = 2, a factor without a root, a constant factor
    {(2,): 1, (1,): -3},
    {(2,): 1, (0,): 1},
    {(1,): 2},
])
def test_unit_factors_raise_on_a_determinant_that_does_not_split(monkeypatch, det):
    monkeypatch.setattr(MR, "gram_det", lambda r, k, lam_bar: MPoly(1, det))
    with pytest.raises(ArithmeticError, match="leaves"):
        MR._unit_factors.__wrapped__(2, ())


def _pairing_values(r, k, lam, x, sign):
    """The product of label factors at x, label j taken at yhat_{sign j}."""
    hats = [sum((zeta_pow(r, j * c) * v for c, v in enumerate(x)), CycNumber.zero(r))
            for j in range(r)]
    value = CycNumber.one(r)
    for (j, a), e in MR._label_factors(r, k, lam).items():
        for _ in range(e):
            value = value * (hats[sign * j % r] - r * a)
    return value


@pytest.mark.parametrize("r, k, x, broken", [
    (3, 2, (3, 1, 2), {((), (), (1,)), ((), (1,), ())}),
    (4, 2, (3, 1, 2, 5), {((), (), (), (1,)), ((), (1,), (), ())}),
])
def test_pairing_lam_j_with_yhat_j_breaks_the_identity(r, k, x, broken):
    # the identity pairs lam^j with yhat_{-j}; the other pairing misses
    # exactly the rank-1 cells of the two conjugate labels
    cells = [lam for i in range(k + 1) for lam in multipartitions(r, i)]
    dets = {lam: eliminate_at(gram_matrix(r, k, lam), x)[1] for lam in cells}
    assert all(_pairing_values(r, k, lam, x, -1) == dets[lam] for lam in cells)
    assert {lam for lam in cells if _pairing_values(r, k, lam, x, 1) != dets[lam]} == broken


def test_certificate_plan_is_cached_per_r_and_k_not_per_point():
    MR._certificate_plan.cache_clear()
    try:
        for x in range(1, 8):
            semisimplicity_certificate(1, 3, (x,))
            semisimplicity_certificate(2, 1, (x, Fraction(1, x)))
        info = MR._certificate_plan.cache_info()
        assert info.currsize == 2
        assert info.misses == 2
    finally:
        MR._certificate_plan.cache_clear()


def test_cartan_r1_values():
    # one-color case: diagonal 1, unitriangular with respect to weight
    labels, B = cartan_matrix(1, 2)
    for lam in labels:
        assert B[(lam, lam)] == 1
        for mu in labels:
            if weight(mu) > weight(lam):
                assert B[(lam, mu)] == 0


def test_cartan_matrix_rejects_r_below_one():
    with pytest.raises(ValueError):
        cartan_matrix(0, 1)


def test_cartan_tensor_factorization():
    assert cartan_tensor_check(2, 2)


@lru_cache(maxsize=None)
def downward_basis(r, m, l):
    return tuple(d for d in enumerate_diagrams(r, m, l) if d.is_downward())


def basis_map(index, products):
    """The index map j -> index(p_j) of a permutation diagram acting on one
    side of the downward basis, given the products (p_j, exps_j) in basis
    order; no product may close a loop or leave the basis."""
    out = []
    for prod, exps in products:
        assert not any(exps)
        out.append(index[prod])
    return out


def cartan_entry_by_compose(r, lam_bar, mu_bar):
    """The original triple loop, kept as the oracle: for every pair (g, h)
    and every basis diagram d, compose g*d*h and test it against d."""
    l, m = weight(lam_bar), weight(mu_bar)
    basis = downward_basis(r, m, l)
    if not basis:
        return 0
    total = CycNumber.zero(r)
    for g, cg in primitive_idempotent(r, mu_bar).items():
        dg = _perm_diagram(r, m, g)
        for h, ch in primitive_idempotent(r, lam_bar).items():
            dh = _perm_diagram(r, l, h)
            fixed = 0
            for d in basis:
                p1, e1 = compose(dg, d)
                p2, e2 = compose(p1, dh)
                assert not any(e1) and not any(e2)
                fixed += p2 == d
            total = total + cg * ch * fixed
    return as_integer(total)


@pytest.mark.parametrize("r, maxweight", [(1, 2), (2, 2), (3, 1)])
def test_cartan_entry_matches_the_compose_oracle(r, maxweight):
    labels = [lam for w in range(maxweight + 1) for lam in multipartitions(r, w)]
    for lam in labels:
        for mu in labels:
            assert cartan_entry(r, lam, mu) == cartan_entry_by_compose(r, lam, mu)


def cartan_entry_by_basis_map(r, lam_bar, mu_bar):
    """The idempotent sum over basis-permutation tables, kept as the oracle:
    each g in eps_mu and each h in eps_lam permutes the downward basis, and
    sum_{g,h} eps_mu[g] eps_lam[h] #{d : g d h = d} is the trace of the
    bi-projection."""
    l, m = weight(lam_bar), weight(mu_bar)
    basis = downward_basis(r, m, l)
    if not basis:
        return 0
    index = {d: j for j, d in enumerate(basis)}
    rights = []
    for h, ch in primitive_idempotent(r, lam_bar).items():
        dh = _perm_diagram(r, l, h)
        rights.append((ch, basis_map(index, (compose(d, dh) for d in basis))))
    total = CycNumber.zero(r)
    for g, cg in primitive_idempotent(r, mu_bar).items():
        dg = _perm_diagram(r, m, g)
        left = basis_map(index, (compose(dg, d) for d in basis))
        for ch, right in rights:
            fixed = sum(1 for j, i in enumerate(left) if right[i] == j)
            if fixed:
                total = total + cg * ch * fixed
    return as_integer(total)


@pytest.mark.parametrize("r, maxweight", [(1, 3), (2, 2), (3, 2)])
def test_cartan_class_sums_match_the_idempotent_oracle(r, maxweight):
    labels = [lam for w in range(maxweight + 1) for lam in multipartitions(r, w)]
    for lam in labels:
        for mu in labels:
            assert cartan_entry(r, lam, mu) == cartan_entry_by_basis_map(r, lam, mu)


@pytest.mark.parametrize("r, maxweight", [(1, 6), (2, 4), (3, 3), (5, 2)])
def test_cartan_entries_equal_the_cyc_number_class_sum(monkeypatch, r, maxweight):
    # the reduction by Phi_r runs where phi(r) >= 2: at r = 3 from degree
    # 2, at r = 5 (phi = 4) from degrees 6, 5 and 4
    labels = [lam for w in range(maxweight + 1) for lam in multipartitions(r, w)]
    pairs = list(product(labels, repeat=2))
    values = [cartan_entry.__wrapped__(r, lam, mu) for lam, mu in pairs]
    monkeypatch.setattr(MR, "_class_sum", class_sum_by_cyc_numbers)
    assert [cartan_entry.__wrapped__(r, lam, mu) for lam, mu in pairs] == values


def cartan_fixed_points_by_compose(r, m, l):
    """The class-summed fixed-point table built from the downward basis,
    kept as the oracle: one representative per class permutes the basis by
    composition, and g d h = d is read off the two index maps."""
    basis = downward_basis(r, m, l)
    index = {d: j for j, d in enumerate(basis)}
    reps_m, sizes_m, _ = wreath_char_table(r, m)
    reps_l, sizes_l, _ = wreath_char_table(r, l)
    rights = []
    for T, h in reps_l.items():
        dh = _perm_diagram(r, l, h)
        rights.append((T, sizes_l[T], basis_map(index, (compose(d, dh) for d in basis))))
    table = {}
    for S, g in reps_m.items():
        dg = _perm_diagram(r, m, g)
        left = basis_map(index, (compose(dg, d) for d in basis))
        for T, size, right in rights:
            fixed = sum(1 for j, i in enumerate(left) if right[i] == j)
            if fixed:
                table[S, T] = fixed * sizes_m[S] * size
    return table


def test_cartan_fixed_points_match_the_compose_oracle():
    # every class pair at r <= 2, m <= l <= 4 and at r = 3, m <= l <= 3;
    # a top cycle's color enters the orbit sum with a sign only r = 3 sees
    cases = [(r, l) for r in (1, 2) for l in range(5)] + [(3, l) for l in range(4)]
    pairs = 0
    for r, l in cases:
        for m in range(l + 1):
            table = MR._cartan_fixed_points(r, m, l)
            assert dict(table) == cartan_fixed_points_by_compose(r, m, l)
            pairs += len(wreath_char_table(r, m)[1]) * len(wreath_char_table(r, l)[1])
    assert pairs == 1979


def test_cartan_specific_entries():
    assert cartan_entry(2, ((1,), ()), ((), ())) == 1
    assert cartan_entry(2, ((1,), ()), ((1,), ())) == 1
    assert cartan_entry(2, ((), ()), ((1,), ())) == 0  # weight increases


def test_gram_matrix_rejects_a_product_outside_e_i_form(monkeypatch):
    # a join whose anchors do not pair off: tau sends both 1' and 2' to 1
    join = MR._join

    def unpaired(half, half2):
        out = join(half, half2)
        return out and ((1,) * len(out[0]), out[1])

    monkeypatch.setattr(MR, "_join", unpaired)
    with pytest.raises(RuntimeError, match="e_i form"):
        gram_matrix(2, 2, ((1,), (1,)))


def test_gram_matrix_rejects_a_product_outside_e_i_form_under_O():
    script = ("from colorpart import modules_rep as MR\n"
              "join = MR._join\n"
              "MR._join = lambda h, h2: (lambda out: out and ((1,) * len(out[0]), out[1]))"
              "(join(h, h2))\n"
              "try:\n"
              "    MR.gram_matrix(2, 2, ((1,), (1,)))\n"
              "except RuntimeError as exc:\n"
              "    print(exc)\n")
    src = os.path.dirname(os.path.dirname(MR.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "e_i form" in proc.stdout


def test_gram_matrix_rejects_a_wrong_size(monkeypatch):
    # a cross-section that lost a diagram, against the cell dimension
    # cached from the whole one
    r, k, lam_bar = 2, 2, ((1,), ())
    cell_dimension(r, k, lam_bar)
    cross_section = MR.enumerate_cross_section
    monkeypatch.setattr(MR, "enumerate_cross_section",
                        lambda r, k, i: cross_section(r, k, i)[:-1])
    with pytest.raises(RuntimeError, match="cell dimension"):
        gram_matrix(r, k, lam_bar)


def test_cartan_entry_rejects_an_irrational_value(monkeypatch):
    # every value 1 + zeta_3: the entry at weights 0 is (1 + zeta)^2 = zeta,
    # whose rational coordinate 0 alone would pass as an integer
    one_plus_zeta = CycNumber.one(3) + zeta_pow(3, 1)

    def table(r, n):
        reps, sizes, values = wreath_char_table(r, n)
        return reps, sizes, {lam: dict.fromkeys(row, one_plus_zeta) for lam, row in values.items()}

    monkeypatch.setattr(MR, "wreath_char_table", table)
    with pytest.raises(ArithmeticError, match="non-negative integer: 1\\*z$"):
        cartan_entry.__wrapped__(3, ((), (), ()), ((), (), ()))


def test_cartan_entry_rejects_a_non_integer(monkeypatch):
    def halved(r, n):
        reps, sizes, table = wreath_char_table(r, n)
        return reps, sizes, {lam: {t: c * Fraction(1, 2) for t, c in row.items()}
                             for lam, row in table.items()}

    monkeypatch.setattr(MR, "wreath_char_table", halved)
    with pytest.raises(ArithmeticError, match="non-negative integer"):
        cartan_entry.__wrapped__(2, ((1,), ()), ((1,), ()))
