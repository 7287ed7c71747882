"""Cell modules, Gram matrices, semisimplicity and the Cartan matrix."""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

from colorpart import modules_rep as MR
from colorpart.characters import (
    class_type,
    g_elements,
    g_identity,
    ginv,
    gmul,
    multipartitions,
    pinv,
    weight,
    wreath_char_table,
)
from colorpart.diagrams import ColoredDiagram, compose, count_bell, enumerate_diagrams
from colorpart.modules_rep import (
    _module_basis,
    _phi_table,
    _specht_data,
    build_matrix_rep,
    cartan_entry,
    cartan_matrix,
    cartan_tensor_check,
    cell_dimension,
    det_bareiss,
    enumerate_cross_section,
    factor_cross_section,
    gram_det,
    gram_matrix,
    semisimplicity_certificate,
    specht_dim,
    specht_matrix,
)
from colorpart.scalars import CycNumber, MPoly, zeta_pow
from colorpart.verify import GRAM_K1_R2


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


def specht_matrix_by_solve(lam, perm):
    """The original Specht matrix, kept as the oracle: each column solves
    the tall system of standard polytabloids over all tabloids."""
    std = MR.standard_tableaux(lam)
    vecs = [MR._polytabloid(t) for t in std]
    tabloids = sorted({tb for v in vecs for tb in v}, key=repr)
    index = {tb: i for i, tb in enumerate(tabloids)}
    matrix = [[Fraction(vecs[j].get(tb, 0)) for j in range(len(std))] for tb in tabloids]
    out = []
    for t in std:
        rhs = [Fraction(0)] * len(index)
        for tb, c in MR._polytabloid(MR._apply_perm(t, perm)).items():
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
    lam, perm = (2, 1), (2, 3, 1)
    _specht_data(lam)  # the standard polytabloids stay unpatched
    real = MR._polytabloid
    monkeypatch.setattr(MR, "_polytabloid",
                        lambda t: {**real(t), (frozenset({99}),): 1})
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


def induced_matrix(rep, g):
    """The full dim x dim matrix of g on the induced module, kept as the
    oracle for MatrixRep.column."""
    r, d = rep.r, rep.dim
    m = [[CycNumber.zero(r) for _ in range(d)] for _ in range(d)]
    for c, t in enumerate(rep.coset_reps):
        gt = gmul(r, g, t)
        c2 = rep.elem_coset[gt]
        h = gmul(r, ginv(r, rep.coset_reps[c2]), gt)
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


@pytest.mark.parametrize("r, lam_bar", [
    (2, ((1,), (1,))), (3, ((), (1,), ())), (1, ((2, 1),)), (2, ((2, 1), ()))])
def test_column_is_the_first_column_of_the_induced_matrix(r, lam_bar):
    rep = build_matrix_rep(r, lam_bar)
    for g in g_elements(r, rep.n):
        assert rep.column(g) == [row[0] for row in induced_matrix(rep, g)]


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
    """The original phi table, kept as the oracle: the identity coefficient
    of eps z eps, sum_g eps_g eps_{(gz)^-1}, over that of eps."""
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
    for lam_bar in multipartitions(r, n):
        assert _phi_table(r, lam_bar) == phi_table_by_convolution(r, lam_bar)


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


def test_bareiss_determinant_against_cofactors():
    y0, y1 = MPoly.variable(2, 0), MPoly.variable(2, 1)
    M = [
        [y0, y1, MPoly.one(2)],
        [y1, y0, MPoly.zero(2)],
        [MPoly.one(2), MPoly.zero(2), y0],
    ]
    expected = y0 * (y0 * y0 - y1 * y1) - y0  # expand along the last row
    assert det_bareiss(M, 2) == expected


def test_dimension_identity():
    for r in (1, 2, 3):
        for k in (0, 1, 2):
            total = sum(
                cell_dimension(r, k, lam_bar) ** 2
                for i in range(k + 1)
                for lam_bar in multipartitions(r, i)
            )
            assert total == count_bell(2 * k, r)


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


def cartan_entry_by_compose(r, lam_bar, mu_bar):
    """The original triple loop, kept as the oracle: for every pair (g, h)
    and every basis diagram d, compose g*d*h and test it against d."""
    l, m = weight(lam_bar), weight(mu_bar)
    basis = MR._downward_basis(r, m, l)
    if not basis:
        return 0
    total = CycNumber.zero(r)
    for g, cg in primitive_idempotent(r, mu_bar).items():
        dg = MR._perm_diagram(r, m, g)
        for h, ch in primitive_idempotent(r, lam_bar).items():
            dh = MR._perm_diagram(r, l, h)
            fixed = 0
            for d in basis:
                p1, e1 = compose(dg, d)
                p2, e2 = compose(p1, dh)
                assert not any(e1) and not any(e2)
                fixed += p2 == d
            total = total + cg * ch * fixed
    return total.as_integer()


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
    basis = MR._downward_basis(r, m, l)
    if not basis:
        return 0
    index = {d: j for j, d in enumerate(basis)}
    rights = []
    for h, ch in primitive_idempotent(r, lam_bar).items():
        dh = MR._perm_diagram(r, l, h)
        rights.append((ch, MR._basis_map(index, (compose(d, dh) for d in basis))))
    total = CycNumber.zero(r)
    for g, cg in primitive_idempotent(r, mu_bar).items():
        dg = MR._perm_diagram(r, m, g)
        left = MR._basis_map(index, (compose(dg, d) for d in basis))
        for ch, right in rights:
            fixed = sum(1 for j, i in enumerate(left) if right[i] == j)
            if fixed:
                total = total + cg * ch * fixed
    return total.as_integer()


@pytest.mark.parametrize("r, maxweight", [(1, 3), (2, 2), (3, 2)])
def test_cartan_class_sums_match_the_idempotent_oracle(r, maxweight):
    labels = [lam for w in range(maxweight + 1) for lam in multipartitions(r, w)]
    for lam in labels:
        for mu in labels:
            assert cartan_entry(r, lam, mu) == cartan_entry_by_basis_map(r, lam, mu)


def test_cartan_specific_entries():
    assert cartan_entry(2, ((1,), ()), ((), ())) == 1
    assert cartan_entry(2, ((1,), ()), ((1,), ())) == 1
    assert cartan_entry(2, ((), ()), ((1,), ())) == 0  # weight increases


def test_gram_matrix_rejects_a_product_outside_e_i_form(monkeypatch):
    # at r=2, k=1, rank 0 a top block coloured 1 is not e_0-padded
    colored = next(d for d in enumerate_cross_section(2, 1, 0)
                   if any(c for _, _, c in d.blocks))
    monkeypatch.setattr(MR, "factor_cross_section", lambda d, i: (colored, ((), ())))
    with pytest.raises(RuntimeError, match="e_i form"):
        gram_matrix(2, 1, ((), ()))


def test_gram_matrix_rejects_a_wrong_size(monkeypatch):
    basis = MR._module_basis
    monkeypatch.setattr(MR, "_module_basis", lambda r, lam: basis(r, lam)[:-1])
    with pytest.raises(RuntimeError, match="cell dimension"):
        gram_matrix(2, 1, ((1,), ()))


def test_module_basis_rejects_columns_that_do_not_span(monkeypatch):
    monkeypatch.setattr(MR.MatrixRep, "column",
                        lambda self, g: [CycNumber.zero(self.r)] * self.dim)
    with pytest.raises(RuntimeError, match="do not span"):
        _module_basis(2, ((1,), ()))


@pytest.fixture
def fresh_cartan_tables():
    """Clear the fixed-point tables around a test that patches compose, so
    it builds its own table and leaves no table built from the patch."""
    MR._cartan_fixed_points.cache_clear()
    yield
    MR._cartan_fixed_points.cache_clear()


def test_cartan_entry_rejects_a_closed_loop(monkeypatch, fresh_cartan_tables):
    def compose_with_loop(d1, d2):
        prod, exps = compose(d1, d2)
        return prod, (1,) + tuple(exps[1:])

    monkeypatch.setattr(MR, "compose", compose_with_loop)
    with pytest.raises(RuntimeError, match="loop"):
        cartan_entry.__wrapped__(2, ((1,), ()), ((1,), ()))


def test_cartan_entry_rejects_a_product_outside_the_basis(monkeypatch, fresh_cartan_tables):
    outside = next(enumerate_diagrams(2, 1, 1))
    assert outside not in MR._downward_basis(2, 0, 1)
    monkeypatch.setattr(MR, "compose", lambda d1, d2: (outside, ()))
    with pytest.raises(RuntimeError, match="downward basis"):
        cartan_entry.__wrapped__(2, ((1,), ()), ((), ()))


def test_cartan_entry_rejects_a_non_integer(monkeypatch):
    def halved(r, n):
        reps, sizes, table = wreath_char_table(r, n)
        return reps, sizes, {lam: {t: c * Fraction(1, 2) for t, c in row.items()}
                             for lam, row in table.items()}

    monkeypatch.setattr(MR, "wreath_char_table", halved)
    with pytest.raises(RuntimeError, match="non-negative integer"):
        cartan_entry.__wrapped__(2, ((1,), ()), ((1,), ()))
