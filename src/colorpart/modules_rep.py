"""Cell modules over the colored partition algebra.

The cell module W(lam_bar) at rank i = |lam_bar| has basis S(k,i) x (basis
of the wreath irreducible S(lam_bar)).  S(k,i) is the cross-section of
normally ordered rank-i (k,k)-diagrams; a rank-preserving product d*d1
factors uniquely as d2*g with d2 in S(k,i) and g in G(r,i), which drives
the action, the symbolic Gram matrices, and the semisimplicity certificate.
Wreath irreducibles are induced modules from Specht matrices (standard
polytabloid basis, straightened by peeling the standard tabloids in
dominance order, small n only); only the first column rho(g) e_1 of each
element is ever formed.  The Gram scalar phi(z), eps z eps = phi(z) eps
for the primitive idempotent eps, is the matrix coefficient rho(z)_11.

Cartan entries are computed by class sums: the downward (m,l) diagram
basis carries a G(r,m) x G(r,l) bi-action by place permutation, and
dim eps_mu * M * eps_lam is the multiplicity of S(mu) x S(lam) in it, read
off one class-summed fixed-point table per (r, m, l) and two rows of the
wreath character tables.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from types import MappingProxyType

from .characters import (
    _block_subgroup,
    g_elements,
    ginv,
    gmul,
    multipartitions,
    pinv,
    weight,
    wreath_char_table,
)
from .diagrams import ColoredDiagram, compose, count_bell, enumerate_diagrams, flip_invert, set_partitions
from .scalars import CycNumber, MPoly, zeta_pow


# -- Specht matrices -----------------------------------------------------------


@lru_cache(maxsize=None)
def standard_tableaux(lam):
    """All standard Young tableaux of shape lam (tuples of row tuples)."""
    n = sum(lam)
    if n == 0:
        return (((),) * len(lam) if lam else (),)
    out = []

    def rec(rows, v):
        if v > n:
            out.append(tuple(tuple(row) for row in rows))
            return
        for i in range(len(lam)):
            if len(rows[i]) < lam[i] and (i == 0 or len(rows[i]) < len(rows[i - 1])):
                rows[i].append(v)
                rec(rows, v + 1)
                rows[i].pop()

    rec([[] for _ in lam], 1)
    return tuple(out)


def _columns(t):
    width = max((len(row) for row in t), default=0)
    return [
        [row[j] for row in t if len(row) > j] for j in range(width)
    ]


def _tabloid(t):
    return tuple(frozenset(row) for row in t)


def _polytabloid(t):
    """e_t as a dict tabloid -> int (column antisymmetrization)."""
    cols = _columns(t)
    vec = {}
    for perms in product(*[permutations(col) for col in cols]):
        sign = 1
        sub = {}
        for col, img in zip(cols, perms):
            inv = 0
            img = list(img)
            for a in range(len(img)):
                for b in range(a + 1, len(img)):
                    if col.index(img[a]) > col.index(img[b]):
                        inv += 1
            sign *= (-1) ** inv
            for src, dst in zip(col, img):
                sub[src] = dst
        rows = _tabloid((sub.get(v, v) for v in row) for row in t)
        vec[rows] = vec.get(rows, 0) + sign
    return {k: v for k, v in vec.items() if v}


def _row_word(t):
    """The row index of each of 1..n in t.  If {s} strictly dominates {t},
    the word of s is lexicographically smaller."""
    row_of = {v: i for i, row in enumerate(t) for v in row}
    return tuple(row_of[v] for v in sorted(row_of))


@lru_cache(maxsize=None)
def _specht_data(lam):
    """The standard tableaux of lam, and the peeling order: (index j, {s},
    e_s) for each standard s = std[j], the smallest row word first."""
    std = standard_tableaux(lam)
    order = sorted(range(len(std)), key=lambda j: _row_word(std[j]))
    return std, tuple((j, _tabloid(std[j]), _polytabloid(std[j])) for j in order)


def _apply_perm(t, perm):
    return tuple(tuple(perm[v - 1] for v in row) for row in t)


@lru_cache(maxsize=None)
def specht_matrix(lam, perm):
    """Matrix of perm on the Specht module of shape lam, standard basis.

    Column j holds the coordinates of perm e_t = e_{perm t}, t = std[j],
    found by straightening: e_s has coefficient 1 at {s} and is otherwise
    supported on tabloids that {s} dominates, so peeling the standard s in
    dominance order reads each coordinate off as the coefficient of {s}
    in what is left.  The coordinates are ints."""
    std, peel = _specht_data(lam)
    out = []
    for t in std:
        vec = _polytabloid(_apply_perm(t, perm))
        coords = [0] * len(std)
        for j, tb, e in peel:
            c = vec.get(tb)
            if c:
                coords[j] = c
                for key, v in e.items():
                    vec[key] = vec.get(key, 0) - c * v
        if any(vec.values()):
            raise ArithmeticError("a polytabloid is outside the span of the standard basis")
        out.append(coords)
    # out[j] = coordinates of perm . e_{std[j]}; columns of the matrix
    return tuple(tuple(col[i] for col in out) for i in range(len(std)))


def specht_dim(lam):
    return len(standard_tableaux(lam))


# -- wreath product matrix representations -------------------------------------


class MatrixRep:
    """Matrix model of the G(r,n)-irreducible labeled by a multipartition.

    Induced from the block subgroup G(r,k_0) x ... x G(r,k_{r-1}) acting by
    color characters times Specht matrices; only first columns are formed.
    """

    def __init__(self, r, lam_bar):
        self.r = r
        self.lam_bar = tuple(tuple(lam) for lam in lam_bar)
        self.n = weight(lam_bar)
        self.blocks, self.h_elements = _block_subgroup(
            r, tuple(sum(lam) for lam in lam_bar))
        elements = g_elements(r, self.n)
        # coset decomposition G = union t_c H
        self.coset_reps = []
        self.elem_coset = {}
        for g in elements:
            if g in self.elem_coset:
                continue
            c = len(self.coset_reps)
            self.coset_reps.append(g)
            for h in self.h_elements:
                self.elem_coset[gmul(r, g, h)] = c
        self.base_dim = 1
        for lam in self.lam_bar:
            self.base_dim *= specht_dim(lam)
        self.dim = len(self.coset_reps) * self.base_dim

    def column(self, g):
        """rho(g) e_1, the first column of g's matrix.  With g = t_c h, it
        is theta(h) e_1 in coset block c (t_0 is the identity): the color
        scalar times the Kronecker product of the Specht first columns."""
        r = self.r
        c = self.elem_coset[g]
        f, tau = gmul(r, ginv(r, self.coset_reps[c]), g)
        phase = 0
        col = [1]
        for j, blk in enumerate(self.blocks):
            phase += j * sum(f[v - 1] for v in blk)
            off = blk[0] - 1 if blk else 0
            local = tuple(tau[off + v - 1] - off for v in range(1, len(blk) + 1))
            first = [row[0] for row in specht_matrix(self.lam_bar[j], local)]
            col = [a * b for a in col for b in first]
        scal = zeta_pow(r, phase % r)
        zero = CycNumber.zero(r)
        out = [zero] * self.dim
        out[c * self.base_dim:(c + 1) * self.base_dim] = [
            scal * x if x else zero for x in col]
        return out


@lru_cache(maxsize=None)
def build_matrix_rep(r, lam_bar):
    return MatrixRep(r, lam_bar)


@lru_cache(maxsize=None)
def _phi_table(r, lam_bar):
    """phi(z) with eps z eps = phi(z) eps, for the primitive idempotent
    eps = (dim/|G|) sum_g rho(g^-1)_11 g.  By Schur orthogonality
    phi(z) = rho(z)_11, a matrix coefficient; no group-algebra element is
    formed."""
    rep = build_matrix_rep(r, lam_bar)
    return {z: rep.column(z)[0] for z in g_elements(r, rep.n)}


# -- cross-sections and factorization ------------------------------------------


def enumerate_cross_section(r, k, i):
    """All elements of S(k,i): normally ordered rank-i (k,k)-diagrams with
    trivially colored propagating parts anchored at 1'..i', arbitrarily
    colored nonpropagating top parts, trivial bottom singletons."""
    if not 0 <= i <= k:
        raise ValueError("need 0 <= i <= k")
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
                blocks = base + [
                    (b, (), c) for b, c in zip(others, colors)
                ]
                out.append(ColoredDiagram(r, k, k, blocks))
    return out


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


# -- Gram matrices and semisimplicity -------------------------------------------


def _module_basis(r, lam_bar):
    """Group elements g_a whose first rep columns are independent; coset
    representatives first (for induced reps with one-dimensional base this
    makes the weight-n Gram block the identity)."""
    rep = build_matrix_rep(r, lam_bar)
    reps = set(rep.coset_reps)
    candidates = rep.coset_reps + [g for g in g_elements(r, rep.n) if g not in reps]
    chosen = []
    rows = []  # reduced echelon rows of first columns

    def reduce(vec):
        for lead, row in rows:
            if vec[lead]:
                c = vec[lead]
                vec = [a - c * b for a, b in zip(vec, row)]
        return vec

    for g in candidates:
        red = reduce(rep.column(g))
        lead = next((j for j, a in enumerate(red) if a), None)
        if lead is None:
            continue
        inv = red[lead].inverse()
        rows.append((lead, [a * inv for a in red]))
        chosen.append(g)
        if len(chosen) == rep.dim:
            return chosen
    raise RuntimeError("first columns do not span the representation")


def gram_matrix(r, k, lam_bar):
    """Symbolic Gram matrix of the cell module W(lam_bar) at rank i = |lam_bar|
    inside CPar_k; entries are MPoly in y_0..y_{r-1}."""
    lam_bar = tuple(tuple(lam) for lam in lam_bar)
    i = weight(lam_bar)
    if i > k:
        raise ValueError("weight exceeds k")
    cs = enumerate_cross_section(r, k, i)
    gs = _module_basis(r, lam_bar)
    phi = _phi_table(r, lam_bar)
    rows = []
    for d in cs:
        di = flip_invert(d)
        for a in gs:
            row = []
            ai = ginv(r, a)
            for dp in cs:
                prod, exps = compose(di, dp)
                if prod.rank() != i:
                    row.extend([MPoly.zero(r)] * len(gs))
                    continue
                d2, g = factor_cross_section(prod, i)
                # the product must be e_i-padded: d2 is the identity element
                if not all(
                    top == bot
                    or (not top and len(bot) == 1 and c == 0)
                    or (not bot and len(top) == 1 and c == 0)
                    for top, bot, c in d2.blocks
                ):
                    raise RuntimeError("rank-i product not in e_i form: %r" % (prod,))
                row.extend(MPoly.monomial(r, exps, phi[gmul(r, gmul(r, ai, g), b)])
                           for b in gs)
            rows.append(row)
    if len(rows) != cell_dimension(r, k, lam_bar):
        raise RuntimeError("Gram matrix has %d rows, not the cell dimension" % len(rows))
    return rows


def det_bareiss(M, r):
    """Fraction-free determinant of a square MPoly matrix.  Each step
    divides exactly by the previous pivot, unless that pivot is 1."""
    n = len(M)
    if n == 0:
        return MPoly.one(r)
    M = [list(row) for row in M]
    one = prev = MPoly.one(r)
    sign = 1
    for t in range(n - 1):
        if not M[t][t]:
            p = next((s for s in range(t + 1, n) if M[s][t]), None)
            if p is None:
                return MPoly.zero(r)
            M[t], M[p] = M[p], M[t]
            sign = -sign
        unit = prev == one
        for s in range(t + 1, n):
            for j in range(t + 1, n):
                v = M[t][t] * M[s][j] - M[s][t] * M[t][j]
                M[s][j] = v if unit else v.divexact(prev)
            M[s][t] = MPoly.zero(r)
        prev = M[t][t]
    det = M[n - 1][n - 1]
    return -det if sign < 0 else det


@lru_cache(maxsize=None)
def gram_det(r, k, lam_bar):
    return det_bareiss(gram_matrix(r, k, lam_bar), r)


@lru_cache(maxsize=None)
def cell_dimension(r, k, lam_bar):
    i = weight(lam_bar)
    return len(enumerate_cross_section(r, k, i)) * build_matrix_rep(r, lam_bar).dim


def semisimplicity_certificate(r, k, x):
    """Evaluate every Gram determinant at the parameter point x; semisimple
    iff all are nonzero.  Also checks sum over cells of (dim W)^2 = B_{2k,r}."""
    x = tuple(Fraction(v) for v in x)
    if len(x) != r:
        raise ValueError("parameter point needs %d coordinates" % r)
    if not any(x):
        raise ValueError("some parameter must be nonzero")
    dets = {}
    dim_sq = 0
    semisimple = True
    for i in range(k + 1):
        for lam_bar in multipartitions(r, i):
            det = gram_det(r, k, lam_bar)
            val = det.eval(x)
            dets[lam_bar] = (det, val)
            if not val:
                semisimple = False
            dim_sq += cell_dimension(r, k, lam_bar) ** 2
    bell = count_bell(2 * k, r)
    return {
        "r": r,
        "k": k,
        "x": x,
        "semisimple": semisimple,
        "dets": dets,
        "dimension_identity": dim_sq == bell,
        "sum_dim_sq": dim_sq,
        "bell": bell,
    }


# -- Cartan matrix ---------------------------------------------------------------


@lru_cache(maxsize=None)
def _downward_basis(r, m, l):
    return tuple(d for d in enumerate_diagrams(r, m, l) if d.is_downward())


def _perm_diagram(r, n, g):
    f, tau = g
    ti = pinv(tau)
    return ColoredDiagram(
        r, n, n, [((v,), (ti[v - 1],), f[v - 1]) for v in range(1, n + 1)]
    )


def _basis_map(index, products):
    """The index map j -> index(p_j) of a permutation diagram acting on one
    side of the downward basis, given the products (p_j, exps_j) in basis
    order."""
    out = []
    for prod, exps in products:
        if any(exps):
            raise RuntimeError("a permutation diagram closed a loop")
        j = index.get(prod)
        if j is None:
            raise RuntimeError("a permutation diagram left the downward basis")
        out.append(j)
    return out


@lru_cache(maxsize=None)
def _cartan_fixed_points(r, m, l):
    """Fixed-point counts #{d : g d h = d} on the downward (m,l) basis of
    G(r,m) (left) x G(r,l) (right) times both class sizes, a read-only map
    keyed by pairs of class types; zero counts are left out.

    The count is a class function on each side, so one representative per
    class (from wreath_char_table) stands for its class.  Permutation
    diagrams keep rank and arity, so each representative permutes the
    basis; its index map is built once and g d h = d is read off the two
    index maps."""
    basis = _downward_basis(r, m, l)
    index = {d: j for j, d in enumerate(basis)}
    reps_m, sizes_m, _ = wreath_char_table(r, m)
    reps_l, sizes_l, _ = wreath_char_table(r, l)
    rights = []
    for T, h in reps_l.items():
        dh = _perm_diagram(r, l, h)
        right = _basis_map(index, (compose(d, dh) for d in basis))
        rights.append((T, sizes_l[T], right))
    table = {}
    for S, g in reps_m.items():
        dg = _perm_diagram(r, m, g)
        left = _basis_map(index, (compose(dg, d) for d in basis))
        for T, size, right in rights:
            fixed = sum(1 for j, i in enumerate(left) if right[i] == j)
            if fixed:
                table[S, T] = fixed * sizes_m[S] * size
    return MappingProxyType(table)


@lru_cache(maxsize=None)
def cartan_entry(r, lam_bar, mu_bar):
    """Multiplicity dim eps_mu * (downward (m,l) span) * eps_lam, by class
    sums: sum_{S,T} chi_mu(S) chi_lam(T) fixed(S,T) / (|G(r,m)| |G(r,l)|)
    over the class-summed fixed points of the bi-action on the diagram
    basis.  Summing eps over a class gives chi(g^-1), the conjugate, on
    both sides; the sum is an integer, so neither character is
    conjugated."""
    lam_bar = tuple(tuple(x) for x in lam_bar)
    mu_bar = tuple(tuple(x) for x in mu_bar)
    l, m = weight(lam_bar), weight(mu_bar)
    _, sizes_m, table_m = wreath_char_table(r, m)
    _, sizes_l, table_l = wreath_char_table(r, l)
    chi_mu, chi_lam = table_m[mu_bar], table_l[lam_bar]
    total = CycNumber.zero(r)
    for (S, T), fixed in _cartan_fixed_points(r, m, l).items():
        total = total + chi_mu[S] * chi_lam[T] * fixed
    order = sum(sizes_m.values()) * sum(sizes_l.values())
    val = (total * Fraction(1, order)).as_rational()
    if val.denominator != 1 or val < 0:
        raise RuntimeError("Cartan entry is not a non-negative integer: %s" % val)
    return int(val)


def cartan_matrix(r, maxweight):
    """All entries for multipartition pairs of weight <= maxweight."""
    labels = [
        lam for w in range(maxweight + 1) for lam in multipartitions(r, w)
    ]
    return labels, {
        (lam, mu): cartan_entry(r, lam, mu) for lam in labels for mu in labels
    }


def cartan_tensor_check(maxweight, r):
    """Entrywise B_r = B_1 tensor ... tensor B_1 on total weight <= maxweight."""
    labels, big = cartan_matrix(r, maxweight)
    for lam in labels:
        for mu in labels:
            prod = 1
            for li, mi in zip(lam, mu):
                prod *= cartan_entry(1, (li,), (mi,))
                if not prod:
                    break
            if big[(lam, mu)] != prod:
                return False
    return True
