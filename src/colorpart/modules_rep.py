"""Cell modules over the colored partition algebra.

The cell module W(lam_bar) at rank i = |lam_bar| has basis S(k,i) x (basis
of the wreath irreducible S(lam_bar)).  S(k,i) is the cross-section of
normally ordered rank-i (k,k)-diagrams; a rank-preserving product d*d1
factors uniquely as d2*g with d2 in S(k,i) and g in G(r,i), which drives
the action and the symbolic Gram matrices.
Wreath irreducibles are induced modules from Specht matrices (standard
polytabloid basis, straightened by peeling the standard tabloids in
dominance order, small n only); a coset of the block subgroup is named by
the image of each block, so the block subgroup is never listed.  A Gram
entry is y^e rho(g)_ab, a matrix entry of a group element in that
standard basis.  Its product flip_invert(d) d' is never composed: g and
y^e are read off the join of the top halves of d and d' at the middle
vertices, one union-find per pair of uncolored halves.

A certificate takes no multivariate determinant: in the basis of color
idempotents CPar(x) is r partition categories side by side, so each Gram
determinant is a product of r = 1 factors (_label_factors), and its value
at a point is a product of powers of linear forms yhat_{-j} - r a.

Cartan entries are class sums: dim eps_mu * M * eps_lam is the
multiplicity of S(mu) x S(lam) in the span of the downward (m,l) diagrams
under G(r,m) x G(r,l), read off two character rows and one class-summed
fixed-point table per (r, m, l), each count read off the two cycle types.
"""

from functools import lru_cache
from itertools import accumulate, combinations, permutations, product
from math import factorial, prod

from .characters import (
    _class_sum,
    _class_table,
    ginv,
    gmul,
    multipartitions,
    weight,
    wreath_char_table,
)
from .diagrams import _sort_blocks, count_bell, set_partitions
from .scalars import CycNumber, MPoly, _exact, zeta_pow


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
    return [[row[j] for row in t if len(row) > j] for j in range(max(map(len, t), default=0))]


def _tabloid(t):
    return tuple(frozenset(row) for row in t)


def _polytabloid(t):
    """e_t as a dict tabloid -> int (column antisymmetrization)."""
    cols = _columns(t)
    vec = {}
    for perms in product(*[permutations(col) for col in cols]):
        sub = {src: dst for col, img in zip(cols, perms) for src, dst in zip(col, img)}
        # the sign of the column permutation: (-1)^(its inversions)
        sign = (-1) ** sum(col.index(a) > col.index(b) for col, img in zip(cols, perms)
                           for a, b in combinations(img, 2))
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
    """The standard tableaux std of lam, their polytabloids e_{std[j]}, and
    the peeling order: (index j, {std[j]}), the smallest row word first."""
    std = standard_tableaux(lam)
    order = sorted(range(len(std)), key=lambda j: _row_word(std[j]))
    return (std, tuple(_polytabloid(t) for t in std),
            tuple((j, _tabloid(std[j])) for j in order))


@lru_cache(maxsize=None)
def specht_matrix(lam, perm):
    """Matrix of perm on the Specht module of shape lam, standard basis.

    Column j holds the coordinates of perm e_t = e_{perm t}, t = std[j]:
    perm applied to every tabloid of the cached e_t.  They are found by
    straightening: e_s has coefficient 1 at {s} and is otherwise supported
    on tabloids that {s} dominates, so peeling the standard s in dominance
    order reads each coordinate off as the coefficient of {s} in what is
    left.  The coordinates are ints."""
    std, polys, peel = _specht_data(lam)
    out = []
    for e_t in polys:
        vec = {tuple(frozenset(perm[v - 1] for v in row) for row in tb): c
               for tb, c in e_t.items()}
        coords = [0] * len(std)
        for j, tb in peel:
            c = vec.get(tb)
            if c:
                coords[j] = c
                for key, v in polys[j].items():
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
    color characters times Specht matrices; the standard basis is the
    coset blocks times the Specht standard polytabloids.  A coset gH is
    the image of each block under g, and its rep, its first element in
    g_elements order, has colors 0 and maps each block increasingly.
    """

    def __init__(self, r, lam_bar):
        self.r = r
        self.lam_bar = tuple(tuple(lam) for lam in lam_bar)
        self.n = weight(lam_bar)
        ends = tuple(accumulate(map(sum, self.lam_bar), initial=0))
        self.blocks = blocks = tuple(tuple(range(a + 1, b + 1)) for a, b in zip(ends, ends[1:]))
        self.coset_reps = [((0,) * self.n, p) for p in permutations(range(1, self.n + 1))
                           if all(p[v - 1] < p[v] for blk in blocks for v in blk[:-1])]
        self._coset_of = {p: c for c, (_, p) in enumerate(self.coset_reps)}
        self.base_dim = prod(map(specht_dim, self.lam_bar))
        self.dim = len(self.coset_reps) * self.base_dim

    def matrix(self, g):
        """rho(g) in the standard basis.  With g t_c = t_c' h, block (c', c)
        is theta(h): the color scalar times the Kronecker product of the
        Specht matrices; every other block is zero."""
        r, size = self.r, self.base_dim
        zero = CycNumber.zero(r)
        out = [[zero] * self.dim for _ in range(self.dim)]
        for c, t in enumerate(self.coset_reps):
            gt = gmul(r, g, t)
            c2 = self._coset_of[tuple(v for blk in self.blocks
                                      for v in sorted(gt[1][u - 1] for u in blk))]
            f, tau = gmul(r, ginv(r, self.coset_reps[c2]), gt)
            phase = 0
            theta = [[1]]
            for j, blk in enumerate(self.blocks):
                phase += j * sum(f[v - 1] for v in blk)
                off = blk[0] - 1 if blk else 0
                local = tuple(tau[off + v - 1] - off for v in range(1, len(blk) + 1))
                spec = specht_matrix(self.lam_bar[j], local)
                theta = [[x * y for x in row for y in srow]
                         for row in theta for srow in spec]
            scal = zeta_pow(r, phase % r)
            for v, row in enumerate(theta):
                out[c2 * size + v][c * size:(c + 1) * size] = [
                    scal * x if x else zero for x in row]
        return tuple(tuple(row) for row in out)


@lru_cache(maxsize=None)
def build_matrix_rep(r, lam_bar):
    return MatrixRep(r, lam_bar)


# -- cross-sections ------------------------------------------------------------


@lru_cache(maxsize=None)
def enumerate_cross_section(r, k, i):
    """All elements of S(k,i), as a tuple: normally ordered rank-i
    (k,k)-diagrams with trivially colored propagating parts anchored at
    1'..i', arbitrarily colored nonpropagating top parts, trivial bottom
    singletons.  Each is built canonically once its blocks are sorted."""
    if r < 1 or not 0 <= i <= k:
        raise ValueError("need r >= 1 and 0 <= i <= k")
    out = []
    for part in set_partitions(range(1, k + 1)):
        if len(part) < i:
            continue
        part = [tuple(sorted(b)) for b in part]
        for chosen in combinations(range(len(part)), i):
            props = sorted(part[c] for c in chosen)
            others = [part[c] for c in range(len(part)) if c not in chosen]
            base = [(props[j], (j + 1,), 0) for j in range(i)]
            base += [((), (j,), 0) for j in range(i + 1, k + 1)]
            for colors in product(range(r), repeat=len(others)):
                out.append(_sort_blocks(r, k, k, base + [
                    (b, (), c) for b, c in zip(others, colors)]))
    return tuple(out)


# -- Gram matrices and semisimplicity -------------------------------------------


def _top_half(d):
    """((label, anchors), colors) of a cross-section element: label[v-1]
    numbers the top block of vertex v, and per top block, in block order,
    anchors holds its bottom vertex j in 1..i (0 if none) and colors its
    color, which does not change the block order."""
    label = [0] * d.k
    anchors, colors = [], []
    for top, bot, c in d.blocks:
        if top:
            for v in top:
                label[v - 1] = len(anchors)
            anchors.append(bot[0] if bot else 0)
            colors.append(c)
    return (tuple(label), tuple(anchors)), tuple(colors)


def _join(half, half2):
    """Join two uncolored top halves at the middle vertices 1..k, as
    flip_invert(d) d' does; None when the rank drops, as a component holds
    two anchors of one side or one anchor alone.  Otherwise (tau, comps):
    the component of the anchors a and b sets tau[b-1] = a, and comps is
    each component as (blocks of half, blocks of half2), those of the
    anchors a = 1..i first and the anchor-free ones, the loops, last."""
    (label, anchors), (label2, anchors2) = half, half2
    n = len(anchors)
    parent = list(range(n + len(anchors2)))

    def find(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for u, v in zip(label, label2):
        u, v = find(u), find(n + v)
        if u != v:
            parent[v] = u
    comps = {}
    for j in range(len(parent)):
        side = j >= n
        comps.setdefault(find(j), ([], []))[side].append(j - n if side else j)
    pairs, loops = [], []
    for blocks, blocks2 in comps.values():
        ends = [anchors[j] for j in blocks if anchors[j]]
        ends2 = [anchors2[j] for j in blocks2 if anchors2[j]]
        if not ends and not ends2:
            loops.append((blocks, blocks2))
        elif len(ends) != 1 or len(ends2) != 1:
            return None
        else:
            pairs.append((ends[0], ends2[0], (blocks, blocks2)))
    pairs.sort()
    tau = [0] * len(pairs)
    for a, b, _ in pairs:
        tau[b - 1] = a
    return tuple(tau), [comp for _, _, comp in pairs] + loops


def gram_matrix(r, k, lam_bar):
    """Symbolic Gram matrix of the cell module W(lam_bar) at rank i = |lam_bar|
    inside CPar_k; entries are MPoly in y_0..y_{r-1}.

    Rows are (d, a) and columns (d', b), for d, d' in S(k,i) and a, b
    indexing the standard basis of the G(r,i)-irreducible.  When
    flip_invert(d) d' keeps rank i it is y^e times the e_i-padded g, and
    the entry is y^e rho(g)_ab; it is 0 when the rank drops.  So row
    (d, .) holds the coordinates of flip(d) w in the rank-i quotient, the
    kernel is the radical of W(lam_bar), and the rank and the zero locus
    of the determinant are those of the cell form.  The matrix is
    symmetric only where the Specht dimension is 1; at r = 1 the form
    itself is (1 x Q) times it, Q the Gram matrix of the standard
    polytabloids.

    No diagram is composed: the product only glues the top halves of d
    and d' at the middle vertices.  The elements are grouped by uncolored
    top half, and each pair of halves is joined once (_join).  The rank
    stays i iff every component holding an anchor holds exactly one of
    each side; such a component pairs a with b, so tau(b) = a, and
    f(a) is the colors of its d' blocks minus those of its d blocks,
    mod r.  Each anchor-free component is a closed loop of that color and
    adds one to y^e."""
    lam_bar = tuple(tuple(lam) for lam in lam_bar)
    i = weight(lam_bar)
    if i > k:
        raise ValueError("weight exceeds k")
    cs = enumerate_cross_section(r, k, i)
    rep = build_matrix_rep(r, lam_bar)
    groups = {}
    for n, d in enumerate(cs):
        half, colors = _top_half(d)
        groups.setdefault(half, []).append((n, colors))
    perm = list(range(1, i + 1))
    # grid[n][n2] is the block of rows (cs[n], .) and columns (cs[n2], .),
    # shared by every pair with the same (y^e, g)
    zeros = [[MPoly.zero(r)] * rep.dim] * rep.dim
    grid = [[zeros] * len(cs) for _ in cs]
    entries = {}
    for half, members in groups.items():
        for half2, members2 in groups.items():
            join = _join(half, half2)
            if join is None:
                continue
            tau, comps = join
            if sorted(tau) != perm:
                raise RuntimeError("rank-i product not in e_i form: tau = %r" % (tau,))
            # the colors of each side summed per component
            sums2 = [(n2, [sum(colors2[j] for j in b2) for _, b2 in comps])
                     for n2, colors2 in members2]
            for n, colors in members:
                sums = [sum(colors[j] for j in b) for b, _ in comps]
                row = grid[n]
                for n2, s2 in sums2:
                    f = tuple((u2 - u) % r for u, u2 in zip(sums[:i], s2))
                    exps = [0] * r
                    for u, u2 in zip(sums[i:], s2[i:]):
                        exps[(u2 - u) % r] += 1
                    key = (tuple(exps), f, tau)
                    blk = entries.get(key)
                    if blk is None:
                        blk = entries[key] = [[MPoly.monomial(r, key[0], x) for x in m_row]
                                              for m_row in rep.matrix((f, tau))]
                    row[n2] = blk
    rows = [[x for blk in grid_row for x in blk[a]]
            for grid_row in grid for a in range(rep.dim)]
    if len(rows) != cell_dimension(r, k, lam_bar):
        raise RuntimeError("Gram matrix has %d rows, not the cell dimension" % len(rows))
    return rows


def det_bareiss(M, r):
    """Fraction-free determinant of a square MPoly matrix.  Each step
    divides exactly by the previous pivot, unless that pivot is 1.

    The pivot of each step is the nonzero entry of the trailing submatrix
    with the fewest stored coordinates, the first monomial found if there
    is one; its row and its column are swapped into place, each swap
    flipping the sign.  A product with a zero factor is not formed."""
    n = len(M)
    if n == 0:
        return MPoly.one(r)
    M = [list(row) for row in M]
    zero = MPoly.zero(r)
    one = prev = MPoly.one(r)
    sign = 1
    for t in range(n - 1):
        best = None
        for s in range(t, n):
            for j, x in enumerate(M[s][t:], t):
                if x and (best is None or len(x._c) < best[0]):
                    best = len(x._c), s, j
                    if best[0] == 1:
                        break
            if best and best[0] == 1:
                break
        if best is None:
            return zero
        _, p, q = best
        if p != t:
            M[t], M[p] = M[p], M[t]
            sign = -sign
        if q != t:
            for row in M[t:]:
                row[t], row[q] = row[q], row[t]
            sign = -sign
        pivot, top = M[t][t], M[t]
        unit = prev == one
        for s in range(t + 1, n):
            row = M[s]
            c = row[t]
            for j in range(t + 1, n):
                b, e = row[j], top[j]
                if c and e:
                    v = pivot * b - c * e if b else -(c * e)
                elif b:
                    v = pivot * b
                else:
                    continue
                row[j] = v if unit or not v else v.divexact(prev)
            row[t] = zero
        prev = pivot
    det = M[n - 1][n - 1]
    return -det if sign < 0 else det


@lru_cache(maxsize=None)
def gram_det(r, k, lam_bar):
    return det_bareiss(gram_matrix(r, k, lam_bar), r)


@lru_cache(maxsize=None)
def cell_dimension(r, k, lam_bar):
    i = weight(lam_bar)
    return len(enumerate_cross_section(r, k, i)) * build_matrix_rep(r, lam_bar).dim


@lru_cache(maxsize=None)
def _unit_factors(m, lam):
    """((a, m_a), ...), m_a > 0, with the r = 1 Gram determinant of W_m(lam)
    equal to prod_a (y0 - a)^{m_a}, a in 0..2m-2: the partition-algebra
    roots (Halverson-Ram 2005, cited from memory), divided out in ints by
    synthetic division while the remainder is 0.  ArithmeticError if a
    quotient other than 1 is left."""
    terms = gram_det(1, m, (lam,)).terms
    hi = [terms[e,].as_rational() if (e,) in terms else 0  # the highest degree first
          for e in range(max(terms, default=(-1,))[0], -1, -1)]
    roots = []
    for a in range(2 * m - 1):
        while len(hi) > 1:
            *quot, rem = accumulate(hi, lambda s, c: s * a + c)
            if rem:
                break
            hi = quot
            roots.append(a)
    if hi != [1]:
        raise ArithmeticError("the r = 1 Gram determinant of %r at k = %d leaves %r"
                              " after its roots" % (lam, m, hi))
    return tuple((a, roots.count(a)) for a in dict.fromkeys(roots))


def _label_compositions(r, k, lam_bar):
    """(M, (k_0, ..., k_{r-1})) per composition of k with |lam^j| <= k_j,
    M = k! / prod_j k_j!."""
    extra = k - weight(lam_bar)
    for bars in combinations(range(extra + r - 1), r - 1):
        cuts = (-1,) + bars + (extra + r - 1,)
        ks = tuple(sum(lam) + b - a - 1 for lam, a, b in zip(lam_bar, cuts, cuts[1:]))
        yield factorial(k) // prod(map(factorial, ks)), ks


def _label_factors(r, k, lam_bar):
    """{(j, a): e} with det G_k(lam_bar) = prod (yhat_{-j} - r a)^e exactly,
    yhat_j = sum_c zeta^{jc} y_c: e sums m_a(k_j, lam^j) M prod_{i != j}
    dim W_{k_i}(lam^i) over _label_compositions, at r = 1.

    Proof.  Read block colors in the group algebra of C_r: composition is
    multilinear in them, merged blocks multiply, a closed component u
    gives sum_c u_c x_c.  In the orthogonal idempotents eps_j = (1/r)
    sum_c zeta^{-jc} [c], [c] = sum_j zeta^{jc} eps_j; blocks of two labels
    that meet give 0, and a closed component labelled j gives t_j =
    yhat_{-j} / r.  So a labelled diagram is one partition diagram per
    label, composed at loop value t_j: CPar(x) is Rep(S_{t_0}) x ... x
    Rep(S_{t_{r-1}}) (Deligne 2007, cited from memory).  W_k(lam_bar) is
    then, per label sizes (k_j), M copies of the tensor product of the
    W_{k_j}(lam^j), lam^j on label j as MatrixRep lets color c act on
    block j by zeta^{jc}, as [c] acts on eps_j; its form is the product
    of the r = 1 forms at t_j.  det(A x B) = det(A)^{dim B} det(B)^{dim A}
    and t_j - a = (yhat_{-j} - r a) / r give the identity up to a constant
    from the change of basis, and it is 1, as both sides are monic in y0
    (c12 checks the Gram determinants are).  c12 checks the identity; the
    pairing of lam^j with yhat_j breaks it."""
    out = {}
    for M, ks in _label_compositions(r, k, lam_bar):
        dims = [cell_dimension(1, m, (lam,)) for m, lam in zip(ks, lam_bar)]
        copies = M * prod(dims)
        for j, (m, lam) in enumerate(zip(ks, lam_bar)):
            for a, e in _unit_factors(m, lam):
                out[j, a] = out.get((j, a), 0) + e * copies // dims[j]
    return out


def _factored_form(r, factors):
    """_label_factors as a product in (j, a) order, z = zeta_r, for example
    (y0 + y1)^2*(y0 - y1 - 2); 1 when there is no factor."""
    out = []
    for (j, a), e in sorted(factors.items()):
        base = "y0"
        for c in range(1, r):
            m = -j * c % r  # the coefficient zeta^m of y_c
            base += " - y%d" % c if 2 * m == r else " + %sy%d" % (
                {0: "", 1: "z*"}.get(m, "z^%d*" % m), c)
        if a:
            base += " - %d" % (r * a)
        if base != "y0":
            base = "(%s)" % base
        out.append(base + ("^%d" % e if e > 1 else ""))
    return "*".join(out) or "1"


@lru_cache(maxsize=None)
def _certificate_plan(r, k):
    """The point-free part of a certificate at (r, k): the cell labels by
    weight, the bases (j, a) of their label factors, each cell's factors
    as (base index, exponent) pairs and their factored form, the sum over
    cells of (dim W)^2 and B_{2k,r}."""
    labels = tuple(lam_bar for i in range(k + 1) for lam_bar in multipartitions(r, i))
    factors = [_label_factors(r, k, lam_bar) for lam_bar in labels]
    keys = sorted({key for f in factors for key in f})
    tables = tuple(tuple((keys.index(key), e) for key, e in f.items()) for f in factors)
    dim_sq = sum(cell_dimension(r, k, lam_bar) ** 2 for lam_bar in labels)
    return (labels, tuple(keys), tables, tuple(_factored_form(r, f) for f in factors),
            dim_sq, count_bell(2 * k, r))


def semisimplicity_certificate(r, k, x):
    """Every Gram determinant at the parameter point x, by label as
    (factored form, value); semisimple iff all are nonzero.  Also checks
    sum over cells of (dim W)^2 = B_{2k,r}.  x holds ints or Fractions; any
    other coordinate raises TypeError.  "x" holds them in normal form: an
    int when integral, a Fraction otherwise.  Each base yhat_{-j} - r a is
    formed once per point, in ints or Fractions where r <= 2, and a value
    is a product of their powers."""
    x = tuple(map(_exact, x))
    if len(x) != r:
        raise ValueError("parameter point needs %d coordinates" % r)
    if not any(x):
        raise ValueError("some parameter must be nonzero")
    labels, keys, tables, forms, dim_sq, bell = _certificate_plan(r, k)
    one = zeta_pow(r, 0)
    if r <= 2:  # zeta_r = 1 or -1, and yhat_{-j} = yhat_j
        hats = x if r == 1 else (x[0] + x[1], x[0] - x[1])
        bases = [hats[j] - r * a for j, a in keys]
        values = []
        for table in tables:
            v = 1
            for i, e in table:
                v *= bases[i] ** e
            values.append(CycNumber._trusted(r, (v,)) if table else one)
    else:  # each yhat_j as power-basis coordinates, from those of zeta^m
        zs = [zeta_pow(r, m).coeffs for m in range(r)]
        hats = [[sum(v * zs[j * c % r][i] for c, v in enumerate(x)) for i in range(len(zs[0]))]
                for j in range(r)]
        bases = [CycNumber._trusted(r, (hats[-j % r][0] - r * a, *hats[-j % r][1:]))
                 for j, a in keys]
        values = [prod((bases[i] for i, e in table for _ in range(e)), start=one)
                  for table in tables]
    return {
        "r": r,
        "k": k,
        "x": x,
        # a value is 0 iff one of its bases is, and every base has a cell
        "semisimple": all(bases),
        "dets": dict(zip(labels, zip(forms, values))),
        "dimension_identity": dim_sq == bell,
        "sum_dim_sq": dim_sq,
        "bell": bell,
    }


# -- Cartan matrix ---------------------------------------------------------------


@lru_cache(maxsize=None)
def _block_orbits(r, tops, bots):
    """The number of downward diagrams d with g d h = d, from the cycles
    (sorted tuples of (length, color)) of g (tops) and h (bots).  h
    permutes the blocks of d; an orbit of p blocks runs through whole
    h-cycles of lengths that p divides, the first placing the blocks and
    each further one in p ways, and through one p-cycle of g (p ways) or,
    if its blocks do not propagate, none.  Its colors close up, in r
    ways, iff its cycle colors sum to 0 mod r.  The first bottom cycle
    opens an orbit of each period p dividing its length."""
    if not bots:
        return int(not tops)
    (n, color), rest = bots[0], bots[1:]
    total = 0
    for p in [p for p in range(1, n + 1) if n % p == 0]:
        fits = [i for i, (d, _) in enumerate(rest) if d % p == 0]
        for size in range(len(fits) + 1):
            for chosen in combinations(fits, size):
                c = color + sum(rest[i][1] for i in chosen)
                left = tuple(cyc for i, cyc in enumerate(rest) if i not in chosen)
                ways = r * p ** size
                if c % r == 0:
                    total += ways * _block_orbits(r, tops, left)
                for j, (d, tc) in enumerate(tops):
                    if d == p and (c + tc) % r == 0:
                        total += ways * p * _block_orbits(r, tops[:j] + tops[j + 1:], left)
    return total


@lru_cache(maxsize=None)
def _cartan_fixed_points(r, m, l):
    """Fixed-point counts #{d : g d h = d} on the downward (m,l) diagrams of
    G(r,m) (left) x G(r,l) (right) times both class sizes, a read-only map
    keyed by pairs of class types; zero counts are left out.  Each count
    depends on the two cycle types alone (_block_orbits), so no diagram
    is formed."""
    return _class_table(r, (m, l), lambda sides: _block_orbits(r, *sides))


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
    rows = [wreath_char_table(r, m)[2][mu_bar], wreath_char_table(r, l)[2][lam_bar]]
    return _class_sum(r, rows, _cartan_fixed_points(r, m, l).items(),
                      r ** (m + l) * factorial(m) * factorial(l), "Cartan entry")


def cartan_matrix(r, maxweight):
    """All entries for multipartition pairs of weight <= maxweight."""
    labels = [lam for w in range(maxweight + 1) for lam in multipartitions(r, w)]
    return labels, {(lam, mu): cartan_entry(r, lam, mu) for lam in labels for mu in labels}


def cartan_tensor_check(maxweight, r):
    """Entrywise B_r = B_1 tensor ... tensor B_1 on total weight <= maxweight."""
    labels, big = cartan_matrix(r, maxweight)
    return all(big[lam, mu] == prod(cartan_entry(1, (li,), (mi,)) for li, mi in zip(lam, mu))
               for lam in labels for mu in labels)
