"""Small helpers the tests share and the library does not need."""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import prod
from operator import getitem

from colorpart.characters import g_elements
from colorpart.diagrams import ColoredDiagram, compose, enumerate_diagrams
from colorpart.ribbon import addable_ribbons, bumpout, firstr, nextr, rt_shape, special_type
from colorpart.scalars import CycNumber, zeta_pow
from colorpart.verify import _perm_diagram


def as_integer(c):
    """A rational CycNumber as an int; ValueError if it is not an integer."""
    q = c.as_rational()
    if q.denominator != 1:
        raise ValueError("not an integer: %s" % (c,))
    return q.numerator


def class_sum_by_cyc_numbers(r, rows, items, order, what):
    """The class sum as CycNumber terms, the oracle for the integer
    coordinates of characters._class_sum: each term is the product of its
    character values, one per row, and its count, with the counts of
    terms of equal values added first; the sum over the group order as an
    int; ArithmeticError unless it is a non-negative integer."""
    counts = Counter()
    for types, count in items:
        counts[tuple(map(getitem, rows, types))] += count
    total = sum((_product(values) * count for values, count in counts.items()),
                CycNumber.zero(r))
    val = (total * Fraction(1, order)).as_rational()
    if val.denominator != 1 or val < 0:
        raise ArithmeticError("%s is not a non-negative integer: %s" % (what, val))
    return int(val)


@lru_cache(maxsize=None)
def _product(values):
    return prod(values)


def eval_by_repeated_products(p, point):
    """The original evaluation, kept as the oracle: every coordinate as a
    CycNumber, each monomial by repeated multiplication, read through the
    `terms` view rather than the packed keys."""
    pt = [v if isinstance(v, CycNumber) else CycNumber.from_rational(p.r, v)
          for v in point]
    total = CycNumber.zero(p.r)
    for e, c in p.terms.items():
        val = c
        for v, a in zip(pt, e):
            for _ in range(a):
                val = val * v
        total = total + val
    return total


def class_type(r, g):
    """Conjugacy class invariant, the oracle for the closed-form class
    types: per color, the partition of cycle lengths whose cycle color
    product is zeta^color."""
    f, tau = g
    n = len(f)
    seen = [False] * n
    buckets = [[] for _ in range(r)]
    for i in range(1, n + 1):
        if seen[i - 1]:
            continue
        j, length, color = i, 0, 0
        while not seen[j - 1]:
            seen[j - 1] = True
            color = (color + f[j - 1]) % r
            j = tau[j - 1]
            length += 1
        buckets[color].append(length)
    return tuple(tuple(sorted(b, reverse=True)) for b in buckets)


def g_identity(n):
    """The identity of G(r,n) as (colors, permutation)."""
    return (0,) * n, tuple(range(1, n + 1))


def random_square_diagram(rng, r, k):
    """A seeded colored (k,k)-diagram: shuffled vertices dealt round-robin
    into a random number of blocks, each with a random color."""
    verts = [("t", v) for v in range(1, k + 1)] + [("b", v) for v in range(1, k + 1)]
    rng.shuffle(verts)
    n_blocks = rng.randint(1, len(verts)) if verts else 0
    return ColoredDiagram(r, k, k, [
        (tuple(v for tag, v in block if tag == "t"),
         tuple(v for tag, v in block if tag == "b"), rng.randrange(r))
        for block in (verts[i::n_blocks] for i in range(n_blocks))])


def sweep_diagrams():
    """Every diagram of the rs and ribbon sweeps (criteria c06 and c07):
    CPar_k for k <= 3 at r = 1, 2 and k <= 2 at r = 3, then G(r, n) as
    permutation diagrams for n <= 4, r <= 3."""
    for r, k_max in [(1, 3), (2, 3), (3, 2)]:
        for k in range(k_max + 1):
            yield from enumerate_diagrams(r, k, k)
    for n in range(5):
        for r in range(1, 4):
            for g in g_elements(r, n):
                yield _perm_diagram(r, n, g)


# -- insertion oracles: the maximum of an entry taken at every comparison -------
#
# The row and ribbon insertions as they were before each value's maximum
# was taken once; the kernels in colorpart.rs and colorpart.ribbon must give
# the same output, dict order included.


def _max_entry(v):
    return v if isinstance(v, int) else max(v)


def colored_array_by_max(d):
    cols = [(c, top, bot) for top, bot, c in d.propagating_blocks()]
    cols.sort(key=lambda col: max(col[1]))
    return cols


def _row_insert_by_max(rows, x):
    i = 0
    while True:
        if i == len(rows):
            rows.append([x])
            return i, 0
        row = rows[i]
        pos = None
        for j, y in enumerate(row):
            if max(y) > max(x):
                pos = j
                break
        if pos is None:
            row.append(x)
            return i, len(row) - 1
        row[pos], x = x, row[pos]
        i += 1


def rs_pair_by_max(columns):
    p_rows, q_rows = [], []
    for top, bot in columns:
        i, j = _row_insert_by_max(p_rows, bot)
        while len(q_rows) <= i:
            q_rows.append([])
        if len(q_rows[i]) != j:
            raise RuntimeError("insertion cell is not the end of its recording row")
        q_rows[i].append(top)
    return tuple(map(tuple, p_rows)), tuple(map(tuple, q_rows))


def _nonprop_rows_by_max(blocks, r):
    out = [[] for _ in range(r)]
    for verts, c in blocks:
        out[c].append(verts)
    return tuple(tuple(sorted(row, key=max)) for row in out)


def rs_forward_by_max(d):
    r = d.r
    by_color = [[] for _ in range(r)]
    for c, top, bot in colored_array_by_max(d):
        by_color[c].append((top, bot))
    P, Q = [], []
    for cols in by_color:
        p, q = rs_pair_by_max(cols)
        P.append(p)
        Q.append(q)
    S = _nonprop_rows_by_max([(b, c) for t, b, c in d.blocks if b and not t], r)
    T = _nonprop_rows_by_max([(t, c) for t, b, c in d.blocks if t and not b], r)
    return (tuple(P), S), (tuple(Q), T)


def insert_by_max(T, c, v, r):
    """ribbon.insert with _max_entry taken at every comparison."""
    kv = _max_entry(v)
    cur, bigger = {}, []
    for u, cs in T.items():
        if _max_entry(u) == kv:
            raise ValueError("the tableau already holds a value of maximum %r" % kv)
        if _max_entry(u) < kv:
            cur[u] = cs
        else:
            bigger.append(u)
    bigger.sort(key=_max_entry)
    shape = rt_shape(cur)
    displaced = place = firstr(shape, c, r)
    cur[v] = place
    shape = addable_ribbons(shape, r)[0][place][1]
    for u in bigger:
        h_orig = T[u]
        if not (displaced & h_orig):
            place = h_orig
        elif displaced == h_orig:
            place = nextr(shape, h_orig, r)
        else:
            place = bumpout(displaced, h_orig)
        step = addable_ribbons(shape, r)[0].get(place)
        if step is None:
            raise RuntimeError("%r is not an addable %d-ribbon" % (place, r))
        cur[u] = place
        shape = step[1]
        displaced = (displaced | place) - h_orig
    return cur, displaced


def sw_diagram_by_max(d):
    r = d.r
    P, Q = {}, {}
    for c, label, v in colored_array_by_max(d):
        P, Q[label] = insert_by_max(P, c, v, r)
    bot_np = sorted(((c, b) for t, b, c in d.blocks if b and not t),
                    key=lambda x: max(x[1]))
    top_np = sorted(((c, t) for t, b, c in d.blocks if t and not b),
                    key=lambda x: max(x[1]))
    return (P, special_type(bot_np, r)), (Q, special_type(top_np, r))


# -- groupoid oracles: every diagram through the validating constructors -------
#
# psi, gcompose and gsum_compose as they were before psi built its terms
# through the trusted constructors and gsum_compose composed each pair of
# shapes once, over diagram keys; each oracle reads the vertex colors itself
# and colors a product block from the target when it has a top vertex.
# colorpart.groupoid must give equal dicts.


def vertex_colors(d):
    """(target, source) of a downward diagram, read vertex by vertex."""
    if not d.is_downward():
        raise ValueError("not a downward diagram")
    color = {(side, v): c for top, bot, c in d.blocks
             for side, verts in (("t", top), ("b", bot)) for v in verts}
    return (tuple(color["t", v] for v in range(1, d.k + 1)),
            tuple(color["b", v] for v in range(1, d.l + 1)))


def gcompose_by_validation(d1, d2):
    tgt, src1 = vertex_colors(d1)
    tgt2, src = vertex_colors(d2)
    if src1 != tgt2:
        if len(src1) != len(tgt2):
            raise ValueError("arities not composable")
        return None
    a = ColoredDiagram(d1.r, d1.k, d1.l, [(t, b, 0) for t, b, _ in d1.blocks])
    b = ColoredDiagram(d2.r, d2.k, d2.l, [(t, b, 0) for t, b, _ in d2.blocks])
    shape, exps = compose(a, b)
    if any(exps):
        raise RuntimeError("downward composition removed a middle component")
    blocks = []
    for top, bot, _ in shape.blocks:
        c = tgt[top[0] - 1] if top else src[bot[0] - 1]
        blocks.append((top, bot, c))
    return ColoredDiagram(shape.r, shape.k, shape.l, blocks)


def psi_by_validation(d):
    if not d.is_downward():
        raise ValueError("psi needs a downward diagram")
    r = d.r
    terms = {}
    s = len(d.blocks)
    stack = [(0, 0, [])]
    while stack:
        idx, phase, js = stack.pop()
        if idx == s:
            blocks = [(t, b, j) for (t, b, _), j in zip(d.blocks, js)]
            term = ColoredDiagram(r, d.k, d.l, blocks)
            terms[term] = terms.get(term, CycNumber.zero(r)) + zeta_pow(r, phase)
            continue
        i_s = d.blocks[idx][2]
        for j in range(r):
            stack.append((idx + 1, phase + i_s * j, js + [j]))
    return {k: v for k, v in terms.items() if v}


def gsum_compose_by_validation(A, B):
    by_target = {}
    for d2, c in B.items():
        by_target.setdefault(vertex_colors(d2)[0], []).append((d2, c))
    out = {}
    for d1, c1 in A.items():
        for d2, c2 in by_target.get(vertex_colors(d1)[1], []):
            prod = gcompose_by_validation(d1, d2)
            if prod is None:
                continue
            c = c1 * c2
            out[prod] = out.get(prod, c * 0) + c
    return {k: v for k, v in out.items() if v}
