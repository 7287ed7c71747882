"""Plain-data helpers shared by the workloads: seeded input generation and
the independent oracles the checks compare against.

Nothing here calls into colorpart, so generating inputs costs no library
time and an oracle never runs the code path it checks.
"""

from functools import lru_cache
from math import comb, factorial


@lru_cache(maxsize=None)
def stirling2_row(n):
    """S(n, 0..n) by the triangle recurrence, each row from the last."""
    if n == 0:
        return (1,)
    prev = stirling2_row(n - 1) + (0,)
    return (0,) + tuple(j * prev[j] + prev[j - 1] for j in range(1, n + 1))


def bell_by_stirling(n, r):
    """Colored Bell number B_{n,r} as the Stirling sum sum_j S(n,j) r^j."""
    return sum(s * r**j for j, s in enumerate(stirling2_row(n)))


def partitions(n, maxpart=None):
    """Partitions of n as weakly decreasing tuples, largest first."""
    if maxpart is None:
        maxpart = n
    if n == 0:
        return [()]
    return [(first,) + rest
            for first in range(min(n, maxpart), 0, -1)
            for rest in partitions(n - first, first)]


def multipartitions(r, n):
    """r-tuples of partitions of total size n."""
    if r == 1:
        return [(lam,) for lam in partitions(n)]
    return [(lam,) + rest
            for k in range(n + 1) for lam in partitions(k)
            for rest in multipartitions(r - 1, n - k)]


def hook_dim(lam):
    """Number of standard tableaux of shape lam (hook length formula)."""
    n = sum(lam)
    conj = [sum(1 for p in lam if p > j) for j in range(lam[0])] if lam else []
    hooks = 1
    for i, p in enumerate(lam):
        for j in range(p):
            hooks *= (p - j - 1) + (conj[j] - i - 1) + 1
    return factorial(n) // hooks


def cell_dim(r, k, lam_bar):
    """Dimension of the cell module W(lam_bar) of CPar_k: the size of the
    rank-i cross-section times the dimension of the G(r,i)-irreducible."""
    i = sum(sum(lam) for lam in lam_bar)
    cross = sum(s * comb(j, i) * r ** (j - i)
                for j, s in enumerate(stirling2_row(k)) if j >= i)
    irrep = factorial(i)
    for lam in lam_bar:
        irrep = irrep // factorial(sum(lam)) * hook_dim(lam)
    return cross * irrep


def random_diagram_json(rng, r, k, l):
    """A uniformly labeled random colored (k,l)-diagram as to_json data."""
    verts = [("top", v) for v in range(1, k + 1)] + [("bot", v) for v in range(1, l + 1)]
    labels = [rng.randrange(len(verts)) for _ in verts]
    blocks = {}
    for (side, v), lab in zip(verts, labels):
        blocks.setdefault(lab, {"top": [], "bot": []})[side].append(v)
    return {"r": r, "k": k, "l": l,
            "blocks": [{"top": b["top"], "bot": b["bot"], "c": rng.randrange(r)}
                       for b in blocks.values()]}


def compose_plain(r, blocks1, blocks2):
    """Composition by union-find over plain vertex labels, independent of
    diagrams.compose.  Blocks are (top, bottom, color) triples; returns the
    product's blocks as a set of (sorted top, sorted bottom, color) and the
    exponents: removed middle components counted by color."""
    parent = {}

    def find(v):
        parent.setdefault(v, v)
        while parent[v] != v:
            v = parent[v]
        return v

    firsts = []
    for upper, lower, blocks in (("t", "m", blocks1), ("m", "b", blocks2)):
        for top, bot, c in blocks:
            verts = [(upper, v) for v in top] + [(lower, v) for v in bot]
            for v in verts:
                a, b = find(verts[0]), find(v)
                if a != b:
                    parent[b] = a
            firsts.append((verts[0], c))
    colors, members = {}, {}
    for v, c in firsts:
        root = find(v)
        colors[root] = (colors.get(root, 0) + c) % r
    for v in list(parent):
        members.setdefault(find(v), []).append(v)
    blocks, exponents = set(), [0] * r
    for root, verts in members.items():
        top = tuple(sorted(i for tag, i in verts if tag == "t"))
        bot = tuple(sorted(i for tag, i in verts if tag == "b"))
        if top or bot:
            blocks.add((top, bot, colors[root]))
        else:
            exponents[colors[root]] += 1
    return blocks, tuple(exponents)


def stratified_sample(rng, items, stratum, share):
    """A seeded share of every stratum, rounded up, in input order.

    Strata group inputs of equal cost, so a seed changes which inputs run
    and not how much work they are."""
    groups = {}
    for x in items:
        groups.setdefault(stratum(x), []).append(x)
    keep = set()
    for key in sorted(groups):
        members = groups[key]
        n = -(-len(members) * share.numerator // share.denominator)
        keep.update(members[i] for i in rng.sample(range(len(members)), n))
    return [x for x in items if x in keep]


def cyc_det(M, one):
    """Determinant of a square matrix over Q(zeta_r) by plain Gaussian
    elimination with division (the Bareiss path is not used); `one` is the
    field's unit."""
    M = [list(row) for row in M]
    n = len(M)
    det = one
    sign = 1
    for t in range(n):
        p = next((s for s in range(t, n) if M[s][t]), None)
        if p is None:
            return one - one
        if p != t:
            M[t], M[p] = M[p], M[t]
            sign = -sign
        piv = M[t][t]
        det = det * piv
        inv = piv.inverse()
        for s in range(t + 1, n):
            if M[s][t]:
                f = M[s][t] * inv
                M[s] = [a - f * b for a, b in zip(M[s], M[t])]
    return -det if sign < 0 else det
