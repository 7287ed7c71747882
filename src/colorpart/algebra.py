"""The colored partition monoid CPar_k: the colored partition algebra
CPar_k(x) with every parameter evaluated at 1.
"""

from functools import lru_cache

from .diagrams import ColoredDiagram, compose, count_bell, enumerate_diagrams


class CapExceeded(RuntimeError):
    pass


# -- generators ---------------------------------------------------------------


def gen_s0(k, r):
    """Identity with the first strand colored zeta."""
    if k < 1:
        raise ValueError("s0 needs k >= 1")
    blocks = [((1,), (1,), 1)] + [((i,), (i,), 0) for i in range(2, k + 1)]
    return ColoredDiagram(r, k, k, blocks)


def gen_s(i, k, r):
    """Adjacent transposition of strands i, i+1."""
    if not 1 <= i <= k - 1:
        raise ValueError("s(i) needs 1 <= i <= k-1")
    blocks = [((i,), (i + 1,), 0), ((i + 1,), (i,), 0)]
    blocks += [((j,), (j,), 0) for j in range(1, k + 1) if j not in (i, i + 1)]
    return ColoredDiagram(r, k, k, blocks)


def gen_p(i, k, r):
    """Strand i cut into two singletons."""
    if not 1 <= i <= k:
        raise ValueError("p(i) needs 1 <= i <= k")
    blocks = [((i,), (), 0), ((), (i,), 0)]
    blocks += [((j,), (j,), 0) for j in range(1, k + 1) if j != i]
    return ColoredDiagram(r, k, k, blocks)


def gen_q(i, k, r):
    """Strands i, i+1 merged on top and on bottom."""
    if not 1 <= i <= k - 1:
        raise ValueError("q(i) needs 1 <= i <= k-1")
    blocks = [((i, i + 1), (i, i + 1), 0)]
    blocks += [((j,), (j,), 0) for j in range(1, k + 1) if j not in (i, i + 1)]
    return ColoredDiagram(r, k, k, blocks)


# -- monoid product and presentation ------------------------------------------


def mcompose(d1, d2):
    """Monoid composition: scalars discarded (parameters at 1)."""
    return compose(d1, d2)[0]


def mword(factors):
    out = factors[0]
    for f in factors[1:]:
        out = mcompose(out, f)
    return out


def _w(l, k, r):
    """w_l = s_l ... s_1 s_0 s_1 ... s_l."""
    word = [gen_s(j, k, r) for j in range(l, 0, -1)]
    word.append(gen_s0(k, r))
    word += [gen_s(j, k, r) for j in range(1, l + 1)]
    return mword(word)


def presentation_relations(k, r):
    """Yield (relation id, instance description, lhs diagram, rhs diagram)."""
    s0 = gen_s0(k, r)
    ident = ColoredDiagram.identity(r, k)
    s = {i: gen_s(i, k, r) for i in range(1, k)}
    p = {i: gen_p(i, k, r) for i in range(1, k + 1)}
    q = {i: gen_q(i, k, r) for i in range(1, k)}

    def M(*fs):
        return mword(list(fs))

    # (1) s0^r = 1
    yield 1, "s0^r", M(*([s0] * r)), ident
    # (2) s0 s1 s0 s1 = s1 s0 s1 s0
    if 1 in s:
        yield 2, "s0s1s0s1=s1s0s1s0", M(s0, s[1], s0, s[1]), M(s[1], s0, s[1], s0)
    # (3) s0 si = si s0, i != 1
    for i in s:
        if i != 1:
            yield 3, "s0 s%d" % i, M(s0, s[i]), M(s[i], s0)
    # (4) si^2 = 1
    for i in s:
        yield 4, "s%d^2" % i, M(s[i], s[i]), ident
    # (5) braid
    for i in s:
        if i + 1 in s:
            yield (
                5,
                "braid s%d s%d" % (i, i + 1),
                M(s[i], s[i + 1], s[i]),
                M(s[i + 1], s[i], s[i + 1]),
            )
    # (6) si sj = sj si, |i-j| > 1
    for i in s:
        for j in s:
            if j - i > 1:
                yield 6, "s%d s%d" % (i, j), M(s[i], s[j]), M(s[j], s[i])
    # (7) pi^2 = pi
    for i in p:
        yield 7, "p%d^2" % i, M(p[i], p[i]), p[i]
    # (8) pi pj = pj pi
    for i in p:
        for j in p:
            if i < j:
                yield 8, "p%d p%d" % (i, j), M(p[i], p[j]), M(p[j], p[i])
    # (9) s0 pi = pi s0, i != 1
    for i in p:
        if i != 1:
            yield 9, "s0 p%d" % i, M(s0, p[i]), M(p[i], s0)
    # (10) si pj = pj si, |i-j| > 1 (strand j away from strands i,i+1)
    for i in s:
        for j in p:
            if abs(i - j) > 1:
                yield 10, "s%d p%d" % (i, j), M(s[i], p[j]), M(p[j], s[i])
    # (11) si pi = p(i+1) si
    for i in s:
        yield 11, "s%d p%d" % (i, i), M(s[i], p[i]), M(p[i + 1], s[i])
    # (12) pi s(i-1)...s1 s0 s1...s(i-1) pi = pi
    for i in p:
        if i - 1 <= k - 1:
            mid = _w(i - 1, k, r)
            yield 12, "p%d w%d p%d" % (i, i - 1, i), M(p[i], mid, p[i]), p[i]
    # (13) pi p(i+1) = pi p(i+1) si
    for i in p:
        if i + 1 in p and i in s:
            yield (
                13,
                "p%d p%d s%d" % (i, i + 1, i),
                M(p[i], p[i + 1]),
                M(p[i], p[i + 1], s[i]),
            )
    # (14) qi^2 = qi
    for i in q:
        yield 14, "q%d^2" % i, M(q[i], q[i]), q[i]
    # (15) qi qj = qj qi (all pairs; adjacent merges coincide)
    for i in q:
        for j in q:
            if j > i:
                yield 15, "q%d q%d" % (i, j), M(q[i], q[j]), M(q[j], q[i])
    # (16) s0 qi = qi s0, i != 1 (strand 1 must avoid the merged pair)
    for i in q:
        if i != 1:
            yield 16, "s0 q%d" % i, M(s0, q[i]), M(q[i], s0)
    # (17) si qj = qj si, |i-j| > 1
    for i in s:
        for j in q:
            if abs(i - j) > 1:
                yield 17, "s%d q%d" % (i, j), M(s[i], q[j]), M(q[j], s[i])
    # (18) si sj qi = qj si sj, |i-j| = 1
    for i in q:
        for j in q:
            if abs(i - j) == 1:
                yield (
                    18,
                    "s%d s%d q%d" % (i, j, i),
                    M(s[i], s[j], q[i]),
                    M(q[j], s[i], s[j]),
                )
    # (19) si qi = qi si = qi
    for i in q:
        yield 19, "s%d q%d" % (i, i), M(s[i], q[i]), q[i]
        yield 19, "q%d s%d" % (i, i), M(q[i], s[i]), q[i]
    # (20) qi pj = pj qi, |i-j| > 1 (j not in {i, i+1} suffices; stated |i-j|>1)
    for i in q:
        for j in p:
            if abs(i - j) > 1:
                yield 20, "q%d p%d" % (i, j), M(q[i], p[j]), M(p[j], q[i])
    # (21) qi pj qi = qi, j = i, i+1
    for i in q:
        for j in (i, i + 1):
            yield 21, "q%d p%d q%d" % (i, j, i), M(q[i], p[j], q[i]), q[i]
    # (22) pj qi pj = pj, j = i, i+1
    for i in q:
        for j in (i, i + 1):
            yield 22, "p%d q%d p%d" % (j, i, j), M(p[j], q[i], p[j]), p[j]
    # derived relations (23)-(28), with w_l = s_l...s_1 s_0 s_1...s_l
    w = {l: _w(l, k, r) for l in range(0, k)}
    # (23) w_l^r = 1
    for l in w:
        yield 23, "w%d^r" % l, mword([w[l]] * r) if r > 1 else w[l], ident
    # (24) si w_l = w_l si for l not in {i-1, i}
    for i in s:
        for l in w:
            if l not in (i - 1, i):
                yield 24, "s%d w%d" % (i, l), M(s[i], w[l]), M(w[l], s[i])
    # (25) w_(i-1) si = si w_i
    for i in s:
        if i - 1 in w and i in w:
            yield 25, "w%d s%d" % (i - 1, i), M(w[i - 1], s[i]), M(s[i], w[i])
    # (26) pm w_l = w_l pm for l != m-1
    for mm in p:
        for l in w:
            if l != mm - 1:
                yield 26, "p%d w%d" % (mm, l), M(p[mm], w[l]), M(w[l], p[mm])
    # (27) qn w_l = w_l qn
    for nn in q:
        for l in w:
            yield 27, "q%d w%d" % (nn, l), M(q[nn], w[l]), M(w[l], q[nn])
    # (28) pi w_(i-1) qi pi = pi w_i, 1 <= i <= k-1
    for i in range(1, k):
        yield (
            28,
            "p%d w%d q%d p%d" % (i, i - 1, i, i),
            M(p[i], w[i - 1], q[i], p[i]),
            M(p[i], w[i]),
        )


def check_presentation(k, r):
    """Evaluate every relation instance; return a report dict."""
    failures = []
    total = 0
    for rel_id, desc, lhs, rhs in presentation_relations(k, r):
        total += 1
        if lhs != rhs:
            failures.append({"relation": rel_id, "instance": desc})
    return {"k": k, "r": r, "checked": total, "failures": failures,
            "ok": not failures}


# -- enumeration, closure, Green's relations -----------------------------------


# the default bound on |CPar_k|, shared by the library and RunConfig
MONOID_CAP = 10**5


def _monoid_size(k, r, cap):
    """|CPar_k| = B_{2k,r}, or CapExceeded past cap.  For r >= 1,
    B_{2k,r} >= 2^(2k-1), the set partitions into one or two blocks, so a
    k with 2k - 1 >= cap.bit_length() is refused before B is summed."""
    if 2 * k - 1 >= cap.bit_length() or count_bell(2 * k, r) > cap:
        raise CapExceeded("|CPar_%d| at r = %d exceeds cap %d" % (k, r, cap))
    return count_bell(2 * k, r)


def enumerate_monoid(k, r, cap=MONOID_CAP):
    n = _monoid_size(k, r, cap)
    elems = set(enumerate_diagrams(r, k, k))
    if len(elems) != n:
        raise RuntimeError("enumerated %d diagrams, expected %d" % (len(elems), n))
    return elems


def monoid_generators(k, r):
    """s_0, s_i, p_i, q_i; CPar_0 = {identity} needs none."""
    if k == 0:
        return []
    gens = [gen_s0(k, r)]
    gens += [gen_s(i, k, r) for i in range(1, k)]
    gens += [gen_p(i, k, r) for i in range(1, k + 1)]
    gens += [gen_q(i, k, r) for i in range(1, k)]
    return gens


class _Closure:
    """Breadth-first closure of the generators from the identity, with
    every element interned to its index (Froidure & Pin 1997).

    right[i][j] is the index of elems[i] * gens[j]: the search multiplies
    on the right, |M| * |gens| products.  left[i][j], the index of
    gens[j] * elems[i], is built on first use, |M| * |gens| more.
    """

    def __init__(self, k, r):
        gens = self.gens = monoid_generators(k, r)
        elems = self.elems = [ColoredDiagram.identity(r, k)]
        index = self.index = {elems[0].blocks: 0}  # r, k, l fixed: blocks suffice
        self.right, self._left = [], None
        for d in elems:    # elems grows while the loop reads it
            row = []
            for g in gens:
                x = compose(d, g)[0]
                j = index.setdefault(x.blocks, len(elems))
                if j == len(elems):
                    elems.append(x)
                row.append(j)
            self.right.append(row)

    @property
    def left(self):
        if self._left is None:
            self._left = [[self.index[compose(g, d)[0].blocks]
                           for g in self.gens] for d in self.elems]
        return self._left


# a few closures are kept, so that the classes of one monoid share one
_closure = lru_cache(maxsize=4)(_Closure)


def generated_closure(k, r, cap=MONOID_CAP):
    """The monoid the generators generate, from |M| * |gens| products;
    cap bounds |CPar_k| >= |M| as in enumerate_monoid."""
    _monoid_size(k, r, cap)
    return set(_closure(k, r).elems)


def _strong_components(graph):
    """Strongly connected component id of every vertex (iterative Tarjan)."""
    n = len(graph)
    order = [-1] * n       # discovery index
    low = [0] * n
    comp = [-1] * n
    stack = []             # Tarjan's stack of open vertices
    count = ncomp = 0
    for start in range(n):
        if order[start] != -1:
            continue
        order[start] = low[start] = count
        count += 1
        stack.append(start)
        work = [(start, 0)]
        while work:
            v, e = work[-1]
            edges = graph[v]
            if e < len(edges):
                work[-1] = (v, e + 1)
                w = edges[e]
                if order[w] == -1:
                    order[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    work.append((w, 0))
                elif comp[w] == -1 and order[w] < low[v]:
                    low[v] = order[w]
                continue
            work.pop()
            if work:
                u = work[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
            if low[v] == order[v]:
                while True:
                    w = stack.pop()
                    comp[w] = ncomp
                    if w == v:
                        break
                ncomp += 1
    return comp


def green_classes(k, r, relation, cap=MONOID_CAP):
    """Partition the monoid into L, R or J classes.

    R classes are the strongly connected components of the right Cayley
    graph, L classes those of the left one, and J classes those of the two
    graphs together: a path from x to y multiplies x on both sides, so y is
    reachable from x iff y is in MxM.  The three read one cached closure,
    2 |M| * |gens| products in all.  Members come in repr order and classes
    in the order of their first member.
    """
    if relation not in ("L", "R", "J"):
        raise ValueError("relation must be L, R or J")
    n = _monoid_size(k, r, cap)
    closure = _closure(k, r)
    elems = closure.elems
    if len(elems) != n:
        raise RuntimeError("generators reach %d elements, expected %d"
                           % (len(elems), n))
    if relation == "R":
        graph = closure.right
    elif relation == "L":
        graph = closure.left
    else:
        graph = [a + b for a, b in zip(closure.right, closure.left)]
    key = _strong_components(graph)
    classes = {}
    for i in sorted(range(n), key=lambda i: repr(elems[i])):
        classes.setdefault(key[i], []).append(elems[i])
    return list(classes.values())
