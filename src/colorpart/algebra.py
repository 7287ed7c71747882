"""The colored partition monoid CPar_k: the colored partition algebra
CPar_k(x) with every parameter evaluated at 1.

Its generators s_0, s_i, p_i, q_i and their relations, and one monoid
kernel: a cached breadth-first closure of the generators with its right
and left Cayley graphs, from which generated_closure and the Green's L, R
and J classes are read.  The kernel composes no diagram: a generator acts
on a flat block-label code of an element by a local edit.
"""

from functools import cached_property, lru_cache

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


def presentation_relations(k, r):
    """Yield (relation id, lhs word, rhs word) for every instance of the
    relations (1)-(28).  A word is a tuple of generator names: s0, s<i>,
    p<i>, q<i>, and w<l> for w_l = s_l ... s_1 s_0 s_1 ... s_l; the empty
    word is the identity."""
    s, p, q, w = [lambda i, c=c: c + str(i) for c in "spqw"]
    S, P, W = range(1, k), range(1, k + 1), range(k)   # s_i and q_i, p_i, w_l
    yield 1, ("s0",) * r, ()
    if k > 1:
        yield 2, ("s0", "s1", "s0", "s1"), ("s1", "s0", "s1", "s0")
    yield from ((3, ("s0", s(i)), (s(i), "s0")) for i in S if i != 1)
    yield from ((4, (s(i), s(i)), ()) for i in S)
    yield from ((5, (s(i), s(i + 1), s(i)), (s(i + 1), s(i), s(i + 1)))
                for i in S if i + 1 in S)
    yield from ((6, (s(i), s(j)), (s(j), s(i))) for i in S for j in S if j - i > 1)
    yield from ((7, (p(i), p(i)), (p(i),)) for i in P)
    yield from ((8, (p(i), p(j)), (p(j), p(i))) for i in P for j in P if i < j)
    yield from ((9, ("s0", p(i)), (p(i), "s0")) for i in P if i != 1)
    yield from ((10, (s(i), p(j)), (p(j), s(i)))
                for i in S for j in P if abs(i - j) > 1)
    yield from ((11, (s(i), p(i)), (p(i + 1), s(i))) for i in S)
    # p_i w_(i-1)^j p_i = p_i for every color j of the middle loop it closes
    yield from ((12, (p(i), *[w(i - 1)] * j, p(i)), (p(i),))
                for i in P for j in range(1, max(r, 2)))
    yield from ((13, (p(i), p(i + 1)), (p(i), p(i + 1), s(i))) for i in S)
    yield from ((14, (q(i), q(i)), (q(i),)) for i in S)
    # adjacent merges coincide, so every pair commutes
    yield from ((15, (q(i), q(j)), (q(j), q(i))) for i in S for j in S if j > i)
    # i != 1 as stated; s0 q1 = q1 s0 is the instance of (27) at l = 0
    yield from ((16, ("s0", q(i)), (q(i), "s0")) for i in S if i != 1)
    yield from ((17, (s(i), q(j)), (q(j), s(i)))
                for i in S for j in S if abs(i - j) > 1)
    yield from ((18, (s(i), s(j), q(i)), (q(j), s(i), s(j)))
                for i in S for j in S if abs(i - j) == 1)
    for i in S:
        yield 19, (s(i), q(i)), (q(i),)
        yield 19, (q(i), s(i)), (q(i),)
    yield from ((20, (q(i), p(j)), (p(j), q(i)))
                for i in S for j in P if abs(i - j) > 1)
    yield from ((21, (q(i), p(j), q(i)), (q(i),)) for i in S for j in (i, i + 1))
    yield from ((22, (p(j), q(i), p(j)), (p(j),)) for i in S for j in (i, i + 1))
    # (23)-(28), relations of the w_l, checked as stated: they are not known
    # to follow from (1)-(22), and Todd-Coxeter runs suggest (27) does not
    yield from ((23, (w(l),) * r, ()) for l in W)
    yield from ((24, (s(i), w(l)), (w(l), s(i)))
                for i in S for l in W if l not in (i - 1, i))
    yield from ((25, (w(i - 1), s(i)), (s(i), w(i))) for i in S)
    yield from ((26, (p(m), w(l)), (w(l), p(m))) for m in P for l in W if l != m - 1)
    yield from ((27, (q(n), w(l)), (w(l), q(n))) for n in S for l in W)
    yield from ((28, (p(i), w(i - 1), q(i), p(i)), (p(i), w(i))) for i in S)


def check_presentation(k, r):
    """Evaluate both words of every relation instance by mword over the
    generators' diagrams, with w_l = s_l w_(l-1) s_l built once; return a
    report dict."""
    if k < 1:
        raise ValueError("the presentation needs k >= 1")
    named = {name: g for name, g, _, _ in _generators(k, r)}
    named["w0"] = named["s0"]
    for l in range(1, k):
        s = named["s%d" % l]
        named["w%d" % l] = mword([s, named["w%d" % (l - 1)], s])
    ident = ColoredDiagram.identity(r, k)

    def value(word):
        return mword([named[x] for x in word]) if word else ident

    failures = []
    total = 0
    for rel_id, lhs, rhs in presentation_relations(k, r):
        total += 1
        if value(lhs) != value(rhs):
            failures.append({"relation": rel_id, "instance": "%s = %s" % (
                " ".join(lhs) or "1", " ".join(rhs) or "1")})
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


def _generators(k, r):
    """(name, diagram, code edit, i) of s0, s1..s{k-1}, p1..pk, q1..q{k-1}:
    the one list that monoid_generators, check_presentation and the
    closure's actions read."""
    if k == 0:
        return []
    gens = [("s0", gen_s0(k, r), _recolor, 1)]
    gens += [("s%d" % i, gen_s(i, k, r), _swap, i) for i in range(1, k)]
    gens += [("p%d" % i, gen_p(i, k, r), _cut, i) for i in range(1, k + 1)]
    gens += [("q%d" % i, gen_q(i, k, r), _merge, i) for i in range(1, k)]
    return gens


def monoid_generators(k, r):
    """s_0, s_i, p_i, q_i; CPar_0 = {identity} needs none."""
    return [g for _, g, _, _ in _generators(k, r)]


# -- the closure kernel: generators as edits of a block-label code ------------
#
# The code of a (k, k) diagram lists the block label of each vertex in the
# order t1, b1, ..., tk, bk, with blocks numbered by first appearance (the
# canonical block order), followed by the color of each block.  An edit
# acts at position pos, the vertex i of one side (2i - 1 for the bottom
# row, the right action; 2i - 2 for the top row, the left one), and at
# pos + 2, the vertex i + 1 of the same side.  Every generator is fixed by
# flip_keep, so g * d is the same edit of d's top row as d * g is of its
# bottom row.


def _renumber(labels, colors):
    """The code of a labelling whose block with label x has color
    colors[x]: labels renumbered by first appearance, then the colors in
    that order.  A label that no vertex carries drops out with its color."""
    new = {}
    for x in labels:
        if x not in new:
            new[x] = len(new)
    return tuple([new[x] for x in labels] + [colors[x] for x in new])


def _recolor(code, n, pos, r):
    """s_0: the color of the block of vertex pos goes up by 1 (mod r)."""
    j = n + code[pos]
    return code[:j] + ((code[j] + 1) % r,) + code[j + 1:]


def _swap(code, n, pos, r):
    """s_i: vertices pos and pos + 2 trade blocks."""
    a, b = code[pos], code[pos + 2]
    if a == b:
        return code
    labels = list(code[:n])
    labels[pos], labels[pos + 2] = b, a
    return _renumber(labels, code[n:])


def _cut(code, n, pos, r):
    """p_i: vertex pos moves to a new singleton block of color 0; a block
    it leaves empty closed into a middle-only loop and is dropped."""
    labels = list(code[:n])
    labels[pos] = len(code) - n
    return _renumber(labels, code[n:] + (0,))


def _merge(code, n, pos, r):
    """q_i: the blocks of vertices pos and pos + 2 merge, colors added.
    Blocks are numbered in order of first appearance, so the merged block
    keeps the smaller number and the blocks after the larger move down one;
    nothing else needs renumbering."""
    a, b = code[pos], code[pos + 2]
    if a == b:
        return code
    if a > b:
        a, b = b, a
    colors = list(code[n:])
    colors[a] = (colors[a] + colors.pop(b)) % r
    return (*[a if x == b else x - (x > b) for x in code[:n]], *colors)


def _encode(d):
    """The code of a (k, k) diagram; its blocks are in canonical order."""
    labels = [0] * (2 * d.k)
    for j, (top, bot, _) in enumerate(d.blocks):
        for v in top:
            labels[2 * v - 2] = j
        for v in bot:
            labels[2 * v - 1] = j
    return tuple(labels) + tuple(c for _, _, c in d.blocks)


def _decode(code, r, k, shapes):
    """The diagram of a code, by the trusted constructor: the vertices of
    each block come in increasing order, and the blocks in canonical one.
    shapes keeps the vertex tuples of each labelling, so that diagrams
    with one labelling share them."""
    n = 2 * k
    labels = code[:n]
    shape = shapes.get(labels)
    if shape is None:
        blocks = [([], []) for _ in range(len(code) - n)]
        for pos, x in enumerate(labels):
            blocks[x][pos & 1].append(pos // 2 + 1)
        shape = shapes[labels] = [(tuple(top), tuple(bot))
                                  for top, bot in blocks]
    return ColoredDiagram._canonical(r, k, k, tuple([
        (top, bot, c) for (top, bot), c in zip(shape, code[n:])]))


class _Closure:
    """Breadth-first closure of the generators from the identity, with
    every element interned to its index (Froidure & Pin 1997).

    The search runs on codes, and a generator acts on a code by one local
    edit (see above), so no diagram is composed.  right[i][j] is the index
    of elems[i] * gens[j]: the search edits bottom rows, |M| * |gens|
    edits.  left[i][j], the index of gens[j] * elems[i], is built on first
    use, |M| * |gens| more edits of the top rows.  The codes are decoded
    into elems once, at the end; codes and index stay for the left graph.
    by_repr, the indices in the repr order of their elements, is also
    sorted on first use.
    """

    def __init__(self, k, r):
        n = 2 * k
        start = _encode(ColoredDiagram.identity(r, k))
        # (edit, position of bottom vertex i); the top vertex i is one before
        self.edits = []
        for _, g, edit, i in _generators(k, r):
            # an explicit check, so that it holds under python -O as well
            if {edit(start, n, pos, r) for pos in (2 * i - 1, 2 * i - 2)} \
                    != {_encode(g)}:
                raise RuntimeError("the edits for %r do not give it" % g)
            self.edits.append((edit, 2 * i - 1))
        codes = self.codes = [start]
        index = self.index = {start: 0}
        right = self.right = []
        for c in codes:    # codes grows while the loop reads it
            row = []
            for edit, pos in self.edits:
                x = edit(c, n, pos, r)
                j = index.get(x)
                if j is None:
                    j = index[x] = len(codes)
                    codes.append(x)
                row.append(j)
            right.append(row)
        shapes = {}
        self.elems = [_decode(c, r, k, shapes) for c in codes]
        self.n, self.r = n, r

    @cached_property
    def left(self):
        index, n, r = self.index, self.n, self.r
        return [[index[edit(c, n, pos - 1, r)] for edit, pos in self.edits]
                for c in self.codes]

    @cached_property
    def by_repr(self):
        elems = self.elems
        return sorted(range(len(elems)), key=lambda i: repr(elems[i]))


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
    for i in closure.by_repr:
        classes.setdefault(key[i], []).append(elems[i])
    return list(classes.values())
