"""Colored partition diagrams.

A colored (k,l)-partition diagram over Z/r is a set partition of the
k top vertices 1..k and l bottom vertices 1'..l' whose blocks each carry a
color exponent in 0..r-1.  Composition concatenates diagrams; every removed
middle-only component of color i contributes one factor x_i, reported as a
scalar monomial exponent vector.
"""

import json
from functools import lru_cache
from itertools import product
from operator import itemgetter


class MalformedDiagram(ValueError):
    pass


class ArityMismatch(ValueError):
    pass


def _block_key(block):
    """An int ordering blocks by their least vertex, the top vertex v (2v)
    before the bottom vertex v' (2v + 1); top and bottom are sorted and
    not both empty."""
    top, bot, _ = block
    if not bot:
        return 2 * top[0]
    if not top or bot[0] < top[0]:
        return 2 * bot[0] + 1
    return 2 * top[0]


def _diagnose(canon, k, l):
    """Raise MalformedDiagram for the first fault of the sorted blocks in
    canon, checked block by block and vertex by vertex."""
    seen_top, seen_bot = set(), set()
    for top, bot, _ in canon:
        if not top and not bot:
            raise MalformedDiagram("empty block")
        for v in top:
            if v in seen_top or not (1 <= v <= k):
                raise MalformedDiagram("bad top vertex %d" % v)
            seen_top.add(v)
        for v in bot:
            if v in seen_bot or not (1 <= v <= l):
                raise MalformedDiagram("bad bottom vertex %d" % v)
            seen_bot.add(v)
    if len(seen_top) != k or len(seen_bot) != l:
        raise MalformedDiagram("blocks do not cover all vertices")


class ColoredDiagram:
    """Immutable canonical colored (k,l)-partition diagram."""

    __slots__ = ("r", "k", "l", "blocks", "_hash")

    def __init__(self, r, k, l, blocks):
        """Every block is nonempty and the blocks partition the top
        vertices 1..k and the bottom vertices 1..l: each side's vertices,
        sorted, must equal that range.  Only when they do not are the
        blocks checked vertex by vertex, to name the first fault."""
        if r < 1:
            raise MalformedDiagram("color modulus must be positive")
        if k < 0 or l < 0:
            raise MalformedDiagram("arities must be non-negative")
        canon = []
        tops, bots = [], []
        full = True
        for top, bot, c in blocks:
            top = tuple(sorted(top))
            bot = tuple(sorted(bot))
            if not top and not bot:
                full = False
            tops += top
            bots += bot
            canon.append((top, bot, c % r))
        tops.sort()
        bots.sort()
        if not full or tops != list(range(1, k + 1)) or bots != list(range(1, l + 1)):
            _diagnose(canon, k, l)
        canon.sort(key=_block_key)
        self.r = r
        self.k = k
        self.l = l
        self.blocks = tuple(canon)
        self._hash = None

    # -- constructors -------------------------------------------------
    @classmethod
    def _canonical(cls, r, k, l, blocks):
        """Trusted constructor: blocks is already a canonical tuple of
        (sorted top, sorted bottom, color mod r) covering every vertex,
        so nothing is sorted or validated again."""
        d = object.__new__(cls)
        d.r, d.k, d.l, d.blocks, d._hash = r, k, l, blocks, None
        return d

    @staticmethod
    def identity(r, k):
        return ColoredDiagram(r, k, k, [((i,), (i,), 0) for i in range(1, k + 1)])

    # -- protocol -------------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, ColoredDiagram):
            return NotImplemented
        return (self.r, self.k, self.l, self.blocks) == (
            other.r,
            other.k,
            other.l,
            other.blocks,
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.r, self.k, self.l, self.blocks))
        return self._hash

    def __repr__(self):
        parts = []
        for top, bot, c in self.blocks:
            s = ",".join(str(v) for v in top)
            s += "|" + ",".join(str(v) for v in bot)
            parts.append("{%s:%d}" % (s, c))
        return "D(r=%d,%d->%d; %s)" % (self.r, self.k, self.l, " ".join(parts))

    # -- queries ----------------------------------------------------------
    def rank(self):
        return sum(1 for top, bot, _ in self.blocks if top and bot)

    def propagating_blocks(self):
        return [b for b in self.blocks if b[0] and b[1]]

    def is_downward(self):
        """Exactly min(k,l)=k propagating parts: k <= l, every top propagates
        in its own part."""
        return self.k <= self.l and self.rank() == self.k

    def is_upward(self):
        return self.l <= self.k and self.rank() == self.l

    def is_normally_ordered_down(self):
        """Downward, propagating parts {j} + B_j^l trivially colored and
        ordered by min of the bottom constituents."""
        if not self.is_downward():
            return False
        props = sorted(self.propagating_blocks(), key=lambda b: b[0][0])
        for j, (top, bot, c) in enumerate(props, start=1):
            if top != (j,) or c != 0:
                return False
        mins = [b[1][0] for b in props]
        return mins == sorted(mins)

    def is_normally_ordered_up(self):
        if not self.is_upward():
            return False
        props = sorted(self.propagating_blocks(), key=lambda b: b[1][0])
        for j, (top, bot, c) in enumerate(props, start=1):
            if bot != (j,) or c != 0:
                return False
        mins = [b[0][0] for b in props]
        return mins == sorted(mins)

    # -- serialization -----------------------------------------------------
    def to_json(self):
        return {
            "r": self.r,
            "k": self.k,
            "l": self.l,
            "blocks": [
                {"top": list(t), "bot": list(b), "c": c} for t, b, c in self.blocks
            ],
        }

    @staticmethod
    def from_json(data):
        if isinstance(data, str):
            data = json.loads(data)
        _fields(data, "diagram", ("r", "k", "l", "blocks"), ("blocks",))
        try:
            blocks = [(b["top"], b["bot"], b["c"]) for b in data["blocks"]]
            numbers = [data["r"], data["k"], data["l"]]
            for top, bot, c in blocks:
                numbers += list(top) + list(bot) + [c]
        except (KeyError, TypeError):
            # a block lacks a field or has a mistyped one: name it, at no
            # cost to a well-formed diagram
            for i, b in enumerate(data["blocks"]):
                _fields(b, "block %d" % i, ("top", "bot", "c"), ("top", "bot"))
            raise
        if any(type(v) is not int for v in numbers):
            raise MalformedDiagram("r, k, l, vertices and colors must be integers")
        return ColoredDiagram(data["r"], data["k"], data["l"], blocks)


def _fields(data, what, names, lists):
    """MalformedDiagram unless data is a JSON object with every field in
    names, each field in lists a list; the message names the first fault."""
    if not isinstance(data, dict):
        raise MalformedDiagram("%s must be a JSON object, not %s"
                               % (what, type(data).__name__))
    for name in names:
        if name not in data:
            raise MalformedDiagram("%s has no field '%s'" % (what, name))
    for name in lists:
        if not isinstance(data[name], list):
            raise MalformedDiagram("%s: field '%s' must be a list"
                                   % (what, name))


def compose(d1, d2):
    """Concatenate d1 (k,l) over d2 (l,m).

    Returns (diagram, exponents) where exponents[i] counts the removed
    middle-only components of color i.
    """
    if d1.r != d2.r:
        raise ArityMismatch("color modulus mismatch")
    if d1.l != d2.k:
        raise ArityMismatch("inner arity mismatch: %d vs %d" % (d1.l, d2.k))
    r, k, l, m = d1.r, d1.k, d1.l, d2.l
    # vertex codes: tops 0..k-1, middle k..k+l-1, bottoms k+l..k+l+m-1;
    # color[v] sums the block colors of the component rooted at v
    n = k + l + m
    parent = list(range(n))
    color = [0] * n
    mid = k - 1
    low = k + l - 1

    def find(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    # d1's blocks are disjoint: point every vertex at the block's first
    for top, bot, c in d1.blocks:
        root = top[0] - 1 if top else mid + bot[0]
        for v in top:
            parent[v - 1] = root
        for v in bot:
            parent[mid + v] = root
        color[root] = c
    # d2's blocks join d1's components through the middle
    for top, bot, c in d2.blocks:
        root = find(mid + top[0]) if top else low + bot[0]
        for v in top:
            v = find(mid + v)
            if v != root:
                parent[v] = root
                color[root] += color[v]
        for v in bot:
            parent[low + v] = root
        color[root] += c

    # blocks in canonical order: top i before bottom i, first visit wins
    slot = [-1] * n
    blocks = []
    for i in range(1, max(k, m) + 1):
        if i <= k:
            root = find(i - 1)
            b = slot[root]
            if b < 0:
                slot[root] = len(blocks)
                blocks.append(([i], [], root))
            else:
                blocks[b][0].append(i)
        if i <= m:
            root = find(low + i)
            b = slot[root]
            if b < 0:
                slot[root] = len(blocks)
                blocks.append(([], [i], root))
            else:
                blocks[b][1].append(i)
    # components no top or bottom reached are the removed middle ones
    exponents = [0] * r
    for v in range(k, k + l):
        root = find(v)
        if slot[root] == -1:
            slot[root] = -2
            exponents[color[root] % r] += 1
    blocks = tuple((tuple(top), tuple(bot), color[root] % r)
                   for top, bot, root in blocks)
    return ColoredDiagram._canonical(r, k, m, blocks), tuple(exponents)


def tensor(d1, d2):
    """Horizontal juxtaposition: d2 drawn to the right, indices shifted."""
    if d1.r != d2.r:
        raise ArityMismatch("color modulus mismatch")
    blocks = list(d1.blocks)
    for top, bot, c in d2.blocks:
        blocks.append(
            (tuple(v + d1.k for v in top), tuple(v + d1.l for v in bot), c)
        )
    return ColoredDiagram(d1.r, d1.k + d2.k, d1.l + d2.l, blocks)


def _sort_blocks(r, k, l, blocks):
    """Trusted build from blocks that are canonical but for their order:
    sorted tuples, colors mod r, every vertex covered once."""
    return ColoredDiagram._canonical(r, k, l, tuple(sorted(blocks, key=_block_key)))


def flip_invert(d):
    """Anti-involution: horizontal flip and color inversion."""
    return _sort_blocks(d.r, d.l, d.k, [(bot, top, -c % d.r) for top, bot, c in d.blocks])


def flip_keep(d):
    """Anti-involution: horizontal flip, colors kept."""
    return _sort_blocks(d.r, d.l, d.k, [(bot, top, c) for top, bot, c in d.blocks])


def factor_triangular(d):
    """Factor d = d1 * d0 * d2 (zero scalar exponents on recomposition).

    d1 is normally ordered upward (k,m), d0 is a colored permutation diagram
    of size m = rank(d) carrying the propagating colors, d2 is normally
    ordered downward (m,l).  Their blocks are d's own canonical blocks and
    singletons (j,), and they cover every vertex, so each factor is built
    canonically after one sort of its blocks.
    """
    props = d.propagating_blocks()
    m = len(props)
    # tops, and bottoms, are disjoint: tuple order is first-vertex order
    pos_in_bot = {b: j for j, b in enumerate(sorted(props, key=itemgetter(1)), 1)}
    d1_blocks = [b for b in d.blocks if not b[1]]
    d2_blocks = [b for b in d.blocks if not b[0]]
    d0_blocks = []
    for j, (top, bot, c) in enumerate(sorted(props), start=1):
        d1_blocks.append((top, (j,), 0))
        d0_blocks.append(((j,), (pos_in_bot[top, bot, c],), c))
    d2_blocks += [((j,), bot, 0) for (_, bot, _), j in pos_in_bot.items()]
    return (_sort_blocks(d.r, d.k, m, d1_blocks), _sort_blocks(d.r, m, m, d0_blocks),
            _sort_blocks(d.r, m, d.l, d2_blocks))


# -- enumeration and counting ------------------------------------------------


def set_partitions(items):
    """All set partitions of a list, as lists of tuples."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + (first,)] + part[i + 1 :]
        yield part + [(first,)]


def enumerate_diagrams(r, k, l):
    """All colored (k,l)-partition diagrams.  Each set partition's blocks
    are sorted once, holding their index in the partition in the color
    slot, and then colored in every way."""
    verts = [("t", i) for i in range(1, k + 1)] + [("b", j) for j in range(1, l + 1)]
    for part in set_partitions(verts):
        blocks = sorted(((tuple(sorted(v for tag, v in block if tag == "t")),
                          tuple(sorted(v for tag, v in block if tag == "b")), i)
                         for i, block in enumerate(part)), key=_block_key)
        for colors in product(range(r), repeat=len(part)):
            yield ColoredDiagram._canonical(
                r, k, l, tuple((top, bot, colors[i]) for top, bot, i in blocks))


@lru_cache(maxsize=None)
def _bell_table(r):
    """[B_0, B_1, ...] for r colors and the last row of their Bell triangle,
    extended in place by count_bell."""
    return [1], [1]


def count_bell(k, r):
    """Number of colored set partitions of k points (colored Bell number).

    B_{n+1} = r * sum_j C(n, j) B_j.  The sum is the last entry of row n of
    the Bell triangle, where row n+1 starts at B_{n+1} and each next entry
    is its left neighbour plus the entry above that neighbour: B_{n+1}
    costs n+1 additions, and nothing recurses.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    bells, row = _bell_table(r)
    while len(bells) <= k:
        new = [r * row[-1]]
        for a in row:
            new.append(new[-1] + a)
        bells.append(new[0])
        row[:] = new
    return bells[k]


def egf_coefficients(r, N):
    """k! * [t^k] exp(r(e^t - 1)) for k = 0..N, as exact integers."""
    from fractions import Fraction

    # B(t) = r(e^t - 1); A = exp(B) satisfies A' = B' A.
    b = [Fraction(0)] * (N + 1)
    fact = 1
    for k in range(1, N + 1):
        fact *= k
        b[k] = Fraction(r, fact)
    a = [Fraction(0)] * (N + 1)
    a[0] = Fraction(1)
    # a'_n: (n+1) a_{n+1} = sum_{j=0..n} (j+1) b_{j+1} a_{n-j}
    for n in range(N):
        s = sum((j + 1) * b[j + 1] * a[n - j] for j in range(n + 1))
        a[n + 1] = s / (n + 1)
    out = []
    fact = 1
    for k in range(N + 1):
        if k:
            fact *= k
        v = a[k] * fact
        if v.denominator != 1:
            raise ArithmeticError("EGF coefficient %d is not an integer: %s" % (k, v))
        out.append(v.numerator)
    return out


@lru_cache(maxsize=64)
def _stirling2_row(n):
    """(S(n, 0), ..., S(n, n)), built row by row from S(0, 0) = 1."""
    row = [1]
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, len(row))] + [1]
    return tuple(row)


def stirling2(n, j):
    """Stirling number of the second kind S(n, j)."""
    row = _stirling2_row(n)
    return row[j] if 0 <= j <= n else 0
