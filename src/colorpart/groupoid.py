"""The groupoid-like category of color-preserving downward diagrams.

Objects are color sequences f_k: (c_1, ..., c_k).  A morphism f_k -> f_l is
nonzero only for k >= l and is spanned by downward (l,k)-partition diagrams
(l top vertices, k bottom vertices, exactly l propagating parts) in which
every vertex of a block carries one common color; top colors read off the
target sequence, bottom colors the source sequence.

psi maps a downward colored diagram to a cyclotomic-coefficient sum of
color-preserving diagrams, one term per coloring of its blocks.
"""

import random
from itertools import combinations, permutations, product

from .diagrams import ColoredDiagram, compose, enumerate_diagrams, set_partitions
from .scalars import zeta_pow


class ColorPreservingDiagram:
    """A downward partition diagram with monochromatic vertex colors."""

    __slots__ = ("d", "target", "source", "_hash")

    def __init__(self, d):
        """target and source are the color sequences read along the top
        and the bottom vertices, read once here."""
        if not d.is_downward():
            raise ValueError("underlying diagram must be downward")
        target = [0] * d.k
        source = [0] * d.l
        for top, bot, c in d.blocks:
            for v in top:
                target[v - 1] = c
            for v in bot:
                source[v - 1] = c
        self.d = d
        self.target = tuple(target)
        self.source = tuple(source)
        self._hash = None

    @classmethod
    def _trusted(cls, d, target, source):
        """Trusted constructor: d is downward and target and source are
        already its top and bottom color sequences."""
        x = object.__new__(cls)
        x.d, x.target, x.source, x._hash = d, target, source, None
        return x

    def __eq__(self, other):
        if not isinstance(other, ColorPreservingDiagram):
            return NotImplemented
        return self.d == other.d

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(("cpd", self.d))
        return self._hash

    def __repr__(self):
        return "CPD(%r)" % (self.d,)


def _shape(d):
    """The uncolored shape of d: its blocks, all colored 0."""
    return ColoredDiagram._canonical(d.r, d.k, d.l, tuple((t, b, 0) for t, b, _ in d.blocks))


def _shape_product(shape1, shape2):
    """Compose two uncolored downward shapes once, for recoloring: (r, k,
    l, blocks), each block as (top, bottom, whether its color is read off
    the target, the vertex index it is read at).  A block with a top
    vertex takes that vertex's target color, any other its first bottom
    vertex's source color."""
    shape, exps = compose(shape1, shape2)
    if any(exps):
        raise RuntimeError("downward composition removed a middle component")
    return shape.r, shape.k, shape.l, tuple(
        (top, bot, True, top[0] - 1) if top else (top, bot, False, bot[0] - 1)
        for top, bot, _ in shape.blocks)


def _recolored(product, target, source):
    """The color-preserving diagram of a shape product whose top vertices
    carry target and whose bottom vertices carry source.  Recoloring keeps
    the canonical block order, and a composite of color-preserving
    diagrams over a matching interface is color-preserving with these
    sequences."""
    r, k, l, blocks = product
    d = ColoredDiagram._canonical(r, k, l, tuple(
        (top, bot, target[i] if up else source[i]) for top, bot, up, i in blocks))
    return ColorPreservingDiagram._trusted(d, target, source)


def gcompose(d1, d2):
    """Compose morphisms: d1: f_k -> f_l after d2: f_m -> f_k.

    Returns a ColorPreservingDiagram, or None (the zero morphism) when the
    interface color sequences do not match.
    """
    if d1.source != d2.target:
        if len(d1.source) != len(d2.target):
            raise ValueError("arities not composable")
        return None
    # compose the uncolored shapes, then recolor blocks from the endpoints
    return _recolored(_shape_product(_shape(d1.d), _shape(d2.d)), d1.target, d2.source)


def psi(d):
    """Expand a downward colored diagram into color-preserving terms.

    Returns {ColorPreservingDiagram: CycNumber}; one term per coloring
    (j_1..j_s) of the s blocks, with coefficient zeta^(sum i_s j_s) where
    i_s are the block colors of d.  Recoloring keeps d's canonical block
    order, and the target and source of each term are read through the
    vertex-to-block maps of d, built once.
    """
    if not d.is_downward():
        raise ValueError("psi needs a downward diagram")
    r, k, l = d.r, d.k, d.l
    top_block = [0] * k
    bot_block = [0] * l
    for n, (top, bot, _) in enumerate(d.blocks):
        for v in top:
            top_block[v - 1] = n
        for v in bot:
            bot_block[v - 1] = n
    colors = [c for _, _, c in d.blocks]
    terms = {}
    for js in product(range(r), repeat=len(d.blocks)):
        blocks = tuple((t, b, j) for (t, b, _), j in zip(d.blocks, js))
        cpd = ColorPreservingDiagram._trusted(
            ColoredDiagram._canonical(r, k, l, blocks),
            tuple(js[n] for n in top_block), tuple(js[n] for n in bot_block))
        terms[cpd] = zeta_pow(r, sum(i * j for i, j in zip(colors, js)) % r)
    return terms


def gsum_compose(A, B):
    """Bilinear extension of gcompose to formal sums.  Each term's shape is
    taken once, each distinct pair of shapes is composed once, and every
    matching pair of terms recolors that product."""
    by_target = {}
    for cpd, c in B.items():
        by_target.setdefault(cpd.target, []).append((_shape(cpd.d), cpd.source, c))
    products = {}
    out = {}
    for cpd1, c1 in A.items():
        matches = by_target.get(cpd1.source)
        if not matches:
            continue
        shape1 = _shape(cpd1.d)
        for shape2, source, c2 in matches:
            pair = shape1, shape2
            prod = products.get(pair)
            if prod is None:
                prod = products[pair] = _shape_product(shape1, shape2)
            term = _recolored(prod, cpd1.target, source)
            c = c1 * c2
            out[term] = out.get(term, c * 0) + c
    return {k: v for k, v in out.items() if v}


def gsum_equal(A, B):
    A = {k: v for k, v in A.items() if v}
    B = {k: v for k, v in B.items() if v}
    return A == B


# -- random downward diagrams and checks --------------------------------------


def random_downward(rng, r, k_top, k_bot):
    """Random downward (k_top, k_bot) colored diagram, k_top <= k_bot."""
    if k_top > k_bot:
        raise ValueError("a downward diagram needs k_top <= k_bot, got %d > %d"
                         % (k_top, k_bot))
    # partition the bottom vertices, pick k_top distinct parts for the tops
    while True:
        labels = [rng.randrange(k_bot) for _ in range(k_bot)]
        parts = {}
        for v, lab in enumerate(labels, start=1):
            parts.setdefault(lab, []).append(v)
        parts = list(parts.values())
        if len(parts) >= k_top:
            break
    chosen = rng.sample(range(len(parts)), k_top)
    blocks = []
    for t, idx in enumerate(chosen, start=1):
        blocks.append(((t,), tuple(parts[idx]), rng.randrange(r)))
    for idx, part in enumerate(parts):
        if idx not in chosen:
            blocks.append(((), tuple(part), rng.randrange(r)))
    return ColoredDiagram(r, k_top, k_bot, blocks)


def psi_hom_check(samples=1000, k_max=4, r_max=3, seed=0):
    """Check psi(d d') = psi(d) psi(d') on random composable downward pairs."""
    rng = random.Random(seed)
    failures = 0
    for _ in range(samples):
        r = rng.randint(1, r_max)
        m = rng.randint(0, k_max)
        k = rng.randint(0, m)
        l = rng.randint(0, k)
        d1 = random_downward(rng, r, l, k)
        d2 = random_downward(rng, r, k, m)
        prod, exps = compose(d1, d2)
        # a removed middle component would scale the product: a failure
        if any(exps) or not gsum_equal(psi(prod),
                                       gsum_compose(psi(d1), psi(d2))):
            failures += 1
    return {"samples": samples, "failures": failures, "ok": failures == 0}


def downward_shapes(l, k):
    """All downward (l,k) uncolored shapes: partition bottoms, attach tops."""
    out = []
    for part in set_partitions(range(1, k + 1)):
        n = len(part)
        if n < l:
            continue
        for chosen in combinations(range(n), l):
            for perm in permutations(chosen):
                blocks = []
                for t, idx in enumerate(perm, start=1):
                    blocks.append(((t,), tuple(part[idx]), 0))
                for idx in range(n):
                    if idx not in chosen:
                        blocks.append(((), tuple(part[idx]), 0))
                out.append(tuple(blocks))
    return out


def hom_dimension_check(l, k, r):
    """Total Hom-basis count over all object pairs vs the dimension of the
    span of colored downward (l,k)-diagrams, computed independently."""
    # groupoid side: enumerate color-preserving diagrams from block colorings
    cpds = set()
    for blocks in downward_shapes(l, k):
        for colors in product(range(r), repeat=len(blocks)):
            cols = [(t, b, c) for (t, b, _), c in zip(blocks, colors)]
            cpds.add(ColorPreservingDiagram(ColoredDiagram(r, l, k, cols)))
    by_objects = {}
    for cpd in cpds:
        by_objects.setdefault((cpd.source, cpd.target), set()).add(cpd)
    dim_groupoid = sum(len(v) for v in by_objects.values())
    # path-algebra side: brute enumeration of colored downward diagrams
    dim_path = sum(1 for d in enumerate_diagrams(r, l, k) if d.is_downward())
    return {"l": l, "k": k, "r": r, "groupoid": dim_groupoid,
            "path": dim_path, "ok": dim_groupoid == dim_path}
