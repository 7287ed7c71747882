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
from .scalars import CycNumber, zeta_pow


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
    a = ColoredDiagram(d1.d.r, d1.d.k, d1.d.l, [(t, b, 0) for t, b, _ in d1.d.blocks])
    b = ColoredDiagram(d2.d.r, d2.d.k, d2.d.l, [(t, b, 0) for t, b, _ in d2.d.blocks])
    shape, exps = compose(a, b)
    if any(exps):
        raise RuntimeError("downward composition removed a middle component")
    tgt, src = d1.target, d2.source
    blocks = []
    for top, bot, _ in shape.blocks:
        c = tgt[top[0] - 1] if top else src[bot[0] - 1]
        blocks.append((top, bot, c))
    return ColorPreservingDiagram(ColoredDiagram(shape.r, shape.k, shape.l, blocks))


def psi(d):
    """Expand a downward colored diagram into color-preserving terms.

    Returns {ColorPreservingDiagram: CycNumber}; one term per coloring
    (j_1..j_s) of the s blocks, with coefficient zeta^(sum i_s j_s) where
    i_s are the block colors of d.
    """
    if not d.is_downward():
        raise ValueError("psi needs a downward diagram")
    r = d.r
    terms = {}
    s = len(d.blocks)
    stack = [(0, 0, [])]
    while stack:
        idx, phase, js = stack.pop()
        if idx == s:
            blocks = [
                (t, b, j) for (t, b, _), j in zip(d.blocks, js)
            ]
            cpd = ColorPreservingDiagram(ColoredDiagram(r, d.k, d.l, blocks))
            coeff = zeta_pow(r, phase)
            terms[cpd] = terms.get(cpd, CycNumber.zero(r)) + coeff
            continue
        i_s = d.blocks[idx][2]
        for j in range(r):
            stack.append((idx + 1, phase + i_s * j, js + [j]))
    return {k: v for k, v in terms.items() if v}


def gsum_compose(A, B):
    """Bilinear extension of gcompose to formal sums."""
    by_target = {}
    for cpd, c in B.items():
        by_target.setdefault(cpd.target, []).append((cpd, c))
    out = {}
    for cpd1, c1 in A.items():
        for cpd2, c2 in by_target.get(cpd1.source, []):
            prod = gcompose(cpd1, cpd2)
            if prod is None:
                continue
            c = c1 * c2
            out[prod] = out.get(prod, c * 0) + c
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
