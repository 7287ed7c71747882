"""The groupoid-like category of color-preserving downward diagrams.

Objects are color sequences f_k: (c_1, ..., c_k).  A morphism f_k -> f_l is
nonzero only for k >= l and is spanned by downward (l,k)-partition diagrams
(l top vertices, k bottom vertices, exactly l propagating parts), each
vertex read in its block's color: the top colors are the target sequence,
the bottom colors the source sequence.  A morphism is the downward
ColoredDiagram itself.

psi maps a downward colored diagram to a cyclotomic-coefficient sum of
such morphisms, one term per coloring of its blocks.
"""

import random
from itertools import combinations, permutations, product
from operator import mul

from .diagrams import ColoredDiagram, compose, enumerate_diagrams, set_partitions
from .scalars import zeta_pow


def colors(d):
    """(target, source): the color of each top and each bottom vertex of
    d, read as its block's color.  ValueError unless d is downward."""
    if not d.is_downward():
        raise ValueError("a groupoid morphism must be a downward diagram")
    target = [0] * d.k
    source = [0] * d.l
    for top, bot, c in d.blocks:
        for v in top:
            target[v - 1] = c
        for v in bot:
            source[v - 1] = c
    return tuple(target), tuple(source)


def _uncolored(d):
    """The key of d's shape: (r, k, l, its blocks as (top, bottom))."""
    return d.r, d.k, d.l, tuple((top, bot) for top, bot, _ in d.blocks)


def _product(d1, d2):
    """The shape of d1 composed over d2, both downward."""
    prod, exps = compose(d1, d2)
    if any(exps):
        raise RuntimeError("downward composition removed a middle component")
    return _uncolored(prod)


def _recolored(shape, source):
    """The morphism of a product shape whose bottom vertices carry source.
    Every top vertex of a downward diagram propagates, so every block
    holds a bottom vertex and takes the color of its first one: over a
    matching interface each block of a composite is monochromatic.
    Recoloring keeps the canonical block order."""
    r, k, l, blocks = shape
    return ColoredDiagram._canonical(r, k, l, tuple(
        (top, bot, source[bot[0] - 1]) for top, bot in blocks))


def gcompose(d1, d2):
    """Compose morphisms d1: f_k -> f_l after d2: f_m -> f_k; None (the
    zero morphism) when the interface color sequences do not match."""
    source1 = colors(d1)[1]
    target2, source2 = colors(d2)
    if source1 != target2:
        if len(source1) != len(target2):
            raise ValueError("arities not composable")
        return None
    return _recolored(_product(d1, d2), source2)


def psi(d):
    """Expand a downward colored diagram into color-preserving terms.

    Returns {ColoredDiagram: CycNumber}: one term per coloring (j_1..j_s)
    of d's s blocks, in d's canonical block order, with coefficient
    zeta^(sum i_s j_s) where i_s are the block colors of d.
    """
    if not d.is_downward():
        raise ValueError("psi needs a downward diagram")
    r, k, l, shape = _uncolored(d)
    phases = [c for _, _, c in d.blocks]
    terms = {}
    for js in product(range(r), repeat=len(shape)):
        blocks = tuple((top, bot, j) for (top, bot), j in zip(shape, js))
        terms[ColoredDiagram._canonical(r, k, l, blocks)] = zeta_pow(
            r, sum(map(mul, phases, js)) % r)
    return terms


def gsum_compose(A, B):
    """Bilinear extension of gcompose to formal sums.  Each term's shape is
    taken once, each distinct pair of shapes is composed once, and every
    matching pair of terms recolors that product from the right term's
    source."""
    by_target = {}
    for d2, c2 in B.items():
        target, source = colors(d2)
        by_target.setdefault(target, []).append((d2, _uncolored(d2), source, c2))
    products = {}
    out = {}
    for d1, c1 in A.items():
        matches = by_target.get(colors(d1)[1])
        if not matches:
            continue
        shape1 = _uncolored(d1)
        for d2, shape2, source, c2 in matches:
            pair = shape1, shape2
            prod = products.get(pair)
            if prod is None:
                prod = products[pair] = _product(d1, d2)
            term = _recolored(prod, source)
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
    """All downward (l,k) shapes, blocks as (top, bottom): partition the
    bottoms, attach the tops."""
    out = []
    for part in set_partitions(range(1, k + 1)):
        n = len(part)
        if n < l:
            continue
        for chosen in combinations(range(n), l):
            for perm in permutations(chosen):
                out.append(tuple(((t,), tuple(part[i])) for t, i in enumerate(perm, 1))
                           + tuple(((), tuple(part[i])) for i in range(n) if i not in chosen))
    return out


def hom_dimension_check(l, k, r):
    """Total Hom-basis count over all object pairs vs the dimension of the
    span of colored downward (l,k)-diagrams, computed independently."""
    # groupoid side: color each shape's blocks, group by (source, target)
    by_objects = {}
    for blocks in downward_shapes(l, k):
        for cs in product(range(r), repeat=len(blocks)):
            d = ColoredDiagram(r, l, k, [(t, b, c) for (t, b), c in zip(blocks, cs)])
            by_objects.setdefault(colors(d)[::-1], set()).add(d)
    dim_groupoid = sum(len(v) for v in by_objects.values())
    # path-algebra side: brute enumeration of colored downward diagrams
    dim_path = sum(1 for d in enumerate_diagrams(r, l, k) if d.is_downward())
    return {"l": l, "k": k, "r": r, "groupoid": dim_groupoid,
            "path": dim_path, "ok": dim_groupoid == dim_path}
