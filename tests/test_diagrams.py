"""Colored diagram arithmetic: composition, counting, factorization."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from colorpart import config, verify
from colorpart.diagrams import (
    ColoredDiagram,
    MalformedDiagram,
    compose,
    count_bell,
    egf_coefficients,
    enumerate_diagrams,
    factor_triangular,
    flip_invert,
    flip_keep,
    set_partitions,
    stirling2,
    tensor,
)
from colorpart.verify import (
    COMPOSE_D1,
    COMPOSE_D2,
    COMPOSE_EXPONENTS,
    COMPOSE_PRODUCT,
)


def random_diagram(rng, r, k, l):
    verts = [("t", i) for i in range(1, k + 1)] + [("b", j) for j in range(1, l + 1)]
    rng.shuffle(verts)
    n_blocks = rng.randint(1, len(verts)) if verts else 0
    blocks = [[] for _ in range(n_blocks)]
    for i, v in enumerate(verts):
        blocks[i % n_blocks].append(v) if n_blocks else None
    out = []
    for block in blocks:
        top = tuple(sorted(v for tag, v in block if tag == "t"))
        bot = tuple(sorted(v for tag, v in block if tag == "b"))
        out.append((top, bot, rng.randrange(r)))
    return ColoredDiagram(r, k, l, out)


def compose_by_vertex_tuples(d1, d2):
    """Oracle for compose: union-find over ("t", i), ("m", j), ("b", j)
    vertex tuples, blocks canonicalized by the validating constructor."""
    r, k, m = d1.r, d1.k, d2.l
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for i in range(1, k + 1):
        parent[("t", i)] = ("t", i)
    for j in range(1, d1.l + 1):
        parent[("m", j)] = ("m", j)
    for j in range(1, m + 1):
        parent[("b", j)] = ("b", j)

    colors = []  # (representative vertex, color) contributions
    for top, bot, c in d1.blocks:
        verts = [("t", v) for v in top] + [("m", v) for v in bot]
        for v in verts[1:]:
            union(verts[0], v)
        colors.append((verts[0], c))
    for top, bot, c in d2.blocks:
        verts = [("m", v) for v in top] + [("b", v) for v in bot]
        for v in verts[1:]:
            union(verts[0], v)
        colors.append((verts[0], c))

    comp_color = {}
    for v, c in colors:
        root = find(v)
        comp_color[root] = (comp_color.get(root, 0) + c) % r

    comp_members = {}
    for v in parent:
        comp_members.setdefault(find(v), []).append(v)

    blocks = []
    exponents = [0] * r
    for root, members in comp_members.items():
        top = sorted(v for tag, v in members if tag == "t")
        bot = sorted(v for tag, v in members if tag == "b")
        c = comp_color[root]
        if not top and not bot:
            exponents[c] += 1
        else:
            blocks.append((top, bot, c))
    return ColoredDiagram(r, k, m, blocks), tuple(exponents)


@st.composite
def diagrams(draw, r, k, l):
    """A colored (k,l)-diagram: each vertex draws a block label."""
    n = k + l
    labels = draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=n, max_size=n))
    colors = draw(st.lists(st.integers(0, r - 1), min_size=n, max_size=n))
    blocks = {}
    for i, label in enumerate(labels):
        top, bot = blocks.setdefault(label, ([], []))
        if i < k:
            top.append(i + 1)
        else:
            bot.append(i - k + 1)
    return ColoredDiagram(
        r, k, l, [(top, bot, colors[label]) for label, (top, bot) in blocks.items()])


@pytest.mark.parametrize("r, k, l, blocks, message", [
    (0, 1, 1, [((1,), (1,), 0)], "color modulus must be positive"),
    (2, 1, 1, [((1,), (1,), 0), ((), (), 1)], "empty block"),
    (2, 2, 1, [((1,), (1,), 0), ((1, 2), (), 1)], "bad top vertex 1"),
    (2, 2, 1, [((1,), (1,), 0), ((2, 3), (), 1)], "bad top vertex 3"),
    (2, 1, 2, [((1,), (1,), 0), ((), (0, 2), 1)], "bad bottom vertex 0"),
    (2, 1, 2, [((1,), (1, 2), 0), ((), (2,), 1)], "bad bottom vertex 2"),
    (2, 2, 2, [((1,), (1,), 0), ((), (2,), 1)], "blocks do not cover all vertices"),
    (2, 1, 1, [], "blocks do not cover all vertices"),
    # the first fault in block order, top vertices before bottom ones
    (2, 2, 2, [((5,), (), 0), ((), (), 0)], "bad top vertex 5"),
    (2, 2, 2, [((), (), 0), ((5,), (), 0)], "empty block"),
    (2, 2, 2, [((1,), (7,), 0), ((1,), (), 0)], "bad bottom vertex 7"),
    (2, 2, 2, [((0,), (7,), 0)], "bad top vertex 0"),
    (2, 2, 2, [((2,), (9,), 0), ((1,), (), 0)], "bad bottom vertex 9"),
    # with no blocks, range(1, k + 1) is empty for every k <= 0
    (2, -1, 0, [], "arities must be non-negative"),
    (2, 0, -1, [], "arities must be non-negative"),
    (2, -2, -1, [], "arities must be non-negative"),
])
def test_constructor_names_the_first_fault(r, k, l, blocks, message):
    with pytest.raises(MalformedDiagram, match="^%s$" % message):
        ColoredDiagram(r, k, l, blocks)


def test_constructor_canonicalizes_blocks_like_the_tuple_key():
    # blocks ordered by their least vertex, tops before bottoms at equal
    # index, whatever the input order of blocks and vertices
    def tuple_key(block):
        top, bot, _ = block
        return min([(v, 0) for v in top] + [(v, 1) for v in bot])

    rng = random.Random(5)
    for d in enumerate_diagrams(2, 2, 3):
        shuffled = [(tuple(rng.sample(t, len(t))), tuple(rng.sample(b, len(b))), c + 2)
                    for t, b, c in d.blocks]
        rng.shuffle(shuffled)
        built = ColoredDiagram(2, 2, 3, shuffled)
        assert built.blocks == tuple(sorted(d.blocks, key=tuple_key))
        assert built == d


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_compose_matches_vertex_tuple_oracle(data):
    r = data.draw(st.integers(1, 5))
    k, l, m = (data.draw(st.integers(0, 5)) for _ in range(3))
    a, b = data.draw(diagrams(r, k, l)), data.draw(diagrams(r, l, m))
    prod, exps = compose(a, b)
    ref, ref_exps = compose_by_vertex_tuples(a, b)
    assert prod.blocks == ref.blocks and exps == ref_exps
    # the trusted constructor built exactly what validation would build
    assert prod == ColoredDiagram(r, k, m, prod.blocks)
    assert prod.blocks == ColoredDiagram(r, k, m, prod.blocks).blocks


def test_worked_composition_example():
    # frozen worked example, exponent monomial x2 * x3^2
    prod, exps = compose(COMPOSE_D1, COMPOSE_D2)
    assert prod == COMPOSE_PRODUCT
    assert exps == COMPOSE_EXPONENTS


def test_identity_is_neutral():
    rng = random.Random(1)
    for _ in range(40):
        r = rng.randint(1, 4)
        k, l = rng.randint(0, 4), rng.randint(0, 4)
        d = random_diagram(rng, r, k, l)
        left, e1 = compose(ColoredDiagram.identity(r, k), d)
        right, e2 = compose(d, ColoredDiagram.identity(r, l))
        assert left == right == d
        assert not any(e1) and not any(e2)


def test_composition_is_associative_with_scalars():
    rng = random.Random(2)
    for _ in range(150):
        r = rng.randint(1, 3)
        k, l, m, n = (rng.randint(0, 3) for _ in range(4))
        a = random_diagram(rng, r, k, l)
        b = random_diagram(rng, r, l, m)
        c = random_diagram(rng, r, m, n)
        ab, e_ab = compose(a, b)
        ab_c, e1 = compose(ab, c)
        bc, e_bc = compose(b, c)
        a_bc, e2 = compose(a, bc)
        assert ab_c == a_bc
        lhs = tuple(x + y for x, y in zip(e_ab, e1))
        rhs = tuple(x + y for x, y in zip(e_bc, e2))
        assert lhs == rhs


def test_rank_cannot_grow():
    rng = random.Random(3)
    for _ in range(80):
        r = rng.randint(1, 3)
        k, l, m = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
        a = random_diagram(rng, r, k, l)
        b = random_diagram(rng, r, l, m)
        prod, _ = compose(a, b)
        assert prod.rank() <= min(a.rank(), b.rank())


def test_flip_invert_is_an_anti_involution():
    rng = random.Random(4)
    for _ in range(60):
        r = rng.randint(1, 3)
        a = random_diagram(rng, r, rng.randint(0, 3), rng.randint(0, 3))
        b = random_diagram(rng, r, a.l, rng.randint(0, 3))
        assert flip_invert(flip_invert(a)) == a
        assert flip_keep(flip_keep(a)) == a
        ab, e = compose(a, b)
        ba, e2 = compose(flip_invert(b), flip_invert(a))
        assert ba == flip_invert(ab)
        # color inversion also inverts the colors of removed components
        assert e2 == tuple(e[(-c) % r] for c in range(r))


def test_tensor_sizes_and_colors():
    a = ColoredDiagram(3, 1, 1, [((1,), (1,), 2)])
    b = ColoredDiagram(3, 1, 0, [((1,), (), 1)])
    t = tensor(a, b)
    assert (t.k, t.l) == (2, 1)
    assert set(t.blocks) == {((1,), (1,), 2), ((2,), (), 1)}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_interchange_law_with_scalars(data):
    # (d1 (x) d2) o (d3 (x) d4) = (d1 o d3) (x) (d2 o d4), the removed
    # components of the two sides added color by color
    r = data.draw(st.integers(1, 3))
    k1, l1, m1, k2, l2, m2 = (data.draw(st.integers(0, 3)) for _ in range(6))
    d1, d3 = data.draw(diagrams(r, k1, l1)), data.draw(diagrams(r, l1, m1))
    d2, d4 = data.draw(diagrams(r, k2, l2)), data.draw(diagrams(r, l2, m2))
    (a, e), (b, f) = compose(d1, d3), compose(d2, d4)
    assert compose(tensor(d1, d2), tensor(d3, d4)) == (
        tensor(a, b), tuple(x + y for x, y in zip(e, f)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_tensor_is_associative_with_the_empty_diagram_as_unit(data):
    r = data.draw(st.integers(1, 4))
    a, b, c = (data.draw(diagrams(r, data.draw(st.integers(0, 3)),
                                  data.draw(st.integers(0, 3))))
               for _ in range(3))
    assert tensor(tensor(a, b), c) == tensor(a, tensor(b, c))
    unit = ColoredDiagram.identity(r, 0)
    assert tensor(unit, a) == a == tensor(a, unit)


@given(st.integers(1, 6), st.integers(-6, 6), st.integers(-6, 6))
def test_zig_zag_is_the_identity_exactly_when_the_colors_cancel(r, c, d):
    # a cup (0 -> 2) of color c and a cap (2 -> 0) of color d straighten
    # into one strand of color c + d, with no component removed
    one = ColoredDiagram.identity(r, 1)
    cup = ColoredDiagram(r, 0, 2, [((), (1, 2), c)])
    cap = ColoredDiagram(r, 2, 0, [((1, 2), (), d)])
    strand = ColoredDiagram(r, 1, 1, [((1,), (1,), c + d)])
    for top, bot in [(tensor(one, cup), tensor(cap, one)),
                     (tensor(cup, one), tensor(one, cap))]:
        assert compose(top, bot) == (strand, (0,) * r)
        assert (strand == one) == ((c + d) % r == 0)


def test_enumeration_matches_bell_numbers():
    for r in (1, 2, 3):
        for k in range(3):
            for l in range(3):
                n = sum(1 for _ in enumerate_diagrams(r, k, l))
                assert n == count_bell(k + l, r)


def test_count_bell_beyond_the_recursion_limit():
    # a recursive count_bell overflowed the stack from k ~ 400
    k, r = 600, 2
    row = [1]  # S(n, j) for j = 0..n, by rows
    for n in range(1, k + 1):
        row = [0] + [j * (row[j] if j < n else 0) + row[j - 1]
                     for j in range(1, n + 1)]
    assert count_bell(k, r) == sum(s * r**j for j, s in enumerate(row))
    with pytest.raises(ValueError):
        count_bell(-1, r)


def test_stirling2_beyond_the_recursion_limit():
    # a recursive stirling2 overflowed the stack from n ~ 1000
    assert stirling2(1500, 3) == (3**1500 - 3 * 2**1500 + 3) // 6
    assert stirling2(1500, 1500) == 1 and stirling2(1500, 1501) == 0


def test_bell_against_stirling_sum():
    # independent oracle: B_{k,r} = sum_j S(k,j) r^j
    for r in range(1, 5):
        for k in range(9):
            assert count_bell(k, r) == sum(
                stirling2(k, j) * r**j for j in range(k + 1)
            )
    assert count_bell(2, 2) == 6
    assert count_bell(4, 2) == 94
    assert count_bell(4, 3) == 309
    assert count_bell(6, 2) == 2430


def test_egf_matches_recurrence():
    for r in range(1, 5):
        assert egf_coefficients(r, 10) == [count_bell(k, r) for k in range(11)]


def test_egf_rejects_a_non_integer_coefficient():
    # r = 1/2 makes k! [t^k] exp(r(e^t - 1)) = 1/2 at k = 1
    with pytest.raises(ArithmeticError, match="not an integer"):
        egf_coefficients(Fraction(1, 2), 2)


def test_triangular_check_reports_a_closed_loop_in_the_uniqueness_sweep(monkeypatch):
    # the existence loop makes two compositions per diagram and passes; every
    # later one, in the uniqueness sweep, reports a closed loop
    existence_calls = 2 * count_bell(6, 2)
    calls = itertools.count()

    def compose_late_loop(d1, d2):
        prod, exps = compose(d1, d2)
        if next(calls) < existence_calls:
            return prod, exps
        return prod, (1,) + tuple(exps[1:])

    monkeypatch.setattr(verify, "compose", compose_late_loop)
    rep = verify.check_triangular(config.RunConfig())
    assert rep["ok"] is False and rep["triples"] > 0
    assert next(calls) > existence_calls


def test_triangular_factorization_roundtrip():
    for r, k in [(2, 2), (3, 1)]:
        for d in enumerate_diagrams(r, k, k):
            d1, d0, d2 = factor_triangular(d)
            m = d.rank()
            assert d1.is_normally_ordered_up() and d1.l == m
            assert d2.is_normally_ordered_down() and d2.k == m
            assert d0.k == d0.l == d0.rank() == m
            p, e1 = compose(d1, d0)
            back, e2 = compose(p, d2)
            assert back == d and not any(e1) and not any(e2)


# -- trusted builds: each must be what the validating constructor builds --------
#
# A trusted build whose blocks are not canonical would break == and hash
# without any error.


def assert_canonical(d):
    built = ColoredDiagram(d.r, d.k, d.l, d.blocks)
    assert d == built and d.blocks == built.blocks and hash(d) == hash(built)


def trusted_builds(d):
    """The diagrams every trusted-build function returns for d."""
    return [*factor_triangular(d), flip_keep(d), flip_invert(d)]


def enumerate_by_constructor(r, k, l):
    """enumerate_diagrams as it was: every diagram through the validating
    constructor, in the same order."""
    verts = [("t", i) for i in range(1, k + 1)] + [("b", j) for j in range(1, l + 1)]
    for part in set_partitions(verts):
        for colors in itertools.product(range(r), repeat=len(part)):
            yield ColoredDiagram(r, k, l, [
                ([v for tag, v in block if tag == "t"],
                 [v for tag, v in block if tag == "b"], c)
                for block, c in zip(part, colors)])


@pytest.mark.parametrize("r", [1, 2, 3])
def test_trusted_builds_equal_the_validating_constructor(r):
    for k in range(4):
        for d in enumerate_diagrams(r, k, k):
            assert_canonical(d)
            for e in trusted_builds(d):
                assert_canonical(e)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_enumeration_matches_the_validating_enumeration_in_order(r):
    for k, l in itertools.product(range(4), repeat=2):
        got = list(enumerate_diagrams(r, k, l))
        want = list(enumerate_by_constructor(r, k, l))
        assert got == want
        assert [d.blocks for d in got] == [d.blocks for d in want]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_trusted_builds_equal_the_validating_constructor_on_large_diagrams(data):
    r = data.draw(st.integers(1, 5))
    k, l = data.draw(st.integers(0, 8)), data.draw(st.integers(0, 8))
    for e in trusted_builds(data.draw(diagrams(r, k, l))):
        assert_canonical(e)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 3), st.integers())
def test_json_roundtrip(r, k, l, seed):
    d = random_diagram(random.Random(seed), r, k, l)
    assert ColoredDiagram.from_json(d.to_json()) == d
