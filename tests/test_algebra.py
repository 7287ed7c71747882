"""Monoid presentation, generation and Green's relations."""

import os
import subprocess
import sys

import pytest

from colorpart import algebra
from colorpart.diagrams import (ColoredDiagram, compose, count_bell,
                                enumerate_diagrams)
from colorpart.rs import green_invariants


def green_classes_by_ideals(k, r, relation):
    """Oracle for green_classes: classes of equal principal ideals Mm, mM
    or MmM, read off a full multiplication table, members in repr order
    and classes in the order of their first member."""
    elems = sorted(algebra.enumerate_monoid(k, r), key=repr)
    table = {a: {b: algebra.mcompose(a, b) for b in elems} for a in elems}
    if relation == "L":
        key = {m: frozenset(table[a][m] for a in elems) for m in elems}
    elif relation == "R":
        key = {m: frozenset(table[m].values()) for m in elems}
    else:
        key = {m: frozenset(y for a in elems for y in table[table[a][m]].values())
               for m in elems}
    classes = {}
    for m in elems:
        classes.setdefault(key[m], []).append(m)
    return list(classes.values())


class ComposeClosure:
    """Oracle for algebra._Closure: the same breadth-first closure, each
    product a full diagram composition.  right[i][j] is the index of
    elems[i] * gens[j], left[i][j] that of gens[j] * elems[i]."""

    def __init__(self, k, r):
        gens = algebra.monoid_generators(k, r)
        elems = self.elems = [ColoredDiagram.identity(r, k)]
        index = {elems[0].blocks: 0}  # r, k, l fixed: blocks suffice
        self.right = []
        for d in elems:    # elems grows while the loop reads it
            row = []
            for g in gens:
                x = compose(d, g)[0]
                j = index.setdefault(x.blocks, len(elems))
                if j == len(elems):
                    elems.append(x)
                row.append(j)
            self.right.append(row)
        self.left = [[index[compose(g, d)[0].blocks] for g in gens]
                     for d in elems]


@pytest.mark.parametrize("k, r", [(k, r) for k in (1, 2, 3) for r in (1, 2, 3)]
                         + [(4, 1)])
def test_code_edits_equal_the_composition_oracle(k, r):
    # every element, every generator, on both sides; a code decodes to its
    # diagram, so equal codes are equal products
    n = 2 * k
    gens = algebra._generators(k, r)
    shapes = {}
    for d in enumerate_diagrams(r, k, k):
        code = algebra._encode(d)
        assert algebra._decode(code, r, k, shapes) == d
        for _, g, edit, i in gens:
            assert edit(code, n, 2 * i - 1, r) == algebra._encode(
                compose(d, g)[0]), (d, g)
            assert edit(code, n, 2 * i - 2, r) == algebra._encode(
                compose(g, d)[0]), (g, d)


@pytest.mark.parametrize("k, r", [(0, 1), (0, 3), (1, 1), (1, 2), (1, 3),
                                  (1, 4), (2, 1), (2, 2), (2, 3), (3, 1),
                                  (3, 2), (4, 1)])
def test_closure_equals_the_composition_closure(k, r):
    # same elements in the same order, same right and left Cayley graphs
    kernel, oracle = algebra._Closure(k, r), ComposeClosure(k, r)
    assert [repr(d) for d in kernel.elems] == [repr(d) for d in oracle.elems]
    assert kernel.elems == oracle.elems
    assert kernel.right == oracle.right
    assert kernel.left == oracle.left


@pytest.mark.parametrize("k, r", [(k, r) for k in (1, 2, 3) for r in (1, 2, 3)]
                         + [(1, 4), (1, 5), (2, 4), (4, 2)])
def test_presentation_relations_hold(k, r):
    rep = algebra.check_presentation(k, r)
    assert rep["ok"], rep["failures"][:5]
    assert rep["checked"] > 0


def test_a_false_relation_is_reported_in_words(monkeypatch):
    monkeypatch.setattr(algebra, "presentation_relations",
                        lambda k, r: iter([(1, ("s0",), ()),
                                           (12, ("p1", "w0", "w0", "p1"),
                                            ("p1",))]))
    assert algebra.check_presentation(1, 2) == {
        "k": 1, "r": 2, "checked": 2, "ok": False,
        "failures": [{"relation": 1, "instance": "s0 = 1"}]}


def test_every_loop_color_is_removed_by_relation_12():
    # p_i w_(i-1)^j p_i = p_i for 1 <= j <= r - 1: the middle loop of
    # color j is removed, whatever j is
    words = [(lhs, rhs) for rel, lhs, rhs in algebra.presentation_relations(2, 4)
             if rel == 12]
    assert words == [(("p%d" % i,) + ("w%d" % (i - 1),) * j + ("p%d" % i,),
                      ("p%d" % i,)) for i in (1, 2) for j in (1, 2, 3)]


def test_generators_generate():
    for k, r in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)]:
        closed = algebra.generated_closure(k, r)
        assert closed == algebra.enumerate_monoid(k, r)


def test_monoid_sizes():
    assert len(algebra.enumerate_monoid(1, 2)) == 6
    assert len(algebra.enumerate_monoid(2, 2)) == 94
    assert len(algebra.enumerate_monoid(2, 3)) == 309


def test_enumeration_cap():
    with pytest.raises(algebra.CapExceeded):
        algebra.enumerate_monoid(3, 2, cap=100)


def test_generator_shapes():
    k, r = 3, 3
    for g in algebra.monoid_generators(k, r):
        assert (g.k, g.l) == (k, k)
    s1 = algebra.gen_s(1, k, r)
    assert algebra.mcompose(s1, s1) == ColoredDiagram.identity(r, k)
    s0 = algebra.gen_s0(k, r)
    cube = algebra.mword([s0, s0, s0])
    assert cube == ColoredDiagram.identity(r, k)


def test_green_class_counts_k1():
    # k = 1: ranks 0 and 1; J-classes are the rank fibers
    for r in (1, 2, 3):
        j = algebra.green_classes(1, r, "J")
        assert sorted(len(c) for c in j) == sorted((r * r, r))


@pytest.mark.parametrize("relation", ["L", "R", "J"])
def test_green_ideal_equals_tableau_characterization_k1_r2(relation):
    elems = algebra.enumerate_monoid(1, 2)
    ideal = {frozenset(c) for c in algebra.green_classes(1, 2, relation)}
    by_key = {}
    for d in elems:
        by_key.setdefault(green_invariants(d)[relation], set()).add(d)
    assert ideal == {frozenset(c) for c in by_key.values()}


def test_green_classes_partition_the_monoid():
    for relation in ("L", "R", "J"):
        classes = algebra.green_classes(2, 2, relation)
        assert sum(len(c) for c in classes) == count_bell(4, 2)


@pytest.mark.parametrize("relation", ["L", "R", "J"])
@pytest.mark.parametrize("k, r", [(1, 1), (1, 2), (1, 3), (1, 4), (2, 2)])
def test_green_classes_equal_the_ideal_oracle(k, r, relation):
    # same classes, same member order, same class order
    assert algebra.green_classes(k, r, relation) == green_classes_by_ideals(
        k, r, relation)


@pytest.mark.parametrize("r", [1, 3])
def test_cpar0_is_one_element(r):
    ident = ColoredDiagram.identity(r, 0)
    assert algebra.monoid_generators(0, r) == []
    with pytest.raises(ValueError):
        algebra.check_presentation(0, r)
    assert algebra.generated_closure(0, r) == {ident}
    for relation in ("L", "R", "J"):
        assert algebra.green_classes(0, r, relation) == [[ident]]


def test_closure_cap_bounds_the_monoid_size():
    # |CPar_2| = 94 at r = 2
    assert len(algebra.generated_closure(2, 2, cap=94)) == 94
    with pytest.raises(algebra.CapExceeded):
        algebra.generated_closure(2, 2, cap=93)


@pytest.fixture
def fresh_closures():
    algebra._closure.cache_clear()
    yield
    algebra._closure.cache_clear()


def test_green_classes_share_one_closure(monkeypatch, fresh_closures):
    # one closure build, with one right and one left graph:
    # 2 * |CPar_2| * |gens| = 2 * 94 * 5 edits at r = 2, plus the build's
    # check of each generator's two edits on the identity
    generators = algebra._generators
    builds, edits = [], []

    def counted(edit):
        def counted_edit(*args):
            edits.append(1)
            return edit(*args)
        return counted_edit

    def counted_generators(k, r):
        builds.append((k, r))
        return [(name, g, counted(edit), i)
                for name, g, edit, i in generators(k, r)]

    monkeypatch.setattr(algebra, "_generators", counted_generators)
    for relation in ("L", "R", "J"):
        algebra.green_classes(2, 2, relation)
    assert builds == [(2, 2)]
    assert len(edits) == 2 * 94 * 5 + 2 * 5


def test_green_classes_render_each_element_once(monkeypatch, fresh_closures):
    # the repr order is sorted once per closure, not once per call
    rendered = []
    render = ColoredDiagram.__repr__

    def counted(d):
        rendered.append(1)
        return render(d)

    monkeypatch.setattr(ColoredDiagram, "__repr__", counted)
    for relation in ("L", "R", "J", "L"):
        algebra.green_classes(2, 2, relation)
    assert len(rendered) == 94


@pytest.mark.parametrize("k, r", [(1, 3), (2, 2), (2, 3), (3, 1)])
def test_size_order_keeps_the_repr_order_of_the_lists(k, r):
    # cli green sorts by size alone: within a size, the classes are already
    # in the repr order of the whole member lists
    for relation in ("L", "R", "J"):
        classes = algebra.green_classes(k, r, relation)
        assert sorted(classes, key=len, reverse=True) \
            == sorted(classes, key=lambda c: (-len(c), repr(c)))


def test_size_cap_admits_exactly_cap_elements():
    for k in range(8):
        for r in (1, 2, 3):
            n = count_bell(2 * k, r)
            assert algebra._monoid_size(k, r, n) == n
            with pytest.raises(algebra.CapExceeded):
                algebra._monoid_size(k, r, n - 1)


def test_size_cap_is_checked_before_the_bell_number(monkeypatch):
    # B_{2k,r} >= 2^(2k-1) > cap: refused without summing B_{8000,2}
    def no_bell(k, r):
        raise AssertionError("count_bell(%d, %d) called" % (k, r))

    monkeypatch.setattr(algebra, "count_bell", no_bell)
    with pytest.raises(algebra.CapExceeded):
        algebra.green_classes(4000, 2, "L")
    with pytest.raises(algebra.CapExceeded):
        algebra.generated_closure(4000, 2)
    with pytest.raises(algebra.CapExceeded):
        algebra.enumerate_monoid(4000, 2)
    with pytest.raises(algebra.CapExceeded):
        algebra.enumerate_monoid(9, 1, cap=2**17 - 1)


def test_green_rejects_unknown_relation_and_cap():
    with pytest.raises(ValueError):
        algebra.green_classes(1, 2, "D")
    with pytest.raises(algebra.CapExceeded):
        algebra.green_classes(2, 2, "L", cap=93)


def test_integrity_checks_raise(monkeypatch, fresh_closures):
    # explicit exceptions, so they hold under python -O as well
    monkeypatch.setattr(algebra, "enumerate_diagrams",
                        lambda r, k, l: list(enumerate_diagrams(r, k, l))[1:])
    with pytest.raises(RuntimeError):
        algebra.enumerate_monoid(1, 2)
    monkeypatch.undo()
    # the diagrams and the edits come from one list: without s_0 the
    # closure misses the colored elements
    gens = algebra._generators
    monkeypatch.setattr(algebra, "_generators", lambda k, r: gens(k, r)[1:])
    assert len(algebra.monoid_generators(2, 2)) == 4
    with pytest.raises(RuntimeError, match="generators reach"):
        algebra.green_classes(2, 2, "R")


def test_an_edit_that_does_not_give_its_generator_raises_under_O():
    # every generator paired with the merge edit: s_0, the first, fails
    script = ("from colorpart import algebra as a\n"
              "gens = a._generators\n"
              "a._generators = lambda k, r: [(name, g, a._merge, i)"
              " for name, g, _, i in gens(k, r)]\n"
              "try:\n"
              "    a.generated_closure(2, 2)\n"
              "except RuntimeError as exc:\n"
              "    print(exc)\n")
    src = os.path.dirname(os.path.dirname(algebra.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "do not give it" in proc.stdout
