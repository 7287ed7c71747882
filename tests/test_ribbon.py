"""Ribbon tableaux and the color-to-spin insertion map."""

import random

import pytest

from colorpart import ribbon as RB
from colorpart.characters import abacus_moves, g_elements
from colorpart.diagrams import count_bell, enumerate_diagrams
from colorpart.rs import colored_array, _key as _max_entry
from colorpart.ribbon import (
    _cells,
    addable_ribbons,
    bumpout,
    firstr,
    head,
    insert,
    is_ribbon,
    nextr,
    rt_rows,
    rt_shape,
    special_type,
    spin,
    sw_diagram,
    sw_group,
    sw_image_key,
    tail,
)
from colorpart.verify import (
    BIJECTION_ARRAY,
    BIJECTION_DIAGRAM,
    SW_P_STEPS,
    SW_Q_STEPS,
    SW_S_ROWS,
    SW_T_ROWS,
    _perm_diagram,
)

from helpers import insert_by_max, random_square_diagram, sw_diagram_by_max, sweep_diagrams

SHAPES = [(), (1,), (3, 1), (4, 4, 2), (5, 3, 3, 1)]


# -- the cell-set path: the oracle for the cached tables ------------------------
#
# Every call re-derives the addable ribbons from cell sets, and every step
# rebuilds the shape from the union of all cells placed so far.


def shape_of(cells):
    if not cells:
        return ()
    rows = max(i for i, _ in cells)
    shape = tuple(sum(1 for a, _ in cells if a == i) for i in range(1, rows + 1))
    assert _cells(shape) == cells, "cells do not form a partition shape"
    return shape


def tableau_cells(T):
    cells = set()
    for cs in T.values():
        cells |= cs
    return cells


def addable_by_cells(shape, r):
    out = []
    for new, sp in abacus_moves(shape, r):
        cells = frozenset(_cells(new) - _cells(shape))
        assert is_ribbon(cells, r) and spin(cells) == sp
        out.append((cells, sp))
    return out


def removable_ribbons(shape, r):
    return [(frozenset(_cells(shape) - _cells(new)), sp)
            for new, sp in abacus_moves(shape, -r)]


def _diagonal(cells):
    return head(cells)[1] - head(cells)[0]


def firstr_by_cells(shape, c, r):
    cands = [cells for cells, sp in addable_by_cells(shape, r) if sp == c]
    assert cands, "no addable ribbon of the requested spin"
    return max(cands, key=_diagonal)


def nextr_by_cells(shape, h, r):
    hi, hj = head(h)
    cands = [cells for cells, sp in addable_by_cells(shape, r)
             if sp == spin(h) and head(cells)[0] > hi and head(cells)[1] <= hj]
    assert cands, "no qualifying addable ribbon"
    return max(cands, key=_diagonal)


def insert_by_cells(T, c, v, r):
    assert v not in T
    bigger = sorted((u for u in T if RB._key(u) > RB._key(v)), key=RB._key)
    cur = {u: T[u] for u in T if RB._key(u) < RB._key(v)}
    t_cells = tableau_cells(cur)
    cur[v] = firstr_by_cells(shape_of(tableau_cells(cur)), c, r)
    for u in bigger:
        h_orig = T[u]
        p_cells = tableau_cells(cur)
        h_prime = frozenset(p_cells - t_cells)
        if not (h_prime & h_orig):
            place = h_orig
        elif h_prime == h_orig:
            place = nextr_by_cells(shape_of(p_cells), h_orig, r)
        else:
            place = bumpout(h_prime, h_orig)
        assert is_ribbon(place, r) and not (place & p_cells)
        cur[u] = place
        t_cells |= h_orig
        shape_of(tableau_cells(cur))
    return cur


def special_type_by_cells(colored_values, r):
    T = {}
    for c, v in colored_values:
        T[v] = firstr_by_cells(shape_of(tableau_cells(T)), c, r)
    return T


def sw_diagram_by_cells(d):
    r = d.r
    P, Q, prev = {}, {}, set()
    for c, label, v in colored_array(d):
        P = insert_by_cells(P, c, v, r)
        cells = tableau_cells(P)
        Q[label] = frozenset(cells - prev)
        prev = cells
    bot_np = sorted(((c, b) for t, b, c in d.blocks if b and not t),
                    key=lambda x: _max_entry(x[1]))
    top_np = sorted(((c, t) for t, b, c in d.blocks if t and not b),
                    key=lambda x: _max_entry(x[1]))
    return ((P, special_type_by_cells(bot_np, r)),
            (Q, special_type_by_cells(top_np, r)))


# -- the cached tables against the cell-set path --------------------------------


def grown_ribbons(shape, r):
    """Every r-ribbon whose union with shape is a partition, by adding r
    cells one outer corner at a time: independent of the abacus."""
    found = set()
    frontier = {shape}
    for _ in range(r):
        nxt = set()
        for lam in frontier:
            for i in range(len(lam) + 1):
                row = lam[i] if i < len(lam) else 0
                if i == 0 or lam[i - 1] > row:
                    nxt.add(lam[:i] + (row + 1,) + lam[i + 1:])
        frontier = nxt
    old = _cells(shape)
    for lam in frontier:
        cells = frozenset(_cells(lam) - old)
        if is_ribbon(cells, r):
            found.add(cells)
    return found


def test_ribbon_geometry():
    cells = frozenset({(1, 3), (2, 3), (2, 2)})
    assert is_ribbon(cells, 3)
    assert head(cells) == (1, 3)
    assert tail(cells) == (2, 2)
    assert spin(cells) == 1
    assert not is_ribbon(frozenset({(1, 1), (2, 2)}), 2)  # disconnected
    assert not is_ribbon(frozenset({(1, 1), (1, 2), (2, 1), (2, 2)}), 4)


def test_addable_ribbons_spins_partition_by_beads():
    for shape in SHAPES:
        for r in (2, 3, 4):
            table, by_spin = addable_ribbons(shape, r)
            # the table is exactly the cell-set result, and complete
            by_cells = addable_by_cells(shape, r)
            assert len(table) == len(by_cells)
            assert dict(table) == {cells: (sp, shape_of(_cells(shape) | cells))
                                   for cells, sp in by_cells}
            assert set(table) == grown_ribbons(shape, r)
            for cells, (sp, new) in table.items():
                assert is_ribbon(cells, r) and spin(cells) == sp
                assert new == rt_shape({0: frozenset(_cells(shape)) | cells})
                # adding then removing is the identity on shapes
                assert (cells, sp) in removable_ribbons(new, r)
            for c, ribbons in enumerate(by_spin):
                assert [cells for _, _, cells in ribbons] == sorted(
                    (cells for cells, (sp, _) in table.items() if sp == c),
                    key=_diagonal, reverse=True)
                assert all((i, j) == head(cells) for i, j, cells in ribbons)


def test_addable_heads_on_distinct_diagonals():
    for shape in [(), (2, 1), (4, 2, 2)]:
        for r in (2, 3):
            heads = [_diagonal(cells) for cells in addable_ribbons(shape, r)[0]]
            assert len(heads) == len(set(heads))


def test_firstr_picks_largest_head_diagonal():
    cands = [cells for cells, (sp, _) in addable_ribbons((3, 1), 2)[0].items()
             if sp == 0]
    best = firstr((3, 1), 0, 2)
    for c in cands:
        assert _diagonal(best) >= _diagonal(c)


def test_firstr_and_nextr_match_the_cell_set_path():
    for shape in SHAPES:
        for r in (1, 2, 3, 4):
            for c in range(r):
                assert firstr(shape, c, r) == firstr_by_cells(shape, c, r)
            for h, _ in removable_ribbons(shape, r):
                assert nextr(shape, h, r) == nextr_by_cells(shape, h, r)


def test_nextr_goes_strictly_below_weakly_left():
    h = firstr((), 0, 2)  # horizontal domino at (1,1)-(1,2)
    shape = rt_shape({0: h})
    n = nextr(shape, h, 2)
    assert head(n)[0] > head(h)[0] and head(n)[1] <= head(h)[1]


def test_classical_case_reduces_to_row_insertion():
    # r = 1: inserting 2,1 bumps the 2 to the second row
    T, _ = insert({}, 0, (2,), 1)
    T, added = insert(T, 0, (1,), 1)
    assert rt_rows(T) == (((1,),), ((2,),))
    assert added == {(2, 1)}


def test_special_type_spins_match_colors():
    colored = [(1, (1,)), (0, (2,)), (2, (3,))]
    T = special_type(colored, 4)
    order = sorted(T, key=max)
    for (c, v), u in zip(colored, order):
        assert u == v
        assert spin(T[u]) == c


def test_worked_example_stepwise():
    r = BIJECTION_DIAGRAM.r
    P, Q = {}, {}
    for step, (c, label, v) in enumerate(BIJECTION_ARRAY):
        P, Q[label] = insert(P, c, v, r)
        # steps 0-3 match the source grids; steps 4-5 are the corrected
        # values forced by the injective (northeastmost) conventions
        assert rt_rows(P) == SW_P_STEPS[step], step
        assert rt_rows(Q) == SW_Q_STEPS[step], step
    assert (P, Q) == sw_group(BIJECTION_ARRAY, r)


def test_worked_example_special_tableaux():
    (_, S), (_, T) = sw_diagram(BIJECTION_DIAGRAM)
    assert rt_rows(S) == SW_S_ROWS
    assert rt_rows(T) == SW_T_ROWS
    assert rt_shape(T) == (5, 4, 1)


@pytest.mark.parametrize("r,n", [(1, 4), (2, 3), (3, 2)])
def test_injective_on_colored_permutations(r, n):
    elems = g_elements(r, n)
    images = {sw_image_key(sw_diagram(_perm_diagram(r, n, g))) for g in elems}
    assert len(images) == len(elems) == r**n * _fact(n)


def _fact(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


@pytest.mark.parametrize("r,k", [(1, 2), (2, 1), (2, 2)])
def test_injective_on_diagrams(r, k):
    images = {sw_image_key(sw_diagram(d)) for d in enumerate_diagrams(r, k, k)}
    assert len(images) == count_bell(2 * k, r)


@pytest.mark.parametrize("r,k", [(1, k) for k in range(4)]
                         + [(2, k) for k in range(4)]
                         + [(3, k) for k in range(3)])
def test_sw_diagram_matches_the_cell_set_oracle(r, k):
    for d in enumerate_diagrams(r, k, k):
        assert sw_image_key(sw_diagram(d)) == sw_image_key(sw_diagram_by_cells(d))


def test_sw_diagram_matches_the_cell_set_oracle_on_random_diagrams():
    rng = random.Random(6)
    for _ in range(500):
        d = random_square_diagram(rng, rng.randint(1, 5), rng.randint(0, 6))
        assert sw_image_key(sw_diagram(d)) == sw_image_key(sw_diagram_by_cells(d))


# -- each maximum taken once, against the max-per-comparison oracle --------------


def _items(tableaux):
    return [list(T.items()) for T in tableaux]


def test_sw_diagram_matches_the_max_per_comparison_oracle():
    # equal tableaux with their values in the same order
    rng = random.Random(12)
    randoms = [random_square_diagram(rng, rng.randint(1, 5), rng.randint(0, 11))
               for _ in range(300)]
    for d in [*sweep_diagrams(), BIJECTION_DIAGRAM, *randoms]:
        (P, S), (Q, T) = sw_diagram(d)
        (P0, S0), (Q0, T0) = sw_diagram_by_max(d)
        assert _items((P, S, Q, T)) == _items((P0, S0, Q0, T0))


def test_insert_matches_the_oracle_on_ints_blocks_and_any_tableau_order():
    # insert is public: values may be ints or unsorted blocks, and the
    # tableau's dict may list them in any order
    rng = random.Random(4)
    for _ in range(300):
        r = rng.randint(1, 4)
        T = {}
        for m in rng.sample(range(1, 25), rng.randint(1, 8)):
            block = rng.sample(range(1, m), min(m - 1, 2)) + [m]
            rng.shuffle(block)
            v = m if rng.random() < 0.5 else tuple(block)
            T = dict(rng.sample(list(T.items()), len(T)))
            c = rng.randrange(r)
            got, want = insert(T, c, v, r), insert_by_max(T, c, v, r)
            assert list(got[0].items()) == list(want[0].items()) and got[1] == want[1]
            T = got[0]


# -- integrity checks: explicit raises, kept under python -O --------------------


def test_insert_rejects_a_value_already_present():
    T, _ = insert({}, 0, (2,), 2)
    with pytest.raises(ValueError, match="already"):
        insert(T, 1, (2,), 2)
    with pytest.raises(ValueError, match="already"):
        insert(T, 1, (1, 2), 2)  # a different block with the same maximum


@pytest.mark.parametrize("c", [-1, 2, 5])
def test_firstr_rejects_a_spin_out_of_range(c):
    with pytest.raises(ValueError, match="spin"):
        firstr((2, 1), c, 2)


def test_nextr_rejects_a_ribbon_with_nothing_southwest():
    # the only horizontal domino addable to the empty shape is not below h
    with pytest.raises(ValueError, match="southwest"):
        nextr((), frozenset({(1, 1), (1, 2)}), 2)


def test_rt_shape_rejects_cells_off_a_partition():
    with pytest.raises(ValueError, match="partition"):
        rt_shape({1: frozenset({(1, 2)})})


def test_table_rejects_a_bead_move_that_is_not_a_ribbon(monkeypatch):
    monkeypatch.setattr(RB, "abacus_moves", lambda shape, r: iter([((2, 1), 0)]))
    with pytest.raises(RuntimeError, match="not a spin-0 3-ribbon"):
        addable_ribbons.__wrapped__((), 3)


def test_insert_rejects_a_placement_off_the_table(monkeypatch):
    # a re-adjoined ribbon that does not fit the current shape breaks the
    # invariant that every step adds an r-ribbon
    T = sw_group([(0, 1, (2,)), (0, 2, (3,))], 2)[0]
    monkeypatch.setattr(RB, "nextr", lambda shape, h, r: frozenset({(5, 5), (5, 6)}))
    with pytest.raises(RuntimeError, match="not an addable 2-ribbon"):
        insert(T, 0, (1,), 2)
