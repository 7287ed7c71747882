"""Row-insertion bijection for colored diagrams and its Green invariants."""

import random

import pytest

from colorpart import rs as RS
from colorpart.diagrams import enumerate_diagrams
from colorpart.rs import (
    colored_array,
    content,
    green_invariants,
    rs_forward,
    rs_inverse,
    rs_pair,
)
from colorpart.verify import (
    BIJECTION_ARRAY,
    BIJECTION_DIAGRAM,
    RS_P,
    RS_Q,
    RS_S,
    RS_T,
)

from helpers import random_square_diagram, rs_forward_by_max, rs_pair_by_max, sweep_diagrams


def test_colored_array_of_worked_example():
    assert tuple(colored_array(BIJECTION_DIAGRAM)) == BIJECTION_ARRAY


def test_worked_example_tableaux():
    (P, S), (Q, T) = rs_forward(BIJECTION_DIAGRAM)
    assert P == RS_P
    assert Q == RS_Q
    assert S == RS_S
    assert T == RS_T


def test_worked_example_roundtrip():
    data = rs_forward(BIJECTION_DIAGRAM)
    assert rs_inverse(data, 5, 11, 11) == BIJECTION_DIAGRAM


def test_classical_insertion_shapes():
    # single-color sanity check: first row length = longest increasing
    # subsequence of the inserted values
    values = [3, 1, 4, 2, 5, 9, 6]
    cols = [((i,), (v,)) for i, v in enumerate(values, start=1)]
    P, Q = rs_pair(cols)
    assert sum(len(row) for row in P) == len(values)
    assert [len(r) for r in P] == [len(r) for r in Q]
    assert len(P[0]) == 4  # e.g. 1, 2, 5, 6


@pytest.mark.parametrize("r,k", [(1, 3), (2, 2), (3, 1)])
def test_full_roundtrip(r, k):
    for d in enumerate_diagrams(r, k, k):
        assert rs_inverse(rs_forward(d), r, k, k) == d


def test_roundtrip_rectangular():
    for d in enumerate_diagrams(2, 1, 2):
        assert rs_inverse(rs_forward(d), 2, 1, 2) == d


def test_images_are_distinct():
    seen = set()
    for d in enumerate_diagrams(2, 2, 2):
        (P, S), (Q, T) = rs_forward(d)
        key = (P, S, Q, T)
        assert key not in seen
        seen.add(key)


def test_content_merges_colors():
    (P, _), _ = rs_forward(BIJECTION_DIAGRAM)
    assert content(P) == frozenset(
        {(5,), (3,), (1,), (4,), (2,), (6, 8)}
    )


def test_green_invariants_shape():
    inv = green_invariants(BIJECTION_DIAGRAM)
    assert inv["J"] == 6  # six propagating parts
    assert inv["L"] == (content(RS_P), RS_S)
    assert inv["R"] == (content(RS_Q), RS_T)


# -- each maximum taken once, against the max-per-comparison oracle --------------


def test_rs_forward_matches_the_max_per_comparison_oracle():
    rng = random.Random(11)
    randoms = [random_square_diagram(rng, rng.randint(1, 5), rng.randint(0, 11))
               for _ in range(400)]
    for d in [*sweep_diagrams(), BIJECTION_DIAGRAM, *randoms]:
        assert rs_forward(d) == rs_forward_by_max(d)


def test_rs_pair_matches_the_oracle_on_blocks_from_outside_a_diagram():
    # rs_pair is public: its blocks may be unsorted and may share a maximum
    rng = random.Random(3)
    for _ in range(400):
        cols = [(tuple(rng.sample(range(1, 12), rng.randint(1, 3))),
                 tuple(rng.sample(range(1, 12), rng.randint(1, 3))))
                for _ in range(rng.randint(0, 9))]
        assert rs_pair(cols) == rs_pair_by_max(cols)


# -- integrity checks: explicit raises, kept under python -O --------------------


def test_rs_pair_rejects_an_insertion_off_the_recording_row(monkeypatch):
    monkeypatch.setattr(RS, "_insert", lambda rows, x: (0, 1))
    with pytest.raises(RuntimeError, match="recording row"):
        rs_pair([((1,), (1,))])


def test_rs_inverse_rejects_a_tableau_that_cannot_bump_out():
    # P has a column that decreases: the reverse bump finds no smaller entry
    P = ((((2,),), ((1,),)),)
    Q = ((((1,),), ((2,),)),)
    with pytest.raises(ValueError, match="bump out"):
        rs_inverse(((P, ((),)), (Q, ((),))), 1, 2, 2)
