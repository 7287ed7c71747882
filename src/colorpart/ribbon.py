"""r-ribbon tableaux and the color-to-spin Schensted maps.

Addable r-ribbons of a shape are enumerated through beta-numbers
(characters.abacus_moves): with n beads, bead positions are
{lambda_i + n - i}; adding an r-ribbon moves a bead up r steps to a free
position, and its spin equals the number of beads strictly in between.
firstr(mu, c) is the spin-c addable ribbon whose head sits on the largest
diagonal; nextr(mu, h) is the spin(h)-addable ribbon with head strictly
below and weakly left of head(h), again on the largest diagonal among
those.  These choices make the maps injective.

Tableaux are dicts value -> frozenset of cells; values are ints or set
blocks (tuples), compared by maximum entry order.
"""

from .characters import abacus_moves
from .rs import colored_array, _key as _block_key


def _key(v):
    return v if isinstance(v, int) else max(v)


def _cells(shape):
    return {(i, j) for i, m in enumerate(shape, start=1) for j in range(1, m + 1)}


def head(cells):
    """Northeastmost cell: the unique cell on the largest diagonal."""
    return max(cells, key=lambda c: c[1] - c[0])


def tail(cells):
    return min(cells, key=lambda c: c[1] - c[0])


def spin(cells):
    return tail(cells)[0] - head(cells)[0]


def is_ribbon(cells, r):
    """Connected skew cell set of r cells meeting each diagonal once."""
    if len(cells) != r:
        return False
    diags = {j - i for i, j in cells}
    if len(diags) != r:
        return False
    # connectivity: each pair of consecutive diagonals shares a side
    order = sorted(cells, key=lambda c: c[1] - c[0])
    for a, b in zip(order, order[1:]):
        if abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1:
            return False
    return True


def addable_ribbons(shape, r):
    """All (cells, spin) for addable r-ribbons of a shape, by bead moves."""
    out = []
    for new, sp in abacus_moves(shape, r):
        cells = frozenset(_cells(new) - _cells(shape))
        assert is_ribbon(cells, r) and spin(cells) == sp
        out.append((cells, sp))
    return out


def removable_ribbons(shape, r):
    return [(frozenset(_cells(shape) - _cells(new)), sp)
            for new, sp in abacus_moves(shape, -r)]


def firstr(shape, c, r):
    """The northeastmost spin-c addable ribbon (largest head diagonal)."""
    cands = [cells for cells, sp in addable_ribbons(shape, r) if sp == c]
    assert cands, "no addable ribbon of the requested spin"
    return max(cands, key=lambda cs: head(cs)[1] - head(cs)[0])


def nextr(shape, h, r):
    """The northeastmost spin(h)-addable ribbon strictly southwest of h:
    head strictly below and weakly left of head(h)."""
    c = spin(h)
    hi, hj = head(h)
    cands = [
        cells
        for cells, sp in addable_ribbons(shape, r)
        if sp == c and head(cells)[0] > hi and head(cells)[1] <= hj
    ]
    assert cands, "no qualifying addable ribbon"
    return max(cands, key=lambda cs: head(cs)[1] - head(cs)[0])


def bumpout(h1, h2):
    return frozenset(h2 - h1) | frozenset((i + 1, j + 1) for i, j in h1 & h2)


# -- ribbon tableaux -----------------------------------------------------------


def rt_shape(T):
    cells = set()
    for cs in T.values():
        cells |= cs
    if not cells:
        return ()
    rows = max(i for i, _ in cells)
    shape = tuple(sum(1 for a, _ in cells if a == i) for i in range(1, rows + 1))
    assert _cells(shape) == cells, "cells do not form a partition shape"
    return shape


def rt_rows(T):
    """Row-by-row grid of values, for display and comparison."""
    pos = {}
    for v, cs in T.items():
        for cell in cs:
            pos[cell] = v
    shape = rt_shape(T)
    return tuple(
        tuple(pos[(i, j)] for j in range(1, m + 1))
        for i, m in enumerate(shape, start=1)
    )


def insert(T, c, v, r):
    """Insert the colored value (c, v) into the ribbon tableau T.

    Larger values are removed, v is adjoined at firstr, and each larger
    value h_j is re-adjoined by the three-case rule, where the displaced
    ribbon is sh(P_{j-1}) minus the original cells restored so far.
    """
    assert v not in T
    bigger = sorted((u for u in T if _key(u) > _key(v)), key=_key)
    cur = {u: T[u] for u in T if _key(u) < _key(v)}
    base = set()
    for cs in cur.values():
        base |= cs
    cur[v] = firstr(rt_shape(cur), c, r)
    t_cells = set(base)
    for u in bigger:
        h_orig = T[u]
        p_cells = set()
        for cs in cur.values():
            p_cells |= cs
        h_prime = frozenset(p_cells - t_cells)
        if not (h_prime & h_orig):
            place = h_orig
        elif h_prime == h_orig:
            place = nextr(rt_shape(cur), h_orig, r)
        else:
            place = bumpout(h_prime, h_orig)
        assert is_ribbon(place, r) and not (place & p_cells)
        cur[u] = place
        t_cells |= h_orig
        rt_shape(cur)  # validates the intermediate shape
    return cur


def sw_group(columns, r):
    """Ribbon Schensted map for a colored two-line array.

    columns: list of (color, label, value); values are inserted in order,
    the recording tableau receives the labels.  Returns (P, Q).
    """
    P, Q = {}, {}
    prev = set()
    for c, label, v in columns:
        P = insert(P, c, v, r)
        cells = _cells(rt_shape(P))
        Q[label] = frozenset(cells - prev)
        prev = cells
    return P, Q


def special_type(colored_values, r):
    """Tableau built by successively adjoining firstr for each color; the
    j-th ribbon's spin equals the j-th color."""
    T = {}
    for c, v in colored_values:
        T[v] = firstr(rt_shape(T), c, r)
    return T


def sw_diagram(d):
    """Ribbon Schensted map for a colored partition diagram.

    The propagating array is inserted in maximum entry order; S and T are
    the special-type tableaux of the bottom/top nonpropagating blocks.
    Returns ((P, S), (Q, T)).
    """
    r = d.r
    cols = [(c, top, bot) for c, top, bot in colored_array(d)]
    P, Q = sw_group(cols, r)
    bot_np = sorted(
        ((c, b) for t, b, c in d.blocks if b and not t), key=lambda x: _block_key(x[1])
    )
    top_np = sorted(
        ((c, t) for t, b, c in d.blocks if t and not b), key=lambda x: _block_key(x[1])
    )
    S = special_type(bot_np, r)
    T = special_type(top_np, r)
    return (P, S), (Q, T)


def sw_image_key(data):
    """Hashable canonical form of ((P,S),(Q,T)) or (P,Q) output."""

    def one(T):
        return tuple(sorted(T.items(), key=lambda kv: _key(kv[0])))

    (P, S), (Q, T) = data
    return (one(P), one(S)), (one(Q), one(T))
