"""r-ribbon tableaux and the color-to-spin Schensted maps.

Addable r-ribbons of a shape are enumerated through beta-numbers
(characters.abacus_moves): with n beads, bead positions are
{lambda_i + n - i}; adding an r-ribbon moves a bead up r steps to a free
position, and its spin equals the number of beads strictly in between.
addable_ribbons(shape, r) builds this once per (shape, r) and caches it:
a table from each addable ribbon's cells to its spin and the new shape,
checked once with is_ribbon and spin, and per spin the ribbons by head
diagonal, largest first.  firstr(mu, c) is the first spin-c ribbon;
nextr(mu, h) is the first spin(h) ribbon with head strictly below and
weakly left of head(h).  These choices make the maps injective.

Insertion carries the current shape forward: each placed ribbon is looked
up in the current shape's table, which both checks that it is an addable
r-ribbon and gives the next shape, and the displaced ribbon is updated
from the cells just placed and restored, so no step rebuilds a shape from
every value.

Tableaux are dicts value -> frozenset of cells; values are ints or set
blocks (tuples), compared by their maximum entry, taken once per value in
each insertion.
"""

from functools import lru_cache
from operator import itemgetter
from types import MappingProxyType

from .characters import abacus_moves
from .rs import _split


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


@lru_cache(maxsize=None)
def addable_ribbons(shape, r):
    """The addable r-ribbons of a shape (a tuple), built once by bead moves.

    Returns (table, by_spin): table maps each ribbon's cells to
    (spin, new shape); by_spin[c] lists the spin-c ribbons as
    (head row, head column, cells), head diagonal largest first.  Both are
    shared by every caller and read only.
    """
    old = _cells(shape)
    table = {}
    by_spin = [[] for _ in range(r)]
    for new, sp in abacus_moves(shape, r):
        cells = frozenset(_cells(new) - old)
        if not (is_ribbon(cells, r) and spin(cells) == sp):
            raise RuntimeError("bead move to %r is not a spin-%d %d-ribbon"
                               % (new, sp, r))
        table[cells] = (sp, new)
        by_spin[sp].append(head(cells) + (cells,))
    for ribbons in by_spin:
        ribbons.sort(key=lambda entry: entry[0] - entry[1])
    return MappingProxyType(table), tuple(map(tuple, by_spin))


def _spin_ribbons(shape, c, r):
    ribbons = addable_ribbons(shape, r)[1][c] if 0 <= c < r else ()
    if not ribbons:
        raise ValueError("%r has no addable %d-ribbon of spin %r" % (shape, r, c))
    return ribbons


def firstr(shape, c, r):
    """The northeastmost spin-c addable ribbon (largest head diagonal)."""
    return _spin_ribbons(shape, c, r)[0][2]


def nextr(shape, h, r):
    """The northeastmost spin(h)-addable ribbon strictly southwest of h:
    head strictly below and weakly left of head(h)."""
    hi, hj = head(h)
    for i, j, cells in _spin_ribbons(shape, spin(h), r):
        if i > hi and j <= hj:
            return cells
    raise ValueError("%r has no addable %d-ribbon southwest of %r" % (shape, r, h))


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
    if _cells(shape) != cells:
        raise ValueError("cells do not form a partition shape")
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
    Returns P and the ribbon sh(P) adds to sh(T).
    """
    kv = _key(v)
    cur, bigger = {}, []
    for u, cs in T.items():
        ku = _key(u)
        if ku == kv:
            raise ValueError("value %r: the tableau already holds a value of "
                             "maximum %r" % (v, kv))
        if ku < kv:
            cur[u] = cs
        else:
            bigger.append((ku, u))
    bigger.sort(key=itemgetter(0))
    shape = rt_shape(cur)
    displaced = place = firstr(shape, c, r)
    cur[v] = place
    shape = addable_ribbons(shape, r)[0][place][1]
    for _, u in bigger:
        h_orig = T[u]
        if not (displaced & h_orig):
            place = h_orig
        elif displaced == h_orig:
            place = nextr(shape, h_orig, r)
        else:
            place = bumpout(displaced, h_orig)
        step = addable_ribbons(shape, r)[0].get(place)
        if step is None:
            raise RuntimeError("%r is not an addable %d-ribbon of %r"
                               % (place, r, shape))
        cur[u] = place
        shape = step[1]
        # the shape gained place and the restored cells gained h_orig;
        # the restored cells stay inside the shape, so place is new to both
        displaced = (displaced | place) - h_orig
    return cur, displaced


def sw_group(columns, r):
    """Ribbon Schensted map for a colored two-line array.

    columns: list of (color, label, value); values are inserted in order,
    the recording tableau receives the labels.  Returns (P, Q).
    """
    P, Q = {}, {}
    for c, label, v in columns:
        P, Q[label] = insert(P, c, v, r)
    return P, Q


def special_type(colored_values, r):
    """Tableau built by successively adjoining firstr for each color; the
    j-th ribbon's spin equals the j-th color."""
    T, shape = {}, ()
    for c, v in colored_values:
        cells = firstr(shape, c, r)
        T[v] = cells
        shape = addable_ribbons(shape, r)[0][cells][1]
    return T


def sw_diagram(d):
    """Ribbon Schensted map for a colored partition diagram.

    The propagating array is inserted in maximum entry order; S and T are
    the special-type tableaux of the bottom/top nonpropagating blocks, in
    maximum entry order.  Each block's maximum is taken once, by rs._split.
    Returns ((P, S), (Q, T)).
    """
    r = d.r
    cols, bots, tops = _split(d)
    P, Q = sw_group([col[1:] for col in cols], r)
    S = special_type([b[1:] for b in bots], r)
    T = special_type([t[1:] for t in tops], r)
    return (P, S), (Q, T)


def sw_image_key(data):
    """Hashable canonical form of ((P,S),(Q,T)) or (P,Q) output."""

    def one(T):
        return tuple(sorted(T.items(), key=lambda kv: _key(kv[0])))

    (P, S), (Q, T) = data
    return (one(P), one(S)), (one(Q), one(T))
