"""Robinson-Schensted-type bijection for colored partition diagrams.

A colored diagram is encoded by its colored set-partition array: the
propagating parts sorted by the maximum entry of the top constituent, each
column holding (color, top block, bottom block).  Splitting the columns by
color and running classical RS per color (entries compared by their maximum
element) gives r-tuples (P, Q) of set-partition tableaux; the nonpropagating
bottom/top blocks, grouped by color into single rows sorted by maximum,
give S and T.  d <-> ((P, S), (Q, T)) is a bijection.
"""

from .diagrams import ColoredDiagram


def _key(block):
    return max(block)


def colored_array(d):
    """Columns (color, top, bot) of the propagating parts, sorted by the
    maximum entry of the top constituent."""
    cols = [(c, top, bot) for top, bot, c in d.propagating_blocks()]
    cols.sort(key=lambda col: _key(col[1]))
    return cols


def _insert(rows, x):
    """Classical row insertion by maximum entry order; returns the position
    (i, j) of the new cell."""
    i = 0
    while True:
        if i == len(rows):
            rows.append([x])
            return i, 0
        row = rows[i]
        # leftmost entry strictly bigger than x gets bumped
        pos = None
        for j, y in enumerate(row):
            if _key(y) > _key(x):
                pos = j
                break
        if pos is None:
            row.append(x)
            return i, len(row) - 1
        row[pos], x = x, row[pos]
        i += 1


def _freeze(rows):
    return tuple(tuple(row) for row in rows)


def rs_pair(columns):
    """Classical RS with recording for a two-line array of set blocks.

    columns: list of (top, bot); bottoms are inserted in the given order,
    tops are recorded.  Returns (P, Q) as tuples of row tuples.
    """
    p_rows, q_rows = [], []
    for top, bot in columns:
        i, j = _insert(p_rows, bot)
        while len(q_rows) <= i:
            q_rows.append([])
        if len(q_rows[i]) != j:
            raise RuntimeError("insertion cell (%d, %d) is not the end of "
                               "recording row %d" % (i, j, i))
        q_rows[i].append(top)
    return _freeze(p_rows), _freeze(q_rows)


def _nonprop_rows(blocks, r):
    """Group single-sided blocks by color into rows sorted by maximum."""
    out = [[] for _ in range(r)]
    for verts, c in blocks:
        out[c].append(verts)
    return tuple(tuple(sorted(row, key=_key)) for row in out)


def rs_forward(d):
    """Map a colored diagram to ((P, S), (Q, T)).

    P, Q are r-tuples of set-partition tableaux (tuples of row tuples); S, T
    are r-tuples of single rows (possibly empty) of set blocks.
    """
    r = d.r
    by_color = [[] for _ in range(r)]
    for c, top, bot in colored_array(d):
        by_color[c].append((top, bot))
    P, Q = [], []
    for cols in by_color:
        p, q = rs_pair(cols)
        P.append(p)
        Q.append(q)
    S = _nonprop_rows([(b, c) for t, b, c in d.blocks if b and not t], r)
    T = _nonprop_rows([(t, c) for t, b, c in d.blocks if t and not b], r)
    return (tuple(P), S), (tuple(Q), T)


def _reverse_insert(rows, i, j):
    """Remove the cell (i, j) (a corner) and reverse-bump; returns the
    expelled entry."""
    x = rows[i].pop(j)
    if not rows[i]:
        rows.pop(i)
    for a in range(i - 1, -1, -1):
        row = rows[a]
        # rightmost entry strictly smaller than x
        pos = None
        for b in range(len(row) - 1, -1, -1):
            if _key(row[b]) < _key(x):
                pos = b
                break
        if pos is None:
            raise ValueError("row %d has no entry below %r to bump out" % (a, x))
        row[pos], x = x, row[pos]
    return x


def rs_inverse(data, r, k, l):
    """Reconstruct the colored diagram from ((P, S), (Q, T))."""
    (P, S), (Q, T) = data
    columns = []
    for c in range(r):
        p_rows = [list(row) for row in P[c]]
        q_rows = [list(row) for row in Q[c]]
        cols = []
        while q_rows:
            # locate the largest recorded entry; it sits at a corner
            bi, bj, best = None, None, None
            for i, row in enumerate(q_rows):
                j = len(row) - 1
                if best is None or _key(row[j]) > _key(best):
                    bi, bj, best = i, j, row[j]
            top = q_rows[bi].pop(bj)
            if not q_rows[bi]:
                q_rows.pop(bi)
            bot = _reverse_insert(p_rows, bi, bj)
            cols.append((c, top, bot))
        cols.reverse()
        columns.extend(cols)
    blocks = [(top, bot, c) for c, top, bot in columns]
    for c in range(r):
        for verts in S[c]:
            blocks.append(((), verts, c))
        for verts in T[c]:
            blocks.append((verts, (), c))
    return ColoredDiagram(r, k, l, blocks)


def content(tableaux):
    """Content of an r-tuple of set-partition tableaux: the set of all
    entries.  Colors are merged on purpose: for the ideal relations the
    propagating parts may carry any color."""
    return frozenset(x for t in tableaux for row in t for x in row)


def green_invariants(d):
    """Invariants characterizing Green's relations: L, R and J keys."""
    (P, S), (Q, T) = rs_forward(d)
    size = sum(len(row) for t in P for row in t)
    return {
        "L": (content(P), S),
        "R": (content(Q), T),
        "J": size,
    }
