"""Robinson-Schensted-type bijection for colored partition diagrams.

A colored diagram is encoded by its colored set-partition array: the
propagating parts sorted by the maximum entry of the top constituent, each
column holding (color, top block, bottom block).  Splitting the columns by
color and running classical RS per color (entries compared by their maximum
element, taken once per value as it enters insertion) gives r-tuples
(P, Q) of set-partition tableaux; the nonpropagating bottom/top blocks,
grouped by color into single rows sorted by maximum, give S and T.
d <-> ((P, S), (Q, T)) is a bijection.
"""

from .diagrams import ColoredDiagram


def _key(block):
    return max(block)


def _split(d):
    """One pass over d's blocks, each block's maximum taken once: the
    propagating columns (max top, color, top, bot) and the bottom-only and
    top-only blocks (max, color, verts), each list sorted by maximum."""
    cols, bots, tops = [], [], []
    for top, bot, c in d.blocks:
        if not top:
            bots.append((max(bot), c, bot))
        elif not bot:
            tops.append((max(top), c, top))
        else:
            cols.append((max(top), c, top, bot))
    cols.sort()
    bots.sort()
    tops.sort()
    return cols, bots, tops


def colored_array(d):
    """Columns (color, top, bot) of the propagating parts, sorted by the
    maximum entry of the top constituent."""
    return [col[1:] for col in _split(d)[0]]


def _insert(rows, x):
    """Classical row insertion of the pair x = (key, entry), compared by
    key; returns the position (i, j) of the new cell."""
    key = x[0]
    for i, row in enumerate(rows):
        # leftmost entry strictly bigger than x gets bumped
        for j, y in enumerate(row):
            if y[0] > key:
                row[j], x = x, y
                key = x[0]
                break
        else:
            row.append(x)
            return i, len(row) - 1
    rows.append([x])
    return len(rows) - 1, 0


def rs_pair(columns):
    """Classical RS with recording for a two-line array of set blocks.

    columns: list of (top, bot); bottoms are inserted in the given order,
    each keyed by its maximum once, and tops are recorded.  Returns (P, Q)
    as tuples of row tuples.
    """
    p_rows, q_rows = [], []
    for top, bot in columns:
        i, j = _insert(p_rows, (max(bot), bot))
        while len(q_rows) <= i:
            q_rows.append([])
        if len(q_rows[i]) != j:
            raise RuntimeError("insertion cell (%d, %d) is not the end of "
                               "recording row %d" % (i, j, i))
        q_rows[i].append(top)
    return (tuple(tuple(x for _, x in row) for row in p_rows),
            tuple(map(tuple, q_rows)))


def _nonprop_rows(blocks, r):
    """Group single-sided blocks (max, color, verts), sorted by maximum, by
    color into rows."""
    out = [[] for _ in range(r)]
    for _, c, verts in blocks:
        out[c].append(verts)
    return tuple(map(tuple, out))


def rs_forward(d):
    """Map a colored diagram to ((P, S), (Q, T)).

    P, Q are r-tuples of set-partition tableaux (tuples of row tuples); S, T
    are r-tuples of single rows (possibly empty) of set blocks.
    """
    r = d.r
    cols, bots, tops = _split(d)
    by_color = [[] for _ in range(r)]
    for _, c, top, bot in cols:
        by_color[c].append((top, bot))
    P, Q = zip(*(rs_pair(cols) if cols else ((), ()) for cols in by_color))
    return (P, _nonprop_rows(bots, r)), (Q, _nonprop_rows(tops, r))


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
