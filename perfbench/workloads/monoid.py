"""monoid: compose-heavy traffic over small closed monoids, heavy reuse.

diagrams and algebra do almost all of the work; scalars and characters
almost none.  A monoid kernel (interning, Cayley graphs) shows its gain
here, and a scalar change should show no change.  Criteria c02, c03, c05,
c06, c07 and c08 supply the oracles.
"""

import random
from functools import partial

from colorpart import algebra as A
from colorpart import diagrams as D
from colorpart import ribbon as RB
from colorpart import rs as RS
from colorpart import verify as V

from .common import bell_by_stirling, compose_plain

# (r, k) of CPar_k swept by rs and sw: the c06 roundtrip ranges
SWEEPS = [(1, k) for k in range(4)] + [(2, k) for k in range(4)] + \
         [(3, k) for k in range(3)]
FACTOR = (2, 3)             # all of CPar_3 at r = 2 (c05)
COMPOSE_PAIRS = 2000        # seeded pairs from CPar_3 at r = 2
PRESENTATION = [(k, r) for k in range(1, 5) for r in range(1, 5)]
CLOSURE = [(2, 3), (3, 2)]  # (k, r)
GREEN = [(1, r, rel) for r in range(2, 6) for rel in "LRJ"] + \
        [(1, 6, "L"), (1, 6, "R"), (2, 2, "L"), (2, 2, "R")]
GREEN_MONOIDS = sorted({(r, k) for k, r, _ in GREEN})   # (r, k)
# (r, k) of every monoid enumerated: the sweeps, then the Green's cases
ENUMERATED = SWEEPS + [m for m in GREEN_MONOIDS if m not in SWEEPS]


def make_inputs(seed):
    rng = random.Random(seed)
    orders = {}
    for r, k in SWEEPS:
        idx = list(range(bell_by_stirling(2 * k, r)))
        rng.shuffle(idx)
        orders["%d,%d" % (r, k)] = idx
    n = bell_by_stirling(2 * FACTOR[1], FACTOR[0])
    factor = list(range(n))
    rng.shuffle(factor)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(COMPOSE_PAIRS)]
    return {"sweep_orders": orders, "factor_order": factor,
            "compose_pairs": pairs}


def _enumerate(r, k):
    return list(D.enumerate_diagrams(r, k, k))


def jobs(inp):
    elems = {}
    for r, k in ENUMERATED:
        elems[r, k] = yield "enumerate_diagrams", partial(_enumerate, r, k)
    yield "compose", partial(D.compose, V.COMPOSE_D1, V.COMPOSE_D2)
    yield "rs_forward", partial(RS.rs_forward, V.BIJECTION_DIAGRAM)
    yield "sw_diagram", partial(RB.sw_diagram, V.BIJECTION_DIAGRAM)
    for r, k in SWEEPS:
        for i in inp["sweep_orders"]["%d,%d" % (r, k)]:
            yield "rs_forward", partial(RS.rs_forward, elems[r, k][i])
    for r, k in SWEEPS:
        for i in inp["sweep_orders"]["%d,%d" % (r, k)]:
            yield "sw_diagram", partial(RB.sw_diagram, elems[r, k][i])
    cpar = elems[FACTOR]
    for i in inp["factor_order"]:
        yield "factor_triangular", partial(D.factor_triangular, cpar[i])
    for i, j in inp["compose_pairs"]:
        yield "compose", partial(D.compose, cpar[i], cpar[j])
    for k, r in PRESENTATION:
        yield "check_presentation", partial(A.check_presentation, k, r)
    for k, r in CLOSURE:
        yield "generated_closure", partial(A.generated_closure, k, r)
    for r, k in GREEN_MONOIDS:
        for d in elems[r, k]:
            yield "green_invariants", partial(RS.green_invariants, d)
    for k, r, rel in GREEN:
        yield "green_classes", partial(A.green_classes, k, r, rel)


def check(inp, records):
    """One ok flag per job.  Oracles: Stirling sums for the monoid sizes,
    rs and the triangular factorization by roundtrip, sw by injectivity
    with B_{2k,r} images, compose by a plain union-find composition and
    the anti-involution flip_keep, the
    frozen worked examples of verify, and Green's classes against the
    classes the rs tableau invariants induce (as in c08)."""
    ok = []
    it = iter(records)
    elems = {}
    for r, k in ENUMERATED:
        rec = next(it)
        d = rec.result
        elems[r, k] = d
        ok.append(rec.error is None and len(d) == len(set(d))
                  == bell_by_stirling(2 * k, r))
    rec = next(it)
    ok.append(rec.result == (V.COMPOSE_PRODUCT, V.COMPOSE_EXPONENTS))
    rec = next(it)
    ok.append(rec.error is None
              and rec.result == ((V.RS_P, V.RS_S), (V.RS_Q, V.RS_T)))
    rec = next(it)
    ok.append(rec.error is None
              and tuple(map(RB.rt_rows, rec.result[0] + rec.result[1]))
              == (V.SW_P_STEPS[-1], V.SW_S_ROWS, V.SW_Q_STEPS[-1], V.SW_T_ROWS))
    for r, k in SWEEPS:
        for i in inp["sweep_orders"]["%d,%d" % (r, k)]:
            rec = next(it)
            ok.append(rec.error is None
                      and RS.rs_inverse(rec.result, r, k, k) == elems[r, k][i])
    for r, k in SWEEPS:
        order = inp["sweep_orders"]["%d,%d" % (r, k)]
        recs = [next(it) for _ in order]
        keys = [RB.sw_image_key(rec.result) if rec.error is None else None
                for rec in recs]
        seen = {}
        for key in keys:
            seen[key] = seen.get(key, 0) + 1
        all_images = len(seen) == bell_by_stirling(2 * k, r)
        ok.extend(key is not None and seen[key] == 1 and all_images
                  for key in keys)
    cpar = elems[FACTOR]
    for i in inp["factor_order"]:
        ok.append(_factor_ok(cpar[i], next(it)))
    for i, j in inp["compose_pairs"]:
        ok.append(_compose_ok(cpar[i], cpar[j], next(it)))
    for k, r in PRESENTATION:
        rec = next(it)
        ok.append(rec.error is None and rec.result["ok"]
                  and rec.result["checked"] > 0 and not rec.result["failures"])
    for k, r in CLOSURE:
        rec = next(it)
        full = set(D.enumerate_diagrams(r, k, k))
        ok.append(rec.error is None and rec.result == full
                  and len(full) == bell_by_stirling(2 * k, r))
    invariants = {}
    for r, k in GREEN_MONOIDS:
        recs = [next(it) for _ in elems[r, k]]
        invariants[r, k] = {d: rec.result for d, rec in zip(elems[r, k], recs)}
        # an invariant is checked by the classes it induces, below
        ok.extend(rec.error is None for rec in recs)
    for k, r, rel in GREEN:
        rec = next(it)
        by_key = {}
        for d, inv in invariants[r, k].items():
            by_key.setdefault(inv[rel], set()).add(d)
        same = (rec.error is None
                and {frozenset(c) for c in rec.result}
                == {frozenset(c) for c in by_key.values()}
                and sum(len(c) for c in rec.result) == len(invariants[r, k]))
        ok.append(same)
    return ok


def _factor_ok(d, rec):
    if rec.error is not None:
        return False
    d1, d0, d2 = rec.result
    m = d.rank()
    p01, e1 = D.compose(d1, d0)
    back, e2 = D.compose(p01, d2)
    return (d1.is_normally_ordered_up() and d2.is_normally_ordered_down()
            and d0.rank() == m == d0.k == d0.l == d1.l == d2.k
            and back == d and not any(e1) and not any(e2))


def _compose_ok(a, b, rec):
    """Against a plain union-find composition, and the anti-involution
    flip_keep(a o b) = flip_keep(b) o flip_keep(a) with exponents kept."""
    if rec.error is not None:
        return False
    prod, exps = rec.result
    flipped = D.compose(D.flip_keep(b), D.flip_keep(a))
    return (flipped == (D.flip_keep(prod), exps)
            and (set(prod.blocks), exps)
            == compose_plain(a.r, a.blocks, b.blocks))


def sizes(inp):
    out = {"|CPar_%d| r=%d" % (k, r): bell_by_stirling(2 * k, r)
           for r, k in SWEEPS}
    out["compose pairs from CPar_3 r=2"] = len(inp["compose_pairs"])
    out["presentation (k,r)"] = "k,r <= 4"
    out["closure (k,r)"] = CLOSURE
    out["green (k,r,relation)"] = GREEN
    return out
