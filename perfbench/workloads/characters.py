"""characters: character theory.

characters does most of the work: xt_act and the fixed-point sweeps of
the X^t oracle, the wreath character tables, and the reduced-Kronecker
and LR paths.  It shares CycNumber with cellular, so a scalar change that
helps MPoly but costs CycNumber shows here.  diagrams is not used at all.
Criteria c09 and c10 supply the oracles.
"""

import random
from fractions import Fraction
from functools import partial
from math import factorial

from colorpart import characters as C

from .common import multipartitions, stratified_sample

R = 2
XT_SIZE_MAX = 2
# The (2,2,2) blocks cost far more per triple than the rest (t=0: 20 s for
# all 125); a seeded share of each cost stratum keeps a run short and its
# work the same from seed to seed.
XT_FULL_SHARE = {0: Fraction(1, 16), 2: Fraction(1, 8)}   # t -> share
TABLES = [(2, 3), (3, 2), (4, 2)]                          # (r, n)
THEOREM_WEIGHT = 3
THEOREM_TRIPLES = 220


def _admissible(l, m, n):
    top = min(l + m - n, l + n - m, m + n - l)
    return [t for t in range(top + 1) if (t - (l + m + n)) % 2 == 0]


def _two_colour(lam_bar):
    return sum(1 for lam in lam_bar if lam)


def make_inputs(seed):
    rng = random.Random(seed)
    xt = []
    for l in range(XT_SIZE_MAX + 1):
        for m in range(XT_SIZE_MAX + 1):
            for n in range(XT_SIZE_MAX + 1):
                for t in _admissible(l, m, n):
                    triples = [(a, b, c) for a in multipartitions(R, l)
                               for b in multipartitions(R, m)
                               for c in multipartitions(R, n)]
                    if l == m == n == XT_SIZE_MAX:
                        triples = stratified_sample(
                            rng, triples,
                            lambda x: tuple(map(_two_colour, x)),
                            XT_FULL_SHARE[t])
                    xt += [[t, a, b, c] for a, b, c in triples]
    rng.shuffle(xt)
    eq = multipartitions(R, THEOREM_WEIGHT)
    every = [(a, b, c) for a in eq for b in eq for c in eq]
    return {"xt": xt, "theorem": rng.sample(every, THEOREM_TRIPLES)}


def jobs(inp):
    for t, a, b, c in inp["xt"]:
        yield "xt_multiplicity_oracle", partial(
            C.xt_multiplicity_oracle, R, a, b, c, t)
    for r, n in TABLES:
        yield "wreath_char_table", partial(C.wreath_char_table, r, n)
    for a, b, c in inp["theorem"]:
        yield "theorem_formula_check", partial(
            C.theorem_formula_check, R, a, b, c)


def check(inp, records):
    """One ok flag per job.  Oracles: the X^t oracle against the LR/K
    formula, row orthogonality of the character tables with as many rows
    as classes, and the coefficient identity's two independent sides."""
    ok = []
    it = iter(records)
    for t, a, b, c in inp["xt"]:
        rec = next(it)
        ok.append(rec.error is None
                  and rec.result == C.xt_formula(R, a, b, c, t))
    for r, n in TABLES:
        rec = next(it)
        ok.append(rec.error is None and _orthogonal(r, n, *rec.result))
    for _ in inp["theorem"]:
        rec = next(it)
        ok.append(rec.error is None and rec.result["ok"]
                  and rec.result["lhs"] == rec.result["rhs"])
    return ok


def _orthogonal(r, n, reps, class_sizes, table):
    order = r**n * factorial(n)
    labels = multipartitions(r, n)
    if sorted(table) != sorted(labels) or len(reps) != len(labels) \
            or sum(class_sizes.values()) != order:
        return False
    for lam in labels:
        for mu in labels:
            total = sum((table[lam][t] * table[mu][t].conjugate() * size
                         for t, size in class_sizes.items()),
                        table[lam][next(iter(class_sizes))] * 0)
            if total != (order if lam == mu else 0):
                return False
    return True


def xt_size(r, l, m, n, t):
    """|X^t| = l! m! n! / (a! b! c! t!) * r^(a+b+c+t)."""
    a, b, c = (m + n - l - t) // 2, (l + n - m - t) // 2, (l + m - n - t) // 2
    return (factorial(l) * factorial(m) * factorial(n)
            // (factorial(a) * factorial(b) * factorial(c) * factorial(t))
            * r ** (a + b + c + t))


def sizes(inp):
    blocks = {}
    for t, a, b, c in inp["xt"]:
        key = (sum(map(sum, a)), sum(map(sum, b)), sum(map(sum, c)), t)
        blocks[key] = blocks.get(key, 0) + 1
    return {
        "xt blocks (l,m,n,t): triples, |X^t|": {
            "%d,%d,%d,%d" % key: [count, xt_size(R, *key)]
            for key, count in sorted(blocks.items())},
        "wreath tables (r,n): |G(r,n)|": {
            "%d,%d" % (r, n): r**n * factorial(n) for r, n in TABLES},
        "theorem triples (r=2, weight 3)": len(inp["theorem"]),
    }
