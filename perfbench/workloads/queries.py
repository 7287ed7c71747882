"""queries: one-shot requests through colorpart.cli.main, in-process with
click's CliRunner.

The only workload that measures cli parsing and output and the error
path.  It uses diagrams.compose differently from monoid: every compose,
rs and sw request is on random diagrams (about 2% of the small rs and sw
diagrams repeat by chance), and the count, thm-check and r-coeff inputs
are drawn without replacement, so a global interning table or a memo
cache keyed on a request's inputs gets almost no hits and its time or
memory cost shows in job_p50_ms and peak_rss_mb.  Reuse remains where it
is inherent: reduced-kronecker has only 64 triples for its 120 requests,
and the library's caches of sub-results (LR coefficients,
multipartitions, Bell numbers) are shared by requests in one process.
"""

import json
import random
from functools import partial

from click.testing import CliRunner

from colorpart import characters as C
from colorpart import cli as CLI
from colorpart import diagrams as D
from colorpart import ribbon as RB
from colorpart import rs as RS

from .common import (bell_by_stirling, compose_plain, multipartitions,
                     partitions, random_diagram_json)

REQUESTS = 4000
# kind -> share of requests
MIX = {"compose": 40, "rs": 15, "sw": 15, "count": 5, "psi-check": 5,
       "thm-check": 4, "r-coeff": 3, "reduced-kronecker": 3, "malformed": 10}
MALFORMED = ("bad-json", "arity-mismatch", "unknown-criterion", "cap-exceeded")


def _diagram(rng, lo, hi, square=False):
    r = rng.randint(2, 5)
    k = rng.randint(lo, hi)
    l = k if square else rng.randint(lo, hi)
    return random_diagram_json(rng, r, k, l)


def _pools(rng, kinds):
    """Inputs drawn without replacement: (k, r) pairs for count and the
    weight <= 2 triples shared by thm-check and r-coeff."""
    def draw(items, n):
        return iter(rng.sample(items, n))

    multis = [m for w in range(3) for m in multipartitions(2, w)]
    triples = [(a, b, c) for a in multis for b in multis for c in multis]
    return {
        "count": draw([(k, r) for k in range(301) for r in range(1, 6)],
                      kinds.count("count")),
        "triples": draw(triples, kinds.count("thm-check")
                        + kinds.count("r-coeff")),
    }


def _request(rng, kind, pools):
    """(args, env, expected exit code)."""
    if kind == "compose":
        d1 = _diagram(rng, 4, 12)
        r, m = d1["r"], rng.randint(4, 12)
        d2 = random_diagram_json(rng, r, d1["l"], m)
        return ["compose", "--d1", json.dumps(d1), "--d2", json.dumps(d2)], None, 0
    if kind in ("rs", "sw"):
        return [kind, "--diagram", json.dumps(_diagram(rng, 2, 6, True))], None, 0
    if kind == "count":
        k, r = next(pools["count"])
        return ["count", "--k", str(k), "--r", str(r)], None, 0
    if kind == "psi-check":
        return ["psi-check", "--samples", str(rng.randint(1, 5)),
                "--seed", str(rng.randrange(10**6))], None, 0
    if kind in ("thm-check", "r-coeff"):
        a, b, c = map(json.dumps, next(pools["triples"]))
        return [kind, "--r", "2", "--lam-bar", a, "--mu-bar", b,
                "--nu-bar", c], None, 0
    if kind == "reduced-kronecker":
        parts = [p for w in range(3) for p in partitions(w)]
        a, b, c = (json.dumps(rng.choice(parts)) for _ in range(3))
        return [kind, "--lam", a, "--mu", b, "--nu", c], None, 0
    bad = rng.choice(MALFORMED)
    if bad == "bad-json":
        return ["rs", "--diagram", '{"r": 2, "k": 1,'], None, 2
    if bad == "arity-mismatch":
        d1 = _diagram(rng, 4, 12)
        k2 = d1["l"] + rng.randint(1, 3)
        d2 = random_diagram_json(rng, d1["r"], k2, rng.randint(4, 12))
        return ["compose", "--d1", json.dumps(d1), "--d2", json.dumps(d2)], None, 2
    if bad == "unknown-criterion":
        return ["verify", "--suite", "no-such-criterion"], None, 2
    return (["green", "--k", "2", "--r", "2", "--relation", "L"],
            {"COLORPART_MONOID_CAP": "10"}, 2)


def make_inputs(seed):
    rng = random.Random(seed)
    kinds = [kind for kind, share in MIX.items()
             for _ in range(REQUESTS * share // 100)]
    rng.shuffle(kinds)
    pools = _pools(rng, kinds)
    return {"requests": [[kind] + list(_request(rng, kind, pools))
                         for kind in kinds]}


class Reply:
    __slots__ = ("exit_code", "stdout", "stderr", "traceback")

    def __init__(self, res):
        self.exit_code = res.exit_code
        self.stdout = res.stdout
        self.stderr = res.stderr
        self.traceback = (res.exception is not None
                          and not isinstance(res.exception, SystemExit))


def _invoke(runner, args, env):
    return Reply(runner.invoke(CLI.main, args, env=env))


def jobs(inp):
    runner = CliRunner()
    for kind, args, env, _ in inp["requests"]:
        yield "cli." + kind, partial(_invoke, runner, args, env)


def _plain(obj):
    """The JSON value of a library result (sets sorted by repr)."""
    def default(o):
        if isinstance(o, (set, frozenset)):
            return sorted(o, key=repr)
        raise TypeError(repr(o))
    return json.loads(json.dumps(obj, default=default))


def _triples(d):
    return [(b["top"], b["bot"], b["c"]) for b in d["blocks"]]


def _first(block):
    """The canonical block order: by least vertex, tops before bottoms."""
    top, bot, _ = block
    return min([(v, 0) for v in top] + [(v, 1) for v in bot])


def _option(args, name):
    return args[args.index(name) + 1]


def _expected(kind, args):
    """The direct library call (or identity) a successful request must
    agree with."""
    if kind == "compose":
        # a plain union-find composition stands in for diagrams.compose
        d1, d2 = (json.loads(_option(args, o)) for o in ("--d1", "--d2"))
        blocks, exps = compose_plain(d1["r"], _triples(d1), _triples(d2))
        return {"diagram": {"r": d1["r"], "k": d1["k"], "l": d2["l"],
                            "blocks": [{"top": t, "bot": b, "c": c}
                                       for t, b, c in sorted(blocks, key=_first)]},
                "exponents": list(exps)}
    if kind == "rs":
        (P, S), (Q, T) = RS.rs_forward(D.ColoredDiagram.from_json(args[2]))
        return {"P": P, "Q": Q, "S": S, "T": T}
    if kind == "sw":
        (P, S), (Q, T) = RB.sw_diagram(D.ColoredDiagram.from_json(args[2]))
        return {"P": RB.rt_rows(P), "Q": RB.rt_rows(Q),
                "S": RB.rt_rows(S), "T": RB.rt_rows(T)}
    if kind == "count":
        # the Stirling sum stands in for the library's count_bell
        return {"B": str(bell_by_stirling(int(_option(args, "--k")),
                                          int(_option(args, "--r"))))}
    if kind == "psi-check":
        # the expansion is multiplicative (c04): no sample may fail
        return {"samples": int(_option(args, "--samples")), "failures": 0,
                "ok": True}
    multis = [tuple(map(tuple, json.loads(_option(args, o))))
              for o in ("--lam-bar", "--mu-bar", "--nu-bar")
              if o in args]
    if kind == "thm-check":
        rep = C.theorem_formula_check(2, *multis)
        return {"lhs": rep["lhs"], "rhs": rep["rhs"], "equal": rep["ok"]}
    if kind == "r-coeff":
        return {"value": C.r_coefficient(2, *multis)}
    lam, mu, nu = (tuple(json.loads(_option(args, o)))
                   for o in ("--lam", "--mu", "--nu"))
    return {"value": C.reduced_kronecker(lam, mu, nu)}


def check(inp, records):
    """One ok flag per request: the exit code, no traceback, and for a
    valid request the JSON output equal to the direct library call; compose
    is compared with a plain union-find composition, count with the
    Stirling sum and psi-check with the c04 identity instead."""
    ok = []
    for (kind, args, _, exit_code), rec in zip(inp["requests"], records):
        reply = rec.result
        good = (rec.error is None and reply.exit_code == exit_code
                and not reply.traceback and "Traceback" not in reply.stderr)
        if good and exit_code == 0:
            try:
                good = json.loads(reply.stdout) == _plain(_expected(kind, args))
            except ValueError:
                good = False
        ok.append(good)
    return ok


def sizes(inp):
    counts = {}
    for kind, *_ in inp["requests"]:
        counts[kind] = counts.get(kind, 0) + 1
    return {"requests by kind": counts,
            "compose arities": "k,l,m in 4..12, r in 2..5",
            "rs/sw arities": "k = l in 2..6, r in 2..5",
            "count": "k <= 300, r <= 5, no (k, r) twice",
            "thm-check/r-coeff": "r = 2, weight <= 2, no triple twice",
            "reduced-kronecker": "weight <= 2, 64 triples"}
