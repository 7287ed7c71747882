"""Command line interface: every operation as a subcommand with JSON I/O.

Exit codes: 0 on success, 1 when a requested verification fails, 2 on
usage errors (unknown subcommand, malformed JSON, exceeded cap).
"""

import inspect
import json
import sys

import click

from . import algebra, config, verify
from .characters import (_stability_bound, r_coefficient, reduced_kronecker,
                         theorem_formula_check)
from .cliparse import TableGroup
from .diagrams import ColoredDiagram, compose, count_bell
from .groupoid import psi_hom_check
from .modules_rep import (
    _factored_form,
    _label_factors,
    cartan_matrix,
    gram_matrix,
    semisimplicity_certificate,
)
from .ribbon import rt_rows, sw_diagram
from .rs import rs_forward


def _default(obj):
    if isinstance(obj, (set, frozenset)):
        return sorted(obj, key=repr)
    raise TypeError("not JSON serializable: %r" % (obj,))


_ENCODER = json.JSONEncoder(default=_default, sort_keys=True)


def emit(obj):
    """Write obj to stdout as one sorted-key ASCII JSON line and flush it.
    click.echo is not used: it caches each sys.stdout it resolves in a
    weak-key map whose value is the stream itself, so every stream an
    in-process caller swaps in (one per CliRunner.invoke) stays alive."""
    out = sys.stdout
    out.write(_ENCODER.encode(obj) + "\n")
    out.flush()


# Sizes are checked here, at the parse boundary, so the library never sees
# a negative arity or an empty color set.
ARITY = click.IntRange(min=0)
COLORS = click.IntRange(min=1)
POSITIVE = click.IntRange(min=1)


def _decimal(n):
    """str(n) for an int of any size: str() refuses more digits than
    sys.get_int_max_str_digits(), so convert in 1000-digit chunks."""
    chunks = []
    while n >= 10**1000:
        n, low = divmod(n, 10**1000)
        chunks.append("%01000d" % low)
    return str(n) + "".join(reversed(chunks))


def parse_json(text, what):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise click.UsageError("malformed JSON for %s: %s" % (what, exc))


def parse_diagram(text):
    data = parse_json(text, "diagram")
    try:
        return ColoredDiagram.from_json(data)
    except Exception as exc:
        raise click.UsageError("bad diagram: %s" % exc)


def _partition(data, what):
    """A JSON list of weakly decreasing non-negative ints (JSON booleans are
    not ints here), as a tuple without its trailing zero parts."""
    if (not isinstance(data, list) or any(type(p) is not int for p in data)
            or any(p < 0 for p in data)
            or any(a < b for a, b in zip(data, data[1:]))):
        raise click.UsageError(
            "bad %s: %s is not a weakly decreasing list of non-negative "
            "integers" % (what, json.dumps(data)))
    return tuple(p for p in data if p)


def parse_partition(text, what="partition"):
    return _partition(parse_json(text, what), what)


def parse_multipartition(text, r, what="multipartition"):
    data = parse_json(text, what)
    if not isinstance(data, list) or len(data) != r:
        raise click.UsageError("bad %s: need a list of r = %d partitions"
                               % (what, r))
    return tuple(_partition(lam, what) for lam in data)


def run_config(**overrides):
    """config.from_env, with a bad value reported as a usage error."""
    try:
        return config.from_env(**overrides)
    except (TypeError, ValueError) as exc:
        raise click.UsageError("bad configuration: %s" % exc)


def check_monoid_size(k, r):
    """Refuse a k whose monoid CPar_k exceeds the cap before any work: the
    cells of CPar_k have sum of (dim W)^2 = |CPar_k|."""
    try:
        algebra._monoid_size(k, r, run_config().monoid_cap)
    except algebra.CapExceeded as exc:
        raise click.UsageError("cap exceeded: %s" % exc)


def check_estimate(formula, estimate, unit):
    """Refuse a request before any work when its work estimate, the value
    of formula in unit, exceeds the monoid cap."""
    cap = run_config().monoid_cap
    if estimate > cap:
        raise click.UsageError("cap exceeded: %s = %d %s exceed cap %d"
                               % (formula, estimate, unit, cap))


def _class_counts(r, n, cap):
    """[c(0), c(1), ...], c(j) the number of r-multipartitions of j, which
    label the classes of G(r,j), by j c(j) = r sum_{i<=j} sigma(i) c(j-i);
    up to c(n), or to the first c(j) above cap, as c grows with j."""
    c = [1]
    while len(c) <= n and c[-1] <= cap:
        j = len(c)
        c.append(r * sum(sum(d for d in range(1, i + 1) if i % d == 0) * c[j - i]
                         for i in range(1, j + 1)) // j)
    return c


@click.group(cls=TableGroup)
def main():
    """Exact computations for colored partition diagram categories."""


@main.command("compose")
@click.option("--d1", required=True, help="first diagram as JSON")
@click.option("--d2", required=True, help="second diagram as JSON")
def cmd_compose(d1, d2):
    """Compose two colored diagrams; reports the diagram and the scalar
    exponents of the removed middle components."""
    a, b = parse_diagram(d1), parse_diagram(d2)
    try:
        prod, exps = compose(a, b)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    emit({"diagram": prod.to_json(), "exponents": list(exps)})


@main.command("count")
@click.option("--k", required=True, type=ARITY)
@click.option("--r", required=True, type=COLORS)
def cmd_count(k, r):
    """Colored Bell number: colored set partitions of k points."""
    check_estimate("k^2", k * k, "Bell-triangle additions")
    emit({"B": _decimal(count_bell(k, r))})


@main.command("present-check")
@click.option("--k", required=True, type=click.IntRange(min=1),
              help="k >= 1: the generator s0 needs a strand")
@click.option("--r", required=True, type=COLORS)
def cmd_present_check(k, r):
    """Check every instance of the defining monoid relations."""
    # relation (12) has about k r^2 / 2 letters over its instances
    check_estimate("k*r^2", k * r * r, "letters of relation (12)")
    rep = algebra.check_presentation(k, r)
    emit(rep)
    if not rep["ok"]:
        sys.exit(1)


@main.command("green")
@click.option("--k", required=True, type=ARITY)
@click.option("--r", required=True, type=COLORS)
@click.option("--relation", type=click.Choice(["L", "R", "J"]), required=True)
@click.option("--members", is_flag=True, help="include class members")
def cmd_green(k, r, relation, members):
    """Equivalence classes of a Green relation, as strongly connected
    components of the monoid's right and left Cayley graphs."""
    cfg = run_config()
    try:
        classes = algebra.green_classes(k, r, relation, cap=cfg.monoid_cap)
    except algebra.CapExceeded as exc:
        raise click.UsageError("cap exceeded: %s" % exc)
    # classes come in the repr order of their first members, which is the
    # repr order of the lists, as no member's repr is a prefix of another's
    classes = sorted(classes, key=len, reverse=True)
    out = {"k": k, "r": r, "relation": relation,
           "classes": len(classes), "sizes": [len(c) for c in classes]}
    if members:
        out["members"] = [[d.to_json() for d in c] for c in classes]
    emit(out)


@main.command("rs")
@click.option("--diagram", required=True, help="diagram as JSON")
def cmd_rs(diagram):
    """Row-insertion image ((P,S),(Q,T)) of a colored diagram."""
    d = parse_diagram(diagram)
    (P, S), (Q, T) = rs_forward(d)
    emit({"P": P, "Q": Q, "S": S, "T": T})


@main.command("sw")
@click.option("--diagram", required=True, help="diagram as JSON")
def cmd_sw(diagram):
    """Ribbon-insertion image of a colored diagram, as row grids."""
    d = parse_diagram(diagram)
    # each shape's table of addable r-ribbons holds r^2 cells
    check_estimate("(k+l)*r^2", (d.k + d.l) * d.r * d.r, "ribbon-table cells")
    (P, S), (Q, T) = sw_diagram(d)
    emit({"P": rt_rows(P), "Q": rt_rows(Q), "S": rt_rows(S), "T": rt_rows(T)})


def check_psi_size(k_max, r_max, cap):
    """Refuse a psi-check whose samples may expand past the cap before any
    sampling: a sample at r colors on m <= k_max bottom vertices expands
    into up to r^m terms, so r_max^k_max and k_max are each held to the
    cap.  For r_max >= 2, r_max^k_max >= 2^k_max and >= r_max, so a k_max
    of at least the cap's bit length, or an r_max past the cap, is refused
    before the power is formed."""
    if k_max > cap or r_max > 1 and (r_max > cap or k_max >= cap.bit_length()
                                     or r_max ** k_max > cap):
        raise click.UsageError("cap exceeded: psi-check needs k_max and "
                               "r_max^k_max at most cap %d, got k_max = %d, "
                               "r_max = %d" % (cap, k_max, r_max))


# an unset psi-check size takes psi_hom_check's default, the one c04 runs
_PSI_DEFAULTS = {name: p.default for name, p
                 in inspect.signature(psi_hom_check).parameters.items()}


@main.command("psi-check")
@click.option("--samples", type=POSITIVE, help="default: as in verify")
@click.option("--k-max", type=POSITIVE, help="default: as in verify")
@click.option("--r-max", type=POSITIVE, help="default: as in verify")
@click.option("--seed", type=int, default=None)
def cmd_psi_check(seed, **sizes):
    """Multiplicativity of the groupoid expansion on random pairs."""
    cfg = run_config(seed=seed)
    sizes = {k: _PSI_DEFAULTS[k] if v is None else v for k, v in sizes.items()}
    check_psi_size(sizes["k_max"], sizes["r_max"], cfg.monoid_cap)
    rep = psi_hom_check(seed=cfg.seed, **sizes)
    emit(rep)
    if not rep["ok"]:
        sys.exit(1)


@main.command("gram")
@click.option("--r", required=True, type=COLORS)
@click.option("--k", required=True, type=ARITY)
@click.option("--shape", required=True,
              help="multipartition as JSON, e.g. [[1],[]]")
def cmd_gram(r, k, shape):
    """Symbolic Gram matrix and determinant of a cell module."""
    lam_bar = parse_multipartition(shape, r)
    check_monoid_size(k, r)
    try:
        M = gram_matrix(r, k, lam_bar)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    emit({
        "shape": lam_bar,
        "dim": len(M),
        "matrix": [[repr(e) for e in row] for row in M],
        "det": _factored_form(r, _label_factors(r, k, lam_bar)),
    })


@main.command("semisimple")
@click.option("--r", required=True, type=COLORS)
@click.option("--k", required=True, type=ARITY)
@click.option("--x", required=True,
              help="parameter point, comma separated, e.g. 2,1")
def cmd_semisimple(r, k, x):
    """Evaluate all cell Gram determinants at a parameter point."""
    try:
        point = tuple(int(v) for v in x.split(","))
    except ValueError as exc:
        raise click.UsageError("bad parameter point: %s" % exc)
    check_monoid_size(k, r)
    try:
        cert = semisimplicity_certificate(r, k, point)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    emit({
        "r": r, "k": k, "x": list(point),
        "semisimple": cert["semisimple"],
        "dimension_identity": cert["dimension_identity"],
        "sum_dim_sq": cert["sum_dim_sq"],
        "bell": cert["bell"],
        "dets": {json.dumps(lam): {"det": det, "value": str(val)}
                 for lam, (det, val) in cert["dets"].items()},
    })


@main.command("cartan")
@click.option("--r", required=True, type=COLORS)
@click.option("--maxweight", required=True, type=click.IntRange(min=0))
def cmd_cartan(r, maxweight):
    """Cartan matrix entries for multipartitions up to a weight."""
    # each of the c(m) c(l) label pairs of weights m <= l sums the nonzero
    # fixed-point counts of its class pairs: about c(m) + c(l) <= 2 c(l) of
    # them, as measured at (1, <=9), (2, <=5) and (4,3)
    c = _class_counts(r, maxweight, run_config().monoid_cap)
    check_estimate("sum_{m<=l<=w} c(m) c(l)^2, c(n) the classes of G(r,n)",
                   sum(a * b * b for l, b in enumerate(c) for a in c[:l + 1]),
                   "class-pair terms")
    labels, B = cartan_matrix(r, maxweight)
    emit({
        "labels": labels,
        "matrix": [[B[(lam, mu)] for mu in labels] for lam in labels],
    })


@main.command("reduced-kronecker")
@click.option("--lam", required=True, help="partition as JSON, e.g. [2,1]")
@click.option("--mu", required=True)
@click.option("--nu", required=True)
def cmd_reduced_kronecker(lam, mu, nu):
    """Stable Kronecker coefficient of three partitions."""
    triple = parse_partition(lam), parse_partition(mu), parse_partition(nu)
    # one character product per class of S_n, n the stability bound
    n = _stability_bound(*triple)
    p = _class_counts(1, n, run_config().monoid_cap)
    check_estimate("p(%d), n = %d the stability bound" % (len(p) - 1, n), p[-1],
                   "classes of S_n")
    emit({"value": reduced_kronecker(*triple)})


@main.command("r-coeff")
@click.option("--r", required=True, type=COLORS)
@click.option("--lam-bar", required=True, help="multipartition as JSON")
@click.option("--mu-bar", required=True)
@click.option("--nu-bar", required=True)
def cmd_r_coeff(r, lam_bar, mu_bar, nu_bar):
    """Structure constant in the simple-module basis, via the LR/K sum."""
    value = r_coefficient(r, parse_multipartition(lam_bar, r),
                          parse_multipartition(mu_bar, r),
                          parse_multipartition(nu_bar, r))
    emit({"value": value})


@main.command("thm-check")
@click.option("--r", required=True, type=COLORS)
@click.option("--example", type=click.Choice(["paper"]), default=None,
              help="use the bundled r=3 worked example")
@click.option("--lam-bar", default=None)
@click.option("--mu-bar", default=None)
@click.option("--nu-bar", default=None)
def cmd_thm_check(r, example, lam_bar, mu_bar, nu_bar):
    """Check the product of reduced Kronecker coefficients against the
    LR/K structure constant."""
    if example:
        bars = [name for name, v in zip(("--lam-bar", "--mu-bar", "--nu-bar"),
                                        (lam_bar, mu_bar, nu_bar)) if v is not None]
        if bars:
            raise click.UsageError("--example conflicts with %s" % ", ".join(bars))
        if r != 3:
            raise click.UsageError("the bundled example needs --r 3")
        triple = verify.FORMULA_EXAMPLE_R3
    else:
        if not (lam_bar and mu_bar and nu_bar):
            raise click.UsageError(
                "need --lam-bar/--mu-bar/--nu-bar or --example")
        triple = (parse_multipartition(lam_bar, r),
                  parse_multipartition(mu_bar, r),
                  parse_multipartition(nu_bar, r))
    rep = theorem_formula_check(r, *triple)
    emit({"lhs": rep["lhs"], "rhs": rep["rhs"], "equal": rep["ok"]})
    if not rep["ok"]:
        sys.exit(1)


@main.command("verify")
@click.option("--suite", default="all",
              help="'all' or comma separated criterion names")
@click.option("--seed", type=int, default=None)
def cmd_verify(suite, seed):
    """Run the acceptance suite; reports per-criterion pass/fail."""
    cfg = run_config(seed=seed)
    only = None if suite == "all" else {s.strip() for s in suite.split(",")}
    try:
        report = verify.run_all(cfg, only=only)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    except algebra.CapExceeded as exc:
        raise click.UsageError("cap exceeded: %s" % exc)
    emit(report)
    if not report["ok"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
