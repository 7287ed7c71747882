"""Verification suite: every headline identity checked against fixtures.

Each check_* function runs one criterion and returns a small report dict
with an "ok" flag plus the data that was compared.  run_all drives the
whole suite (this is what `colorpart verify` executes) and names each
report by its entry in CHECKS.  The module-level constants are frozen
worked examples: exact inputs together with their expected outputs, used
as ground truth alongside the independent re-computations inside each
check.
"""

import time
from itertools import product
from math import factorial, prod

from . import algebra, config
from .characters import (
    admissible_set,
    multipartitions,
    g_elements,
    r_coefficient,
    reduced_kronecker,
    theorem_formula_check,
    weight,
    wreath_char_table,
    xt_formula,
    xt_multiplicity_oracle,
)
from .diagrams import (
    ColoredDiagram,
    compose,
    count_bell,
    egf_coefficients,
    enumerate_diagrams,
    factor_triangular,
    stirling2,
)
from .groupoid import gsum_equal, hom_dimension_check, psi, psi_hom_check
from .modules_rep import (
    _label_compositions,
    _label_factors,
    cartan_matrix,
    cartan_tensor_check,
    cell_dimension,
    det_bareiss,
    gram_det,
    gram_matrix,
    semisimplicity_certificate,
)
from .ribbon import insert, rt_rows, sw_diagram, sw_image_key
from .rs import colored_array, green_invariants, rs_forward, rs_inverse
from .scalars import MPoly, eval_many, zeta_pow


# -- frozen worked examples ----------------------------------------------------

# r = 5 composition: d1 (7x8) o d2 (8x6) = x2 * x3^2 * (product diagram)
COMPOSE_D1 = ColoredDiagram(5, 7, 8, [
    ((1,), (2,), 1),
    ((2,), (1,), 2),
    ((3, 4), (), 4),
    ((5,), (3,), 4),
    ((), (4, 5), 1),
    ((), (7, 8), 2),
    ((6,), (), 3),
    ((7,), (), 0),
    ((), (6,), 0),
])
COMPOSE_D2 = ColoredDiagram(5, 8, 6, [
    ((1, 2), (), 1),
    ((3,), (3,), 2),
    ((4, 5), (), 2),
    ((7, 8), (), 1),
    ((), (4, 6), 1),
    ((), (2,), 1),
    ((6,), (), 2),
    ((), (1,), 0),
    ((), (5,), 0),
])
COMPOSE_PRODUCT = ColoredDiagram(5, 7, 6, [
    ((1, 2), (), 4),
    ((3, 4), (), 4),
    ((5,), (3,), 1),
    ((), (4, 6), 1),
    ((), (2,), 1),
    ((6,), (), 3),
    ((7,), (), 0),
    ((), (1,), 0),
    ((), (5,), 0),
])
COMPOSE_EXPONENTS = (0, 0, 1, 2, 0)

# r = 2 groupoid expansion of a 3-block downward diagram: 8 terms, with
# coefficient zeta^(j2) for the coloring (j1, j2, j3)
PSI_INPUT = ColoredDiagram(2, 2, 4, [
    ((1,), (1, 2), 0),
    ((2,), (3,), 1),
    ((), (4,), 0),
])


def psi_expected_terms():
    return {ColoredDiagram(2, 2, 4, [((1,), (1, 2), j1), ((2,), (3,), j2), ((), (4,), j3)]):
            zeta_pow(2, j2) for j1, j2, j3 in product(range(2), repeat=3)}


# r = 5 diagram on 11 + 11 vertices driving both Schensted-type bijections
BIJECTION_DIAGRAM = ColoredDiagram(5, 11, 11, [
    ((1,), (5,), 0),
    ((2,), (3,), 2),
    ((3,), (1,), 3),
    ((4,), (4,), 0),
    ((5, 7), (2,), 1),
    ((6, 9), (6, 8), 2),
    ((8,), (), 0),
    ((10, 11), (), 1),
    ((), (9,), 0),
    ((), (7, 10), 2),
    ((), (11,), 1),
])

# its colored set-partition array (columns sorted by max of the top block)
BIJECTION_ARRAY = (
    (0, (1,), (5,)),
    (2, (2,), (3,)),
    (3, (3,), (1,)),
    (0, (4,), (4,)),
    (1, (5, 7), (2,)),
    (2, (6, 9), (6, 8)),
)

# row insertion per color: insertion/recording tableaux and the
# nonpropagating rows, all grouped by color
RS_P = ((((4,),), ((5,),)), (((2,),),), (((3,), (6, 8)),), (((1,),),), ())
RS_Q = ((((1,),), ((4,),)), (((5, 7),),), (((2,), (6, 9)),), (((3,),),), ())
RS_S = (((9,),), ((11,),), ((7, 10),), (), ())
RS_T = (((8,),), ((10, 11),), (), (), ())

# ribbon insertion: row grids of P_j / Q_j after each of the six columns
SW_P_STEPS = (
    (((5,), (5,), (5,), (5,), (5,)),),
    (((3,), (3,), (3,), (5,), (5,)),
     ((3,), (5,), (5,), (5,)),
     ((3,),)),
    (((1,), (1,), (3,), (5,), (5,)),
     ((1,), (3,), (3,), (5,)),
     ((1,), (3,), (5,), (5,)),
     ((1,), (3,))),
    (((1,), (1,), (3,), (4,), (4,), (4,), (4,), (4,)),
     ((1,), (3,), (3,), (5,), (5,), (5,)),
     ((1,), (3,), (5,), (5,)),
     ((1,), (3,))),
    (((1,), (1,), (2,), (2,), (2,), (4,), (4,), (4,)),
     ((1,), (2,), (2,), (3,), (4,), (4,)),
     ((1,), (3,), (3,), (3,), (5,), (5,)),
     ((1,), (3,), (5,), (5,), (5,))),
    (((1,), (1,), (2,), (2,), (2,), (4,), (4,), (4,), (6, 8)),
     ((1,), (2,), (2,), (3,), (4,), (4,), (6, 8), (6, 8), (6, 8)),
     ((1,), (3,), (3,), (3,), (5,), (5,), (6, 8)),
     ((1,), (3,), (5,), (5,), (5,))),
)
SW_Q_STEPS = (
    (((1,), (1,), (1,), (1,), (1,)),),
    (((1,), (1,), (1,), (1,), (1,)),
     ((2,), (2,), (2,), (2,)),
     ((2,),)),
    (((1,), (1,), (1,), (1,), (1,)),
     ((2,), (2,), (2,), (2,)),
     ((2,), (3,), (3,), (3,)),
     ((3,), (3,))),
    (((1,), (1,), (1,), (1,), (1,), (4,), (4,), (4,)),
     ((2,), (2,), (2,), (2,), (4,), (4,)),
     ((2,), (3,), (3,), (3,)),
     ((3,), (3,))),
    (((1,), (1,), (1,), (1,), (1,), (4,), (4,), (4,)),
     ((2,), (2,), (2,), (2,), (4,), (4,)),
     ((2,), (3,), (3,), (3,), (5, 7), (5, 7)),
     ((3,), (3,), (5, 7), (5, 7), (5, 7))),
    (((1,), (1,), (1,), (1,), (1,), (4,), (4,), (4,), (6, 9)),
     ((2,), (2,), (2,), (2,), (4,), (4,), (6, 9), (6, 9), (6, 9)),
     ((2,), (3,), (3,), (3,), (5, 7), (5, 7), (6, 9)),
     ((3,), (3,), (5, 7), (5, 7), (5, 7))),
)
SW_S_ROWS = (((9,), (9,), (9,), (9,), (9,), (11,), (11,)),
             ((7, 10), (7, 10), (7, 10), (11,), (11,), (11,)),
             ((7, 10),),
             ((7, 10),))
SW_T_ROWS = (((8,), (8,), (8,), (8,), (8,)),
             ((10, 11), (10, 11), (10, 11), (10, 11)),
             ((10, 11),))

# r = 3 coefficient identity instance: both sides equal 1
FORMULA_EXAMPLE_R3 = (
    ((), (1, 1), ()),
    ((), (2,), ()),
    ((), (2,), ()),
)

# expected Gram matrices for k = 1, r = 2, by cell label
GRAM_K1_R2 = {
    ((), ()): ((MPoly.variable(2, 0), MPoly.variable(2, 1)),
               (MPoly.variable(2, 1), MPoly.variable(2, 0))),
    ((1,), ()): ((MPoly.one(2),),),
    ((), (1,)): ((MPoly.one(2),),),
}

# points off every wall t_j in 0..2k-2, t_j = yhat_{-j}/r, where c12 checks
# the label factors against elimination of the evaluated Gram matrices
LABEL_POINTS = {(2, 3): (5, 2), (4, 2): (3, 1, 2, 5)}


# -- criteria ------------------------------------------------------------------


def check_composition(cfg):
    """Worked r = 5 composition reproduced exactly, scalar included."""
    prod, exps = compose(COMPOSE_D1, COMPOSE_D2)
    ok = prod == COMPOSE_PRODUCT and exps == COMPOSE_EXPONENTS
    return {"ok": ok, "exponents": list(exps)}


def check_counting(cfg):
    """Monoid sizes, Stirling sums and the EGF recurrence (k <= 10, r <= 4)
    agree."""
    frozen = {(1, 1): 2, (1, 2): 6, (2, 2): 94, (2, 3): 309, (3, 2): 2430}
    sizes = {}
    ok = True
    for k, r in [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 2)]:
        n = len(algebra.enumerate_monoid(k, r, cap=cfg.monoid_cap))
        stirling = sum(stirling2(2 * k, j) * r**j for j in range(2 * k + 1))
        sizes[(k, r)] = n
        ok = ok and n == count_bell(2 * k, r) == stirling == frozen.get((k, r), n)
    egf_ok = all(
        egf_coefficients(r, 10) == [count_bell(k, r) for k in range(11)]
        for r in range(1, 5)
    )
    return {"ok": ok and egf_ok,
            "sizes": {"%d,%d" % kr: n for kr, n in sizes.items()},
            "egf_ok": egf_ok}


def check_presentation(cfg):
    """All defining relations hold for k, r <= 4; the generators generate."""
    reps = {(k, r): algebra.check_presentation(k, r) for k in range(1, 5) for r in range(1, 5)}
    reports = [{"k": k, "r": r, "checked": rep["checked"], "failures": rep["failures"]}
               for (k, r), rep in reps.items()]
    ok = all(rep["ok"] for rep in reps.values())
    closures = {}
    for k, r in [(2, 3), (3, 2), (4, 1)]:
        closed = algebra.generated_closure(k, r, cap=cfg.monoid_cap)
        full = algebra.enumerate_monoid(k, r, cap=cfg.monoid_cap)
        closures["%d,%d" % (k, r)] = len(closed)
        ok = ok and closed == full
    return {"ok": ok, "relations": reports, "closure_sizes": closures}


def check_groupoid(cfg):
    """Expansion is multiplicative on psi_hom_check's default sample; the
    8-term figure and the dimensions for l <= k <= 3, r <= 3 match."""
    hom = psi_hom_check(seed=cfg.seed)
    figure_ok = gsum_equal(psi(PSI_INPUT), psi_expected_terms())
    dims = [hom_dimension_check(l, k, r)
            for k in range(4) for l in range(k + 1) for r in range(1, 4)]
    dims_ok = all(rep["ok"] for rep in dims)
    return {"ok": hom["ok"] and figure_ok and dims_ok,
            "hom_samples": hom, "figure_ok": figure_ok, "dimensions": dims}


def _perm_diagram(r, n, g):
    """g = (colors, tau) of G(r,n) as a diagram: bottom u joins top tau(u), in its color."""
    f, tau = g
    return ColoredDiagram(r, n, n, [((p,), (u,), f[p - 1]) for u, p in enumerate(tau, start=1)])


def check_triangular(cfg):
    """Every diagram factors as up x group x down, uniquely."""
    r, k = 2, 3
    monoid = set(enumerate_diagrams(r, k, k))
    ok = True
    for d in monoid:
        d1, d0, d2 = factor_triangular(d)
        m = d.rank()
        ok = ok and d1.is_normally_ordered_up() and d1.l == m
        ok = ok and d2.is_normally_ordered_down() and d2.k == m
        ok = ok and d0.rank() == m == d0.k == d0.l
        p01, e1 = compose(d1, d0)
        back, e2 = compose(p01, d2)
        ok = ok and back == d and not any(e1) and not any(e2)
        if not ok:
            break
    # uniqueness: the structured triples biject onto the whole monoid
    products = set()
    total = 0
    for m in range(k + 1):
        ups = [d for d in enumerate_diagrams(r, k, m)
               if d.is_normally_ordered_up() and d.rank() == m]
        downs = [d for d in enumerate_diagrams(r, m, k)
                 if d.is_normally_ordered_down() and d.rank() == m]
        groups = [_perm_diagram(r, m, g) for g in g_elements(r, m)]
        for d1 in ups:
            for d0 in groups:
                p01, e1 = compose(d1, d0)
                ok = ok and not any(e1)
                for d2 in downs:
                    total += 1
                    back, e2 = compose(p01, d2)
                    ok = ok and not any(e2)
                    products.add(back)
    unique = total == len(products) == len(monoid) and products == monoid
    return {"ok": ok and unique, "monoid": len(monoid), "triples": total}


def check_rs(cfg):
    """Row-insertion bijection: exact worked example plus full roundtrips."""
    (P, S), (Q, T) = rs_forward(BIJECTION_DIAGRAM)
    example_ok = (
        (P, Q, S, T) == (RS_P, RS_Q, RS_S, RS_T)
        and tuple(colored_array(BIJECTION_DIAGRAM)) == BIJECTION_ARRAY
        and rs_inverse(((P, S), (Q, T)), 5, 11, 11) == BIJECTION_DIAGRAM
    )
    counts = {}
    ok = example_ok
    for r, k_max in [(1, 3), (2, 3), (3, 2)]:
        for k in range(k_max + 1):
            n = 0
            for d in enumerate_diagrams(r, k, k):
                n += 1
                if rs_inverse(rs_forward(d), r, k, k) != d:
                    ok = False
            counts["%d,%d" % (k, r)] = n
    return {"ok": ok, "example_ok": example_ok, "roundtrips": counts}


def check_sw(cfg):
    """Ribbon insertion: worked trace, then injectivity with full counts on
    G(r,n) for n <= 4, r <= 3 and on CPar_k for k <= 3, r <= 2."""
    # stepwise trace of the worked example
    r = BIJECTION_DIAGRAM.r
    P, Q = {}, {}
    trace_ok = True
    for step, (c, label, v) in enumerate(BIJECTION_ARRAY):
        P, Q[label] = insert(P, c, v, r)
        trace_ok = trace_ok and rt_rows(P) == SW_P_STEPS[step]
        trace_ok = trace_ok and rt_rows(Q) == SW_Q_STEPS[step]
    (_, S), (_, T) = sw_diagram(BIJECTION_DIAGRAM)
    trace_ok = trace_ok and rt_rows(S) == SW_S_ROWS and rt_rows(T) == SW_T_ROWS

    groups_ok = True
    group_counts = {}
    for n in range(5):
        for rr in range(1, 4):
            images = {sw_image_key(sw_diagram(_perm_diagram(rr, n, g)))
                      for g in g_elements(rr, n)}
            group_counts["%d,%d" % (n, rr)] = len(images)
            groups_ok = groups_ok and len(images) == len(g_elements(rr, n))
    diagrams_ok = True
    diagram_counts = {}
    for k in range(4):
        for rr in range(1, 3):
            images = {sw_image_key(sw_diagram(d))
                      for d in enumerate_diagrams(rr, k, k)}
            diagram_counts["%d,%d" % (k, rr)] = len(images)
            diagrams_ok = diagrams_ok and len(images) == count_bell(2 * k, rr)
    return {"ok": trace_ok and groups_ok and diagrams_ok,
            "trace_ok": trace_ok, "group_images": group_counts,
            "diagram_images": diagram_counts}


def check_green(cfg):
    """Cayley-graph L/R/J classes equal the tableau-invariant classes."""
    details = []
    ok = True
    for k, r in [(2, 2), (1, 3), (2, 3), (3, 2), (4, 1), (3, 3)]:
        elems = algebra.enumerate_monoid(k, r, cap=cfg.monoid_cap)
        invariants = {d: green_invariants(d) for d in elems}
        for rel in ("L", "R", "J"):
            graph = {frozenset(c) for c in algebra.green_classes(
                k, r, rel, cap=cfg.monoid_cap)}
            by_key = {}
            for d, inv in invariants.items():
                by_key.setdefault(inv[rel], set()).add(d)
            tableau = {frozenset(c) for c in by_key.values()}
            same = graph == tableau
            details.append({"k": k, "r": r, "relation": rel,
                            "classes": len(graph), "ok": same})
            ok = ok and same
    return {"ok": ok, "cases": details}


def _formula_sweep(r, w):
    """The product of per-color reduced Kronecker coefficients against
    r_coefficient on every triple of r-multipartitions of weight <= w:
    (triples checked, failures), each failure the triple and its
    theorem_formula_check report.  The per-color triples repeat across
    the sweep, so each factor is read from a table of the distinct
    partition triples, built once."""
    multis = [m for i in range(w + 1) for m in multipartitions(r, i)]
    parts = sorted({lam for m in multis for lam in m})
    kron = {t: reduced_kronecker(*t) for t in product(parts, repeat=3)}
    failures = []
    for triple in product(multis, repeat=3):
        lhs = 1
        for colors in zip(*triple):
            lhs *= kron[colors]
        rhs = r_coefficient(r, *triple)
        if lhs != rhs:
            failures.append(triple + ({"lhs": lhs, "rhs": rhs, "ok": False},))
    return len(multis) ** 3, failures


def check_formula(cfg):
    """Product of reduced Kronecker coefficients equals the LR/K sum, on
    every triple of weight <= 3 at r = 2 and of weight <= 2 at r = 3."""
    example = theorem_formula_check(3, *FORMULA_EXAMPLE_R3)
    example_ok = example["ok"] and example["lhs"] == 1 and example["rhs"] == 1
    checked, failures = _formula_sweep(2, 3)
    checked_r3, failures_r3 = _formula_sweep(3, 2)
    return {"ok": example_ok and not failures and not failures_r3,
            "example": {"lhs": example["lhs"], "rhs": example["rhs"]},
            "checked": checked, "failures": failures,
            "checked_r3": checked_r3, "failures_r3": failures_r3}


def _xt_sweep(r, size):
    """xt_multiplicity_oracle against xt_formula for l, m, n <= size and
    every admissible t: (multiplicities checked, failures)."""
    checked = 0
    failures = []
    for l, m, n in product(range(size + 1), repeat=3):
        for entry in admissible_set(l, m, n):
            t = entry["t"]
            for lam_bar, mu_bar, nu_bar in product(multipartitions(r, l),
                                                   multipartitions(r, m),
                                                   multipartitions(r, n)):
                checked += 1
                a = xt_multiplicity_oracle(r, lam_bar, mu_bar, nu_bar, t)
                b = xt_formula(r, lam_bar, mu_bar, nu_bar, t)
                if a != b:
                    failures.append((lam_bar, mu_bar, nu_bar, t, a, b))
    return checked, failures


def check_xt_oracle(cfg):
    """Permutation-character multiplicities equal the LR/K formula for
    l, m, n <= 3 at r = 2 and l, m, n <= 2 at r = 3."""
    checked, failures = _xt_sweep(2, 3)
    checked_r3, failures_r3 = _xt_sweep(3, 2)
    return {"ok": not failures and not failures_r3,
            "checked": checked, "failures": failures,
            "checked_r3": checked_r3, "failures_r3": failures_r3}


# (r, maximal weight) of each Cartan matrix that c11 checks
CARTAN_CASES = ((2, 3), (1, 6), (2, 4), (3, 3), (1, 8), (2, 5))


def _downward_dimension_ok(r, w, B):
    """Whether sum_{lam,mu} dim S(mu) B[lam,mu] dim S(lam), over lam of
    weight l and mu of weight m, is the number of downward (m,l) diagrams,
    sum_b S(l,b) b!/(b-m)! r^b, at every m <= l <= w; and the number of
    (m, l) checked.  Each dimension is a character at the identity class."""
    dim = {}
    for n in range(w + 1):
        one = ((1,) * n,) + ((),) * (r - 1)
        for lam, row in wreath_char_table(r, n)[2].items():
            dim[lam] = int(row[one].as_rational())
    ok, checked = True, 0
    for l in range(w + 1):
        for m in range(l + 1):
            blocks = sum(dim[mu] * B[(lam, mu)] * dim[lam]
                         for lam in multipartitions(r, l) for mu in multipartitions(r, m))
            diagrams = sum(stirling2(l, b) * factorial(b) // factorial(b - m) * r**b
                           for b in range(m, l + 1))
            ok = ok and blocks == diagrams
            checked += 1
    return ok, checked


def check_cartan(cfg):
    """Diagonal 1, strict-upper vanishing and tensor factorization at each
    (r, w) of CARTAN_CASES, and the dimension of every downward (m,l) span,
    m <= l <= w, summed over its Cartan blocks."""
    diag_ok = vanish_ok = tensor_ok = dims_ok = True
    labels_by_case, dims_checked = {}, 0
    for r, w in CARTAN_CASES:
        labels, B = cartan_matrix(r, w)
        labels_by_case["%d,%d" % (r, w)] = len(labels)
        diag_ok = diag_ok and all(B[(lam, lam)] == 1 for lam in labels)
        vanish_ok = vanish_ok and all(
            B[(lam, mu)] == 0
            for lam in labels for mu in labels
            if weight(mu) > weight(lam)
            or (weight(mu) == weight(lam) and mu != lam)
        )
        tensor_ok = tensor_ok and cartan_tensor_check(w, r)
        ok, checked = _downward_dimension_ok(r, w, B)
        dims_ok = dims_ok and ok
        dims_checked += checked
    return {"ok": diag_ok and vanish_ok and tensor_ok and dims_ok,
            "labels": labels_by_case["2,3"], "diag_ok": diag_ok,
            "vanish_ok": vanish_ok, "tensor_ok": tensor_ok,
            "labels_by_case": labels_by_case, "dimension_ok": dims_ok,
            "dimension_pairs": dims_checked}


def _label_ok(r, k, lam_bar, det=None):
    """The cell dimension is the sum over label compositions, and the label
    factors expand to det, if one is given."""
    dim_ok = cell_dimension(r, k, lam_bar) == sum(
        M * prod(cell_dimension(1, m, (lam,)) for m, lam in zip(ks, lam_bar))
        for M, ks in _label_compositions(r, k, lam_bar))
    if det is None:
        return dim_ok
    expanded = MPoly.one(r)
    for (j, a), e in _label_factors(r, k, lam_bar).items():
        base = sum((MPoly.monomial(r, [int(c == i) for i in range(r)], zeta_pow(r, -j * c))
                    for c in range(r)), MPoly.constant(r, -r * a))
        expanded = prod([base] * e, start=expanded)
    return dim_ok and expanded == det


def check_gram(cfg):
    """Gram data, leading coefficients and the dimension identity for
    k <= 2, r <= 3, and (non)semisimple parameter points.  The label
    factors of every cell: expanded against the determinants there, and
    at LABEL_POINTS against exact elimination of the evaluated matrix."""
    data_ok = all(
        tuple(tuple(row) for row in gram_matrix(2, 1, lam_bar)) == expected
        for lam_bar, expected in GRAM_K1_R2.items()
    )
    lead_ok = dims_ok = labels_ok = True
    for r in range(1, 4):
        for k in range(3):
            dim_sq = 0
            for i in range(k + 1):
                for lam_bar in multipartitions(r, i):
                    det = gram_det(r, k, lam_bar)
                    lead_ok = lead_ok and det.leading_coeff_in(0)[1] == MPoly.one(r)
                    # at r = 1 the label factors are read off det itself
                    labels_ok = labels_ok and _label_ok(r, k, lam_bar, det if r > 1 else None)
                    dim_sq += cell_dimension(r, k, lam_bar) ** 2
            dims_ok = dims_ok and dim_sq == count_bell(2 * k, r)
    for (r, k), x in LABEL_POINTS.items():
        for lam_bar, (_, value) in semisimplicity_certificate(r, k, x)["dets"].items():
            M = gram_matrix(r, k, lam_bar)
            vals = iter(eval_many(r, [e for row in M for e in row], x))
            det = det_bareiss([[MPoly.constant(r, next(vals)) for _ in row] for row in M], r)
            labels_ok = (labels_ok and bool(value) and det == value
                         and _label_ok(r, k, lam_bar))
    cert_ss = semisimplicity_certificate(2, 1, (2, 1))
    cert_ns = semisimplicity_certificate(2, 1, (1, 1))
    points_ok = cert_ss["semisimple"] and not cert_ns["semisimple"]
    return {"ok": data_ok and lead_ok and dims_ok and labels_ok and points_ok,
            "data_ok": data_ok, "leading_ok": lead_ok,
            "dimension_ok": dims_ok, "label_factors_ok": labels_ok,
            "semisimple_at_2_1": cert_ss["semisimple"],
            "semisimple_at_1_1": cert_ns["semisimple"]}


CHECKS = [
    ("composition-example", check_composition),
    ("counting", check_counting),
    ("presentation", check_presentation),
    ("groupoid-expansion", check_groupoid),
    ("triangular-factorization", check_triangular),
    ("rs-bijection", check_rs),
    ("ribbon-bijection", check_sw),
    ("green-relations", check_green),
    ("coefficient-identity", check_formula),
    ("xt-oracle", check_xt_oracle),
    ("cartan", check_cartan),
    ("gram-semisimplicity", check_gram),
]


def run_all(cfg=None, only=None):
    """Run the suite (or the named subset); returns the aggregate report."""
    cfg = cfg or config.from_env()
    names = {name for name, _ in CHECKS}
    if only:
        unknown = set(only) - names
        if "" in unknown:
            raise ValueError("a criterion name is empty")
        if unknown:
            raise ValueError("unknown criteria: %s" % ", ".join(sorted(unknown)))
    results = []
    for name, fn in CHECKS:
        if only and name not in only:
            continue
        t0 = time.perf_counter()
        rep = {"criterion": name, **fn(cfg)}
        rep["seconds"] = round(time.perf_counter() - t0, 3)
        results.append(rep)
    return {"ok": all(rep["ok"] for rep in results), "criteria": results,
            "seed": cfg.seed}
