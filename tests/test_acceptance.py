"""Acceptance gate: one test per headline criterion, with time budgets.

Each test drives the corresponding check in colorpart.verify, so the gate,
the `colorpart verify` subcommand and the library agree on what is being
certified.  Budgets are wall-clock upper bounds for the whole criterion.
"""

import time

import pytest

from colorpart import config, verify
from colorpart.diagrams import compose

CFG = config.RunConfig()


def timed(fn, budget):
    t0 = time.perf_counter()
    rep = fn(CFG)
    elapsed = time.perf_counter() - t0
    assert rep["ok"], rep
    assert elapsed < budget, "criterion exceeded %ss budget: %.1fs" % (
        budget, elapsed)
    return rep


def test_c01_composition_worked_example():
    rep = timed(verify.check_composition, 60)
    assert rep["exponents"] == [0, 0, 1, 2, 0]
    # the composition itself is sub-millisecond
    best = min(
        _time_once(lambda: compose(verify.COMPOSE_D1, verify.COMPOSE_D2))
        for _ in range(5)
    )
    assert best < 1e-3


def _time_once(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_c02_counting():
    rep = timed(verify.check_counting, 1)
    assert rep["sizes"]["3,2"] == 2430
    assert rep["sizes"]["2,3"] == 309
    assert rep["sizes"]["2,2"] == 94


def test_c03_presentation_and_generation():
    rep = timed(verify.check_presentation, 120)
    assert all(not entry["failures"] for entry in rep["relations"])
    # at r >= 3, (12) adds k (r - 2) instances p_i w_(i-1)^j p_i, j >= 2
    assert {(e["k"], e["r"]): e["checked"] for e in rep["relations"]} == {
        (1, 1): 4, (1, 2): 4, (1, 3): 5, (1, 4): 6,
        (2, 1): 26, (2, 2): 26, (2, 3): 28, (2, 4): 30,
        (3, 1): 62, (3, 2): 62, (3, 3): 65, (3, 4): 68,
        (4, 1): 113, (4, 2): 113, (4, 3): 117, (4, 4): 121}
    assert rep["closure_sizes"] == {"2,3": 309, "3,2": 2430, "4,1": 4140}


def test_c04_groupoid_expansion():
    rep = timed(verify.check_groupoid, 60)
    assert rep["hom_samples"]["samples"] == 1000
    assert rep["figure_ok"]


def test_c05_triangular_factorization():
    rep = timed(verify.check_triangular, 60)
    assert rep["monoid"] == rep["triples"] == 2430


def test_c06_rs_bijection():
    rep = timed(verify.check_rs, 120)
    assert rep["example_ok"]
    assert rep["roundtrips"]["3,2"] == 2430
    assert rep["roundtrips"]["2,3"] == 309


def test_c07_ribbon_bijection():
    rep = timed(verify.check_sw, 120)
    assert rep["trace_ok"]
    assert rep["group_images"]["4,3"] == 3**4 * 24
    assert rep["diagram_images"]["2,2"] == 94
    assert rep["diagram_images"]["3,1"] == 203
    assert rep["diagram_images"]["3,2"] == 2430


def test_c08_green_relations():
    rep = timed(verify.check_green, 60)
    assert all(case["ok"] for case in rep["cases"])


def test_c09_coefficient_identity():
    rep = timed(verify.check_formula, 300)
    assert rep["example"] == {"lhs": 1, "rhs": 1}
    assert rep["checked"] == 18**3
    assert not rep["failures"]
    assert rep["checked_r3"] == 13**3
    assert not rep["failures_r3"]


def test_c10_xt_multiplicity_oracle():
    rep = timed(verify.check_xt_oracle, 300)
    assert not rep["failures"]
    assert rep["checked"] == 7806
    assert not rep["failures_r3"]
    assert rep["checked_r3"] == 2728


def test_c11_cartan():
    # composing the downward basis at (r, w) = (1, 6) alone takes about a
    # minute, so this budget catches the count going back to diagrams
    rep = timed(verify.check_cartan, 10)
    assert rep["diag_ok"] and rep["vanish_ok"] and rep["tensor_ok"]
    assert rep["labels"] == 18
    assert rep["labels_by_case"] == {"2,3": 18, "1,6": 30, "2,4": 38, "3,3": 35,
                                     "1,8": 67, "2,5": 74}
    assert rep["dimension_ok"] and rep["dimension_pairs"] == 129


def test_c12_gram_and_semisimplicity():
    rep = timed(verify.check_gram, 120)
    assert rep["data_ok"] and rep["leading_ok"] and rep["dimension_ok"]
    assert rep["semisimple_at_2_1"] and not rep["semisimple_at_1_1"]


def test_full_report_aggregates():
    report = verify.run_all(CFG, only={"composition-example", "counting"})
    assert report["ok"]
    assert {c["criterion"] for c in report["criteria"]} == {
        "composition-example", "counting"}
    with pytest.raises(ValueError):
        verify.run_all(CFG, only={"no-such-criterion"})
