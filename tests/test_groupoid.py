"""Color-preserving groupoid expansion of downward diagrams."""

import os
import random
import subprocess
import sys

import pytest

import colorpart
from colorpart import groupoid as G
from colorpart.diagrams import ColoredDiagram, compose, enumerate_diagrams
from colorpart.groupoid import (
    colors,
    gcompose,
    gsum_compose,
    gsum_equal,
    hom_dimension_check,
    psi,
    psi_hom_check,
    random_downward,
)
from colorpart.scalars import CycNumber
from colorpart.verify import PSI_INPUT, psi_expected_terms
from helpers import (
    gcompose_by_validation,
    gsum_compose_by_validation,
    psi_by_validation,
    vertex_colors,
)


def test_source_and_target_read_off_colors():
    d = ColoredDiagram(3, 1, 2, [((1,), (1,), 2), ((), (2,), 1)])
    assert colors(d) == ((2,), (2, 1))


def test_source_and_target_match_a_per_vertex_reading():
    # each color is that of the block holding the vertex
    for d in enumerate_diagrams(2, 2, 3):
        if d.is_downward():
            assert colors(d) == vertex_colors(d)


def test_gcompose_interface_mismatch_is_zero():
    a = ColoredDiagram(2, 1, 1, [((1,), (1,), 1)])
    b = ColoredDiagram(2, 1, 1, [((1,), (1,), 0)])
    assert gcompose(a, b) is None
    assert gcompose(a, a) is not None
    wide = ColoredDiagram(2, 2, 2, [((1,), (1,), 0), ((2,), (2,), 0)])
    with pytest.raises(ValueError, match="arities not composable"):
        gcompose(a, wide)


def _compose_with_loop(d1, d2):
    prod, exps = compose(d1, d2)
    return prod, (1,) + tuple(exps[1:])


def test_gcompose_rejects_a_removed_middle_component(monkeypatch):
    a = ColoredDiagram(2, 1, 1, [((1,), (1,), 1)])
    monkeypatch.setattr(G, "compose", _compose_with_loop)
    with pytest.raises(RuntimeError, match="middle component"):
        gcompose(a, a)


def test_random_downward_rejects_more_tops_than_bottoms():
    with pytest.raises(ValueError, match="k_top <= k_bot"):
        random_downward(random.Random(0), 2, 2, 1)


def test_psi_hom_check_counts_a_removed_middle_component_as_failed(monkeypatch):
    monkeypatch.setattr(G, "compose", _compose_with_loop)
    rep = psi_hom_check(samples=5, k_max=2, r_max=2, seed=0)
    assert rep == {"samples": 5, "failures": 5, "ok": False}


def test_expansion_term_count_and_coefficients():
    terms = psi(PSI_INPUT)
    assert len(terms) == 2 ** len(PSI_INPUT.blocks)
    # trivially colored diagrams always get coefficient 1
    for d, coeff in terms.items():
        if all(c == 0 for _, _, c in d.blocks):
            assert coeff == CycNumber.one(2)


def test_worked_eight_term_figure():
    # frozen worked example: coefficient zeta^(j2) on coloring (j1, j2, j3)
    assert gsum_equal(psi(PSI_INPUT), psi_expected_terms())


def test_expansion_is_multiplicative_on_random_pairs():
    rep = psi_hom_check(samples=120, k_max=3, r_max=3, seed=0)
    assert rep["ok"], rep


def test_expansion_multiplicative_single_case():
    rng = random.Random(5)
    d1 = random_downward(rng, 2, 1, 2)
    d2 = random_downward(rng, 2, 2, 3)
    prod, exps = compose(d1, d2)
    assert not any(exps)
    assert gsum_equal(psi(prod), gsum_compose(psi(d1), psi(d2)))


@pytest.mark.parametrize("r", [1, 2, 3])
def test_hom_dimensions_match(r):
    for k in range(3):
        for l in range(k + 1):
            rep = hom_dimension_check(l, k, r)
            assert rep["ok"], rep


def test_hom_dimension_total_is_downward_count():
    rep = hom_dimension_check(1, 2, 2)
    n = sum(1 for d in enumerate_diagrams(2, 1, 2) if d.is_downward())
    assert rep["path"] == rep["groupoid"] == n


def _sample_pairs(samples, k_max, r_max, seed):
    """The composable pairs psi_hom_check draws, in its order."""
    rng = random.Random(seed)
    for _ in range(samples):
        r = rng.randint(1, r_max)
        m = rng.randint(0, k_max)
        k = rng.randint(0, m)
        l = rng.randint(0, k)
        d1 = random_downward(rng, r, l, k)
        yield d1, random_downward(rng, r, k, m)


def _assert_validated(terms):
    """Every term, built by the trusted constructors, is what the
    validating constructors make of its blocks, and its colors are those
    read vertex by vertex."""
    for d in terms:
        valid = ColoredDiagram(d.r, d.k, d.l, d.blocks)
        assert valid.blocks == d.blocks
        assert colors(d) == vertex_colors(valid)


@pytest.mark.parametrize("samples, r_max, seed", [
    # c04's default sample at three seeds, then more colors
    (1000, 3, 0), (1000, 3, 1), (1000, 3, 2), (200, 4, 0), (60, 6, 0)])
def test_expansion_and_sum_composition_equal_the_validating_oracle(samples, r_max, seed):
    for d1, d2 in _sample_pairs(samples, 4, r_max, seed):
        prod, _ = compose(d1, d2)
        for d in (d1, d2, prod):
            terms = psi(d)
            assert terms == psi_by_validation(d)
            _assert_validated(terms)
        A, B = psi(d1), psi(d2)
        composed = gsum_compose(A, B)
        assert composed == gsum_compose_by_validation(A, B)
        _assert_validated(composed)


def test_gcompose_equals_the_validating_oracle():
    for d1, d2 in _sample_pairs(200, 3, 3, 4):
        A, B = psi(d1), psi(d2)
        for a in A:
            for b in B:
                prod = gcompose(a, b)
                assert prod == gcompose_by_validation(a, b)
                if prod is not None:
                    _assert_validated([prod])


# (2,1)-diagrams with two propagating parts, so not downward
UPWARD = ColoredDiagram(2, 2, 1, [((1, 2), (1,), 0)])
WIDE_UP = ColoredDiagram(2, 2, 2, [((1,), (), 1), ((2,), (1, 2), 0)])
IDENTITY = ColoredDiagram.identity(2, 2)


@pytest.mark.parametrize("call", [
    colors,
    psi,
    lambda d: gcompose(d, IDENTITY),
    lambda d: gcompose(IDENTITY, d),
    lambda d: gsum_compose({d: CycNumber.one(2)}, psi(IDENTITY)),
    lambda d: gsum_compose(psi(IDENTITY), {d: CycNumber.one(2)}),
], ids=["colors", "psi", "gcompose-left", "gcompose-right",
        "gsum_compose-left", "gsum_compose-right"])
@pytest.mark.parametrize("d", [UPWARD, WIDE_UP], ids=["upward", "non-propagating-top"])
def test_a_non_downward_diagram_is_refused(call, d):
    assert not d.is_downward()
    with pytest.raises(ValueError, match="downward"):
        call(d)


def test_a_non_downward_morphism_is_refused_under_O():
    script = "\n".join([
        "from colorpart.diagrams import ColoredDiagram",
        "from colorpart.groupoid import gcompose",
        "d = ColoredDiagram(2, 2, 2, [((1,), (), 1), ((2,), (1, 2), 0)])",
        "try:",
        "    gcompose(ColoredDiagram.identity(2, 2), d)",
        "except ValueError:",
        "    raise SystemExit(0)",
        "raise SystemExit('accepted a non-downward morphism')"])
    src = os.path.dirname(os.path.dirname(colorpart.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
