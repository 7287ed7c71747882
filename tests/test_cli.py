"""Command line interface: JSON output and exit codes."""

import gc
import importlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import click
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import colorpart
from colorpart import cli as cli_module
from colorpart.cli import main
from colorpart.characters import multipartitions
from colorpart.diagrams import count_bell
from colorpart.verify import COMPOSE_D1, COMPOSE_D2, COMPOSE_PRODUCT


def run(*args, env=None):
    return CliRunner().invoke(main, args, env=env)


def assert_usage_error(res):
    """Exit 2 with exactly one Error: line and no traceback."""
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert [line for line in res.output.splitlines()
            if line.startswith("Error:")] == [res.output.splitlines()[-1]]


def test_count():
    res = run("count", "--k", "6", "--r", "2")
    assert res.exit_code == 0
    assert json.loads(res.output) == {"B": "2430"}


def test_count_bad_args():
    assert run("count", "--k=-1", "--r", "2").exit_code == 2


@pytest.mark.parametrize("k, code", [("316", 0), ("317", 2)])
def test_count_refuses_k_squared_above_the_cap(k, code):
    # k^2 Bell-triangle additions against the default cap of 10^5
    res = run("count", "--k", k, "--r", "2")
    assert res.exit_code == code, res.output
    if code:
        assert_usage_error(res)
        assert "cap exceeded: k^2 = 100489" in res.output


def test_count_refuses_a_large_k_before_any_work():
    t0 = time.perf_counter()
    res = run("count", "--k", "3000", "--r", "2")
    assert time.perf_counter() - t0 < 1
    assert_usage_error(res)
    assert "cap exceeded" in res.output


def test_count_large():
    # past the recursion limit, and more digits than str() converts; k^2
    # needs a cap of 10^6
    res = run("count", "--k", "1000", "--r", "100000",
              env={"COLORPART_MONOID_CAP": str(10**6)})
    assert res.exit_code == 0
    digits = json.loads(res.output)["B"]
    assert len(digits) > 4300
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        value = value * 10**len(chunk) + int(chunk)
    assert value == count_bell(1000, 100000)


@pytest.mark.parametrize("args", [
    ("green", "--k", "1", "--r", "0", "--relation", "L"),
    ("green", "--k=-1", "--r", "2", "--relation", "L"),
    ("present-check", "--k", "0", "--r", "2"),
    ("present-check", "--k", "1", "--r", "0"),
    ("cartan", "--r", "0", "--maxweight", "1"),
    ("cartan", "--r", "1", "--maxweight", "-1"),
])
def test_sizes_checked_at_the_parse_boundary(args):
    res = run(*args)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert res.output.splitlines()[-1].startswith("Error: Invalid value")


def test_green_k0_is_one_class():
    res = run("green", "--k", "0", "--r", "2", "--relation", "J")
    assert res.exit_code == 0
    assert json.loads(res.output)["sizes"] == [1]


def test_unknown_subcommand():
    assert run("frobnicate").exit_code == 2


def test_compose_worked_example():
    res = run(
        "compose",
        "--d1", json.dumps(COMPOSE_D1.to_json()),
        "--d2", json.dumps(COMPOSE_D2.to_json()),
    )
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["exponents"] == [0, 0, 1, 2, 0]
    assert out["diagram"] == json.loads(json.dumps(COMPOSE_PRODUCT.to_json()))


def test_compose_malformed_json():
    res = run("compose", "--d1", "{not json", "--d2", "{}")
    assert res.exit_code == 2
    assert "malformed JSON" in res.output


ONE = {"r": 2, "k": 1, "l": 1, "blocks": [{"top": [1], "bot": [1], "c": 0}]}


def _without(data, field):
    return {name: v for name, v in data.items() if name != field}


@pytest.mark.parametrize("diagram, message", [
    ([], "diagram must be a JSON object, not list"),
    (5, "diagram must be a JSON object, not int"),
    (_without(ONE, "r"), "diagram has no field 'r'"),
    (_without(ONE, "k"), "diagram has no field 'k'"),
    (_without(ONE, "l"), "diagram has no field 'l'"),
    (_without(ONE, "blocks"), "diagram has no field 'blocks'"),
    (dict(ONE, blocks={}), "diagram: field 'blocks' must be a list"),
    (dict(ONE, blocks=[[1]]), "block 0 must be a JSON object, not list"),
    (dict(ONE, blocks=[_without(ONE["blocks"][0], "top")]),
     "block 0 has no field 'top'"),
    (dict(ONE, blocks=[_without(ONE["blocks"][0], "bot")]),
     "block 0 has no field 'bot'"),
    (dict(ONE, blocks=[_without(ONE["blocks"][0], "c")]),
     "block 0 has no field 'c'"),
    (dict(ONE, blocks=[dict(ONE["blocks"][0], top=1)]),
     "block 0: field 'top' must be a list"),
    (dict(ONE, blocks=[dict(ONE["blocks"][0], bot=None)]),
     "block 0: field 'bot' must be a list"),
])
def test_a_malformed_diagram_names_its_field(diagram, message):
    res = run("compose", "--d1", json.dumps(diagram), "--d2", json.dumps(ONE))
    assert_usage_error(res)
    assert res.output.splitlines()[-1] == "Error: bad diagram: " + message


def test_thm_check_bundled_example():
    res = run("thm-check", "--r", "3", "--example", "paper")
    assert res.exit_code == 0
    assert json.loads(res.output) == {"lhs": 1, "rhs": 1, "equal": True}


def test_thm_check_explicit_triple():
    res = run(
        "thm-check", "--r", "2",
        "--lam-bar", "[[1],[]]", "--mu-bar", "[[1],[]]", "--nu-bar", "[[],[]]",
    )
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["equal"] and out["lhs"] == out["rhs"] == 1


@pytest.mark.parametrize("bars, named", [
    (("--lam-bar", "[[1],[],[]]"), "--lam-bar"),
    (("--mu-bar", "[[1],[],[]]", "--nu-bar", "[[],[],[]]"), "--mu-bar, --nu-bar"),
    # an empty value is still given
    (("--nu-bar", ""), "--nu-bar"),
])
def test_thm_check_refuses_a_triple_next_to_the_example(bars, named):
    res = run("thm-check", "--r", "3", "--example", "paper", *bars)
    assert_usage_error(res)
    assert res.output.splitlines()[-1] == "Error: --example conflicts with " + named


def test_present_check():
    res = run("present-check", "--k", "2", "--r", "2")
    assert res.exit_code == 0
    assert json.loads(res.output)["ok"]


def test_green_sizes():
    res = run("green", "--k", "1", "--r", "2", "--relation", "J")
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert sorted(out["sizes"]) == [2, 4]


def test_rs_and_sw_roundtrip_output():
    d = json.dumps(
        {"r": 2, "k": 1, "l": 1,
         "blocks": [{"top": [1], "bot": [1], "c": 1}]}
    )
    rs = json.loads(run("rs", "--diagram", d).output)
    assert rs["P"] == [[], [[[1]]]]
    sw = json.loads(run("sw", "--diagram", d).output)
    assert sw["S"] == [] and sw["T"] == []


def test_psi_check():
    res = run("psi-check", "--samples", "25", "--seed", "0")
    assert res.exit_code == 0
    assert json.loads(res.output)["ok"]


def test_gram():
    res = run("gram", "--r", "2", "--k", "1", "--shape", "[[],[]]")
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["dim"] == 2
    assert out["matrix"][0][0] == out["matrix"][1][1]
    # y0^2 - y1^2, as a product of label factors
    assert out["det"] == "(y0 + y1)*(y0 - y1)"


def test_gram_prints_the_rank0_r4_k2_determinant_factored():
    # its 20x20 symbolic determinant did not finish in 540 s
    t0 = time.perf_counter()
    res = run("gram", "--r", "4", "--k", "2", "--shape", "[[],[],[],[]]")
    assert time.perf_counter() - t0 < 1
    out = json.loads(res.output)
    assert out["dim"] == 20
    assert out["det"] == "*".join(
        "(%s)^8*(%s - 4)" % (base, base) for base in (
            "y0 + y1 + y2 + y3", "y0 + z^3*y1 - y2 + z*y3", "y0 - y1 + y2 - y3",
            "y0 + z*y1 - y2 + z^3*y3"))


def test_semisimple():
    out = json.loads(
        run("semisimple", "--r", "2", "--k", "1", "--x", "2,1").output
    )
    assert out["semisimple"] and out["dimension_identity"]
    assert out["dets"]["[[], []]"] == {"det": "(y0 + y1)*(y0 - y1)", "value": "3"}
    out = json.loads(
        run("semisimple", "--r", "2", "--k", "1", "--x", "1,1").output
    )
    assert not out["semisimple"]


def test_cartan():
    out = json.loads(run("cartan", "--r", "1", "--maxweight", "1").output)
    assert out["matrix"][0][0] == 1


def test_cartan_admits_r1_weight_7_and_bounds_class_pair_terms():
    # sum_{m<=l<=7} p(m) p(l)^2 = 15,068 class-pair terms; |CPar_7| is far
    # past the cap, and no entry enumerates it
    out = json.loads(run("cartan", "--r", "1", "--maxweight", "7").output)
    assert len(out["labels"]) == 45
    res = run("cartan", "--r", "2", "--maxweight", "4",
              env={"COLORPART_MONOID_CAP": "17213"})
    assert res.exit_code == 0
    res = run("cartan", "--r", "2", "--maxweight", "4",
              env={"COLORPART_MONOID_CAP": "17212"})
    assert_usage_error(res)
    assert "17213 class-pair terms exceed cap 17212" in res.output


@pytest.mark.parametrize("args", [
    ("cartan", "--r", "1", "--maxweight", "9"),
    ("cartan", "--r", "4", "--maxweight", "4"),
    ("cartan", "--r", "1", "--maxweight", str(10**6)),
    ("cartan", "--r", str(10**40), "--maxweight", "2"),
    ("reduced-kronecker", "--lam", "[30]", "--mu", "[30]", "--nu", "[30]"),
    ("reduced-kronecker", "--lam", "[%d]" % 10**6, "--mu", "[]", "--nu", "[]"),
])
def test_cartan_and_reduced_kronecker_refuse_an_oversized_request_first(monkeypatch, args):
    def work(*_):
        raise AssertionError("work started before the refusal")
    monkeypatch.setattr(cli_module, "cartan_matrix", work)
    monkeypatch.setattr(cli_module, "reduced_kronecker", work)
    t0 = time.perf_counter()
    res = run(*args)
    assert time.perf_counter() - t0 < 1
    assert_usage_error(res)
    assert "cap exceeded" in res.output


def test_class_counts_are_the_multipartition_counts():
    for r in range(1, 5):
        assert cli_module._class_counts(r, 6, 10**9) == [
            len(multipartitions(r, n)) for n in range(7)]
    # p(n) up to the first value above the cap: p(7) = 15 > 14
    assert cli_module._class_counts(1, 10**9, 14) == [1, 1, 2, 3, 5, 7, 11, 15]


def test_reduced_kronecker_admits_every_weight_2_triple():
    parts = ["[]", "[1]", "[2]", "[1,1]"]
    for a in parts:
        for b in parts:
            for c in parts:
                res = run("reduced-kronecker", "--lam", a, "--mu", b, "--nu", c)
                assert res.exit_code == 0, res.output
    # [2], [2], [2] sits at the stability bound n = 6: p(6) = 11 classes
    args = ("reduced-kronecker", "--lam", "[2]", "--mu", "[2]", "--nu", "[2]")
    assert run(*args, env={"COLORPART_MONOID_CAP": "11"}).exit_code == 0
    res = run(*args, env={"COLORPART_MONOID_CAP": "10"})
    assert_usage_error(res)
    assert "p(6), n = 6 the stability bound = 11 classes of S_n" in res.output


def test_reduced_kronecker_and_r_coeff():
    out = json.loads(
        run("reduced-kronecker", "--lam", "[2]", "--mu", "[2]", "--nu", "[2]").output
    )
    assert out == {"value": 2}
    out = json.loads(
        run("r-coeff", "--r", "2", "--lam-bar", "[[1],[]]",
            "--mu-bar", "[[1],[]]", "--nu-bar", "[[],[]]").output
    )
    assert out == {"value": 1}


def test_verify_subset():
    res = run("verify", "--suite", "composition-example,counting")
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["ok"] and len(out["criteria"]) == 2


def test_verify_unknown_suite():
    assert run("verify", "--suite", "nonsense").exit_code == 2


@pytest.mark.parametrize("suite", ["", ",", "counting,", " , counting"])
def test_verify_names_an_empty_criterion(suite):
    res = run("verify", "--suite", suite)
    assert_usage_error(res)
    assert res.output.splitlines()[-1] == "Error: a criterion name is empty"


def test_verify_bad_cap():
    # the sweep sizes are fixed inside the checks: --cap is no option
    res = run("verify", "--suite", "counting", "--cap", "zzz")
    assert_usage_error(res)
    assert "No such option '--cap'" in res.output


def test_verify_rejects_the_retired_closure_cap():
    res = run("verify", "--suite", "counting", "--cap", "closure_cap=1")
    assert_usage_error(res)
    assert "No such option '--cap'" in res.output


@pytest.mark.parametrize("k", ["4000", "1000000"])
def test_green_refuses_a_large_k_before_counting(k):
    # B_{2k,2} >= 2^(2k-1) exceeds the cap without summing B
    assert_usage_error(run("green", "--k", k, "--r", "2", "--relation", "L"))


@pytest.mark.parametrize("args", [
    ("gram", "--r", "1", "--k", "40", "--shape", "[[]]"),
    ("semisimple", "--r", "2", "--k", "40", "--x", "1,1"),
    ("cartan", "--r", "1", "--maxweight", "40"),
])
def test_cells_refuse_a_large_k_before_building(args):
    # the cells of CPar_k have sum of (dim W)^2 = |CPar_k|; the Cartan
    # entries to weight 40 have far more class-pair terms than the cap
    res = run(*args)
    assert_usage_error(res)
    assert "cap exceeded" in res.output


def test_cells_admit_k_up_to_the_cap():
    # |CPar_2| = B_4 = 15 at r = 1
    args = ("semisimple", "--r", "1", "--k", "2", "--x", "7")
    assert run(*args, env={"COLORPART_MONOID_CAP": "15"}).exit_code == 0
    assert_usage_error(run(*args, env={"COLORPART_MONOID_CAP": "14"}))


@pytest.mark.parametrize("sizes, cap", [
    # the defaults: 3^4 = 81 terms
    ((), 81),
    # r_max = 1 expands into one term: k_max itself is held to the cap
    (("--r-max", "1", "--k-max", "5"), 5),
    # 2^6 = 64: at cap 63 the bit length alone refuses k_max = 6
    (("--r-max", "2", "--k-max", "6"), 64),
])
def test_psi_check_admits_sizes_up_to_the_cap(sizes, cap):
    args = ("psi-check", "--samples", "2") + sizes
    assert run(*args, env={"COLORPART_MONOID_CAP": str(cap)}).exit_code == 0
    res = run(*args, env={"COLORPART_MONOID_CAP": str(cap - 1)})
    assert_usage_error(res)
    assert "cap exceeded" in res.output


@pytest.mark.parametrize("sizes", [
    ("--k-max", "40"),
    ("--k-max", "14", "--r-max", "3"),
    ("--k-max", str(10**40), "--r-max", "2"),
    ("--k-max", str(10**40), "--r-max", "1"),
    ("--k-max", "2", "--r-max", str(10**40)),
])
def test_psi_check_refuses_a_large_size_before_sampling(sizes):
    res = run("psi-check", *sizes)
    assert_usage_error(res)
    assert "cap exceeded" in res.output


def _one_strand(r):
    return json.dumps({"r": r, "k": 1, "l": 1,
                       "blocks": [{"top": [1], "bot": [1], "c": 0}]})


@pytest.mark.parametrize("admitted, refused", [
    # k r^2 letters of relation (12): 316^2 <= 10^5 < 317^2
    (("present-check", "--k", "1", "--r", "316"),
     ("present-check", "--k", "1", "--r", "317")),
    # (k + l) r^2 ribbon-table cells: 2 * 223^2 <= 10^5 < 2 * 224^2
    (("sw", "--diagram", _one_strand(223)), ("sw", "--diagram", _one_strand(224))),
])
def test_present_check_and_sw_admit_r_up_to_the_cap(admitted, refused):
    assert run(*admitted).exit_code == 0
    res = run(*refused)
    assert_usage_error(res)
    assert "cap exceeded" in res.output


@pytest.mark.parametrize("args", [
    ("present-check", "--k", "1", "--r", "1000"),
    ("present-check", "--k", "1", "--r", "2000"),
    ("sw", "--diagram", _one_strand(1000)),
    ("sw", "--diagram", _one_strand(3000)),
    ("sw", "--diagram", _one_strand(10**5)),
])
def test_present_check_and_sw_refuse_a_large_r_before_any_work(args):
    t0 = time.perf_counter()
    res = run(*args)
    assert time.perf_counter() - t0 < 1
    assert_usage_error(res)
    assert "cap exceeded" in res.output


def _live_text_streams():
    gc.collect()
    return sum(isinstance(o, io.TextIOWrapper) for o in gc.get_objects())


DIAGRAM = json.dumps(ONE)
LEAK_PROBES = [
    ("count", "--k", "3", "--r", "2"),
    ("compose", "--d1", DIAGRAM, "--d2", DIAGRAM),
    ("rs", "--diagram", DIAGRAM),
    ("sw", "--diagram", DIAGRAM),
    ("reduced-kronecker", "--lam", "[1]", "--mu", "[1]", "--nu", "[]"),
]


def test_in_process_calls_retain_no_stream():
    # each CliRunner.invoke swaps in a new sys.stdout; a writer that caches
    # the streams it resolves would keep one alive per call
    for args in LEAK_PROBES:
        assert run(*args).exit_code == 0
    before = _live_text_streams()
    for args in LEAK_PROBES:
        for _ in range(200):
            run(*args)
    assert _live_text_streams() - before <= 5


def _cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(colorpart.__file__).parents[1])]
        + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-m", "colorpart.cli", *args],
                          env=env, capture_output=True, check=True,
                          timeout=120).stdout


def test_stdout_is_one_flushed_sorted_key_line():
    # in a child process, so no CliRunner stands between the writer and
    # the pipe: the bytes must reach it before the interpreter exits
    assert _cli("count", "--k", "3", "--r", "2") == b'{"B": "22"}\n'
    expected = {"diagram": COMPOSE_PRODUCT.to_json(),
                "exponents": [0, 0, 1, 2, 0]}
    out = _cli("compose", "--d1", json.dumps(COMPOSE_D1.to_json()),
               "--d2", json.dumps(COMPOSE_D2.to_json()))
    assert out == (json.dumps(expected, sort_keys=True) + "\n").encode()


def test_output_is_deterministic():
    a = run("psi-check", "--samples", "10", "--seed", "3").output
    b = run("psi-check", "--samples", "10", "--seed", "3").output
    assert a == b


EMPTY2 = "[[],[]]"


@pytest.mark.parametrize("args", [
    # multipartitions need exactly r parts
    ("r-coeff", "--r", "2", "--lam-bar", "[[1]]",
     "--mu-bar", "[[1],[]]", "--nu-bar", EMPTY2),
    ("gram", "--r", "2", "--k", "1", "--shape", "[[1]]"),
    # partitions are weakly decreasing lists of non-negative ints
    ("reduced-kronecker", "--lam", "[1,2]", "--mu", "[1]", "--nu", "[1]"),
    ("reduced-kronecker", "--lam", "[1,-1]", "--mu", "[1]", "--nu", "[1]"),
    ("reduced-kronecker", "--lam", "[true]", "--mu", "[1]", "--nu", "[1]"),
    ("gram", "--r", "1", "--k", "1", "--shape", '["a"]'),
    ("gram", "--r", "1", "--k", "1", "--shape", "[[1.0]]"),
    ("thm-check", "--r", "2", "--lam-bar", "[[1],[2,3]]",
     "--mu-bar", EMPTY2, "--nu-bar", EMPTY2),
    # diagrams carry int r, k, l, vertices and colors
    ("rs", "--diagram", json.dumps({"r": 2, "k": 1, "l": 1, "blocks": [
        {"top": [1], "bot": [1], "c": 1.5}]})),
    ("rs", "--diagram", json.dumps({"r": 2, "k": 1, "l": 1, "blocks": [
        {"top": [True], "bot": [1], "c": 0}]})),
    ("sw", "--diagram", json.dumps({"r": 2.0, "k": 1, "l": 1, "blocks": [
        {"top": [1], "bot": [1], "c": 0}]})),
    # arities are non-negative
    ("compose", "--d1", json.dumps({"r": 2, "k": -2, "l": -1, "blocks": []}),
     "--d2", json.dumps({"r": 2, "k": -1, "l": 0, "blocks": []})),
    ("rs", "--diagram", json.dumps({"r": 2, "k": -1, "l": -1, "blocks": []})),
    ("sw", "--diagram", json.dumps({"r": 2, "k": -1, "l": -1, "blocks": []})),
])
def test_malformed_input_is_a_usage_error(args):
    assert_usage_error(run(*args))


@pytest.mark.parametrize("args, env", [
    (("psi-check", "--samples", "-5"), None),
    (("green", "--k", "1", "--r", "1", "--relation", "L"),
     {"COLORPART_MONOID_CAP": "abc"}),
    (("psi-check",), {"COLORPART_SEED": "x"}),
    (("verify", "--suite", "counting"), {"COLORPART_SEED": "1.5"}),
])
def test_bad_configuration_is_a_usage_error(args, env):
    res = run(*args, env=env)
    assert_usage_error(res)
    if env:
        assert next(iter(env)) in res.output


def test_trailing_zero_parts_are_dropped():
    a = run("r-coeff", "--r", "2", "--lam-bar", "[[1,0],[]]",
            "--mu-bar", "[[1],[0]]", "--nu-bar", EMPTY2)
    b = run("r-coeff", "--r", "2", "--lam-bar", "[[1],[]]",
            "--mu-bar", "[[1],[]]", "--nu-bar", EMPTY2)
    assert a.exit_code == 0 and a.output == b.output


# JSON values near the valid ones: small ints, and what int() used to accept
ATOMS = st.one_of(st.none(), st.booleans(), st.integers(-1, 2),
                  st.sampled_from([1.0, 1.5, "1", "a"]))
PARTITIONS = st.one_of(ATOMS, st.lists(ATOMS, max_size=3))
MULTIPARTITIONS = st.one_of(PARTITIONS, st.lists(PARTITIONS, max_size=3))
BLOCKS = st.fixed_dictionaries({"top": PARTITIONS, "bot": PARTITIONS, "c": ATOMS})
DIAGRAMS = st.one_of(ATOMS, st.fixed_dictionaries({
    "r": ATOMS, "k": ATOMS, "l": ATOMS, "blocks": st.lists(BLOCKS, max_size=3)}))


def _text(values):
    return st.one_of(values.map(json.dumps), st.text(max_size=4))


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    _text(MULTIPARTITIONS).map(
        lambda s: ("gram", "--r", "2", "--k", "1", "--shape", s)),
    # the fixed arguments keep every valid request cheap
    _text(MULTIPARTITIONS).map(
        lambda s: ("r-coeff", "--r", "2", "--lam-bar", s,
                   "--mu-bar", EMPTY2, "--nu-bar", EMPTY2)),
    _text(PARTITIONS).map(
        lambda s: ("reduced-kronecker", "--lam", s, "--mu", "[]", "--nu", "[]")),
    _text(DIAGRAMS).map(lambda s: ("rs", "--diagram", s)),
))
def test_fuzzed_input_never_gives_a_traceback(args):
    first, again = run(*args), run(*args)
    assert first.exit_code in (0, 1, 2)
    assert first.exception is None or isinstance(first.exception, SystemExit)
    assert "Traceback" not in first.output
    assert first.stdout == again.stdout


# click's own parse of the same registry: the oracle for TableGroup's
CLICK_MAIN = click.Group(main.name, commands=dict(main.commands),
                         help=main.help)

VALID = {
    "compose": ("--d1", DIAGRAM, "--d2", DIAGRAM),
    "count": ("--k", "3", "--r", "2"),
    "present-check": ("--k", "1", "--r", "2"),
    "green": ("--k", "1", "--r", "2", "--relation", "J", "--members"),
    "rs": ("--diagram", DIAGRAM),
    "sw": ("--diagram", DIAGRAM),
    "psi-check": ("--samples", "2", "--k-max", "2", "--r-max", "2",
                  "--seed", "1"),
    "gram": ("--r", "2", "--k", "1", "--shape", EMPTY2),
    "semisimple": ("--r", "2", "--k", "1", "--x", "2,1"),
    "cartan": ("--r", "1", "--maxweight", "1"),
    "reduced-kronecker": ("--lam", "[1]", "--mu", "[1]", "--nu", "[]"),
    "r-coeff": ("--r", "2", "--lam-bar", "[[1],[]]", "--mu-bar", "[[1],[]]",
                "--nu-bar", EMPTY2),
    "thm-check": ("--r", "3", "--example", "paper"),
    "verify": ("--suite", "counting", "--seed", "1"),
}


def _joined(args):
    """The same options written as --opt=value."""
    out, it = [], iter(args)
    for arg in it:
        out.append(arg if arg == "--members" else arg + "=" + next(it))
    return tuple(out)


PARSE_CASES = (
    [(name,) + args for name, args in VALID.items()]
    + [(name,) + _joined(args) for name, args in VALID.items()]
    + [(name, "--help") for name in VALID]
    + [
        (), ("--help",), ("--help", "count"), ("--help=1",), ("--bogus",),
        ("-x",), ("--",), ("--", "count", "--k", "1", "--r", "1"),
        ("--", "--help"), ("--", "--foo"), ("--", "-"), ("--", "--"),
        ("frobnicate",), ("cont",), ("-",), ("",), ("-k=3",),
        # repeated options: the last value wins, even over a bad one
        ("count", "--k", "1", "--k", "3", "--r", "2"),
        ("count", "--k", "x", "--k=3", "--r", "2"),
        # unknown options and extra arguments
        ("count", "--kk", "3", "--r", "2"), ("count", "-k", "3"),
        ("count", "-k=3"), ("count", "-x"), ("count", "--=x"),
        ("count", "-="), ("count", "--k=3", "--r", "2", "extra"),
        ("count", "extra", "--k", "3", "--r", "2"),
        ("count", "--k", "3", "--r", "2", "a", "b"),
        ("count", "--", "--k", "3"), ("count", "--k", "3", "--", "--r", "2"),
        # missing options and values
        ("count",), ("count", "--k", "3"), ("green", "--k", "1", "--r", "2"),
        ("count", "--k"), ("count", "--r", "2", "--k"),
        ("count", "--k", "--r", "2"),
        # values that do not convert, reported in command-line order
        ("count", "--k", "x", "--r", "2"), ("count", "--k", "", "--r", "2"),
        ("count", "--k=", "--r", "2"), ("count", "--k", "-1", "--r", "2"),
        ("count", "--r", "0", "--k", "-1"), ("count", "--k=-1", "--r", "0"),
        ("count", "--r", "x"), ("psi-check", "--seed", "x"),
        ("green", "--k", "1", "--r", "2", "--relation", "X"),
        ("green", "--k", "1", "--r", "2", "--relation", "J", "--members=1"),
        ("thm-check", "--r", "2", "--example", "book"),
        # --help wins over a bad value, not over a bad option
        ("count", "--k", "x", "--help"), ("count", "--bogus", "--help"),
        ("count", "--help=1"), ("count", "--k", "--help"),
        # usage errors raised by the commands themselves
        ("rs", "--diagram", "{"), ("thm-check", "--r", "2", "--example", "paper"),
        ("verify", "--suite", "nope"),
    ])


def _reply(res):
    # verify reports how long each criterion took
    return (res.exit_code, re.sub(r'"seconds": [0-9.e-]+', "", res.stdout),
            res.stderr)


@pytest.mark.parametrize("args", PARSE_CASES)
def test_parse_matches_click(args):
    assert _reply(run(*args)) == _reply(CliRunner().invoke(CLICK_MAIN, args))


def test_every_command_has_a_valid_parse_case():
    assert set(VALID) == set(main.commands)


TOKENS = ["count", "green", "--k", "--k=1", "--r", "--r=2", "--relation",
          "J", "Q", "--members", "--members=1", "--help", "--help=1", "--kk",
          "-k", "--", "-", "", "2", "0", "-1", "x"]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), max_size=7))
def test_fuzzed_command_lines_parse_as_in_click(args):
    assert _reply(run(*args)) == _reply(CliRunner().invoke(CLICK_MAIN, args))


@pytest.mark.parametrize("args, module, name", [
    (("present-check", "--k", "1", "--r", "1"), "algebra",
     "check_presentation"),
    (("psi-check", "--samples", "1"), "cli", "psi_hom_check"),
    (("thm-check", "--r", "3", "--example", "paper"), "cli",
     "theorem_formula_check"),
    (("verify", "--suite", "counting"), "verify", "run_all"),
])
def test_a_failed_verification_exits_1(monkeypatch, args, module, name):
    monkeypatch.setattr(importlib.import_module("colorpart." + module), name,
                        lambda *a, **kw: {"ok": False, "lhs": 0, "rhs": 1})
    res = run(*args)
    assert res.exit_code == 1 and res.stderr == ""
    assert _reply(res) == _reply(CliRunner().invoke(CLICK_MAIN, args))
