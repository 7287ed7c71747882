"""Command line interface: JSON output and exit codes."""

import json

import pytest
from click.testing import CliRunner

from colorpart.cli import main
from colorpart.diagrams import count_bell
from colorpart.verify import COMPOSE_D1, COMPOSE_D2, COMPOSE_PRODUCT


def run(*args):
    return CliRunner().invoke(main, args)


def test_count():
    res = run("count", "--k", "6", "--r", "2")
    assert res.exit_code == 0
    assert json.loads(res.output) == {"B": "2430"}


def test_count_bad_args():
    assert run("count", "--k=-1", "--r", "2").exit_code == 2


def test_count_large():
    # past the recursion limit, and more digits than str() converts
    res = run("count", "--k", "1000", "--r", "100000")
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


def test_semisimple():
    out = json.loads(
        run("semisimple", "--r", "2", "--k", "1", "--x", "2,1").output
    )
    assert out["semisimple"] and out["dimension_identity"]
    out = json.loads(
        run("semisimple", "--r", "2", "--k", "1", "--x", "1,1").output
    )
    assert not out["semisimple"]


def test_cartan():
    out = json.loads(run("cartan", "--r", "1", "--maxweight", "1").output)
    assert out["matrix"][0][0] == 1


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


def test_verify_bad_cap():
    assert run("verify", "--suite", "counting", "--cap", "zzz").exit_code == 2


def test_output_is_deterministic():
    a = run("psi-check", "--samples", "10", "--seed", "3").output
    b = run("psi-check", "--samples", "10", "--seed", "3").output
    assert a == b
