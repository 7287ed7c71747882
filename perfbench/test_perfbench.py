"""The benchmark's own tests: seeded inputs, error counting, metric names.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import run  # noqa: E402
import worker  # noqa: E402
from tracer import FUNCTIONS  # noqa: E402
from workloads import NAMES, load  # noqa: E402


@pytest.mark.parametrize("name", NAMES)
def test_inputs_follow_the_seed(name):
    wl = load(name)
    assert wl.make_inputs(7) == wl.make_inputs(7)
    assert wl.make_inputs(7) != wl.make_inputs(8)


def _run_and_check(wl, inputs, corrupt):
    records, latencies = worker.run_jobs(wl, inputs)
    assert len(latencies) == len(records)
    assert all(worker.check_records(wl, inputs, records))
    corrupt(records)
    ok = worker.check_records(wl, inputs, records)
    return sum(not flag for flag in ok), len(ok)


def test_corrupted_cli_reply_is_an_error():
    wl = load("queries")
    inputs = wl.make_inputs(3)
    inputs["requests"] = [r for r in inputs["requests"] if r[0] == "compose"][:20]

    def corrupt(records):
        out = json.loads(records[5].result.stdout)
        out["exponents"][0] += 1
        records[5].result.stdout = json.dumps(out)

    assert _run_and_check(wl, inputs, corrupt) == (1, 20)


def test_corrupted_library_result_is_an_error():
    wl = load("characters")
    inputs = wl.make_inputs(3)
    inputs["xt"] = inputs["xt"][:12]
    inputs["theorem"] = inputs["theorem"][:2]

    def corrupt(records):
        records[4].result += 1

    failed, attempted = _run_and_check(wl, inputs, corrupt)
    assert failed == 1 and attempted == 12 + len(wl.TABLES) + 2


def test_a_raising_job_is_an_error():
    wl = load("queries")
    inputs = wl.make_inputs(3)
    inputs["requests"] = inputs["requests"][:5]
    records, _ = worker.run_jobs(wl, inputs)
    records[2] = worker.Record(records[2].kind, None, "ValueError: boom")
    ok = worker.check_records(wl, inputs, records)
    assert ok == [True, True, False, True, True]


def test_metric_names():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    name = re.compile(r"[A-Za-z0-9_.-]+\Z")
    metrics = bench["end_to_end"] + bench["per_layer"]
    assert all(name.match(m["name"]) for m in metrics)
    passes = [{"wall_s": 1.0, "setup_s": 0.5, "rss_mb": 50.0,
               "latency_s": [0.001] * 20}] * 3
    metrics, samples = run.end_to_end(passes)
    assert samples == 20
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        [(n, m["unit"]) for n, m in metrics.items()]
    assert {w["name"] for w in bench["workloads"]} <= set(NAMES)
    traced = {"trace": {
        "layers": {layer: {"calls": 1, "self_s": 1.0, "errors": 0,
                           "usage_exits": 0, "cache_hit_ratio": 0.5}
                   for layer in run.LAYERS},
        "functions": {"%s.%s" % (layer, fn): {"calls": 1, "self_s": 1.0}
                      for layer, entries in FUNCTIONS.items()
                      for fn, _, _ in entries},
        "top_s": 1.0}, "wall_s": 2.0, "import_s": 0.5}
    emitted = run.per_layer({"wall_s": 1.0}, traced)
    assert [(n, m["unit"]) for n, m in emitted.items()] == \
        [(m["name"], m["unit"]) for m in bench["per_layer"]]
