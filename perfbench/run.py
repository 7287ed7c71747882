"""colorpart benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload monoid --seed 1 --seconds 25 --trace 0

Each pass is a fresh interpreter (sys.executable) that imports colorpart
from ./src, generates the seeded inputs and runs the workload's fixed job
list once, one job at a time: a closed loop with one client.  --seconds
sets the number of passes, max(3, min(6, round(seconds / 5))), never how
fast they run.  The run reports the slowest pass's times and the median
set-up time and peak memory over the passes.  --trace 1 runs one
untraced and one traced pass and reports the per-layer metrics instead.
The last line of stdout is the result as JSON; the lines before it are
the same numbers for people.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import CACHED_LAYERS, FUNCTIONS, LAYERS
from worker import spans_path
from workloads import NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PASS_S = 5                 # the shortest workload's pass at seed
MIN_PASSES, MAX_PASSES = 3, 6
RUN_LIMIT_S = 170          # a run must end within 180 s

# the predicted layer split: dominant layers hold a majority of self time
DOMINANT = {"monoid": ("diagrams", "algebra"),
            "cellular": ("modules_rep", "scalars"),
            "characters": ("characters",)}


class RunError(RuntimeError):
    pass


def child_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("COLORPART_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def pass_count(seconds):
    """Passes per run, from --seconds alone: the parent and a change time
    the same number of passes however fast either runs."""
    return max(MIN_PASSES, min(MAX_PASSES, round(seconds / PASS_S)))


def one_pass(workload, seed, trace, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError("pass did not finish within the run's time limit")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError("pass exited with code %d" % proc.returncode)
    res = json.loads(lines[-1])
    res["setup_s"] = res["t_ready"] - spawn
    return res


def quantile(values, q):
    """Nearest-rank quantile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def run_record():
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "git_sha": git_sha()}


def git_sha():
    """HEAD of the checkout if it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown"


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(passes):
    """The time metrics of the slowest pass, the median set-up time and
    peak memory.

    On a shared host the speed of a pass switches between levels up to
    1.6x apart for seconds to minutes; the slowest of five passes repeats
    from run to run far better than the median pass, which flips between
    levels.  The pass count is fixed, so the maximum is taken over as many
    samples in every run.  Returns the metrics and the jobs per pass."""
    lat_ms = [[x * 1000 for x in p["latency_s"]] for p in passes]
    return {
        "wall_s": metric(max(p["wall_s"] for p in passes), "s"),
        "job_p50_ms": metric(max(quantile(l, 0.5) for l in lat_ms), "ms"),
        "job_p90_ms": metric(max(quantile(l, 0.9) for l in lat_ms), "ms"),
        "setup_s": metric(statistics.median(p["setup_s"] for p in passes), "s"),
        "peak_rss_mb": metric(statistics.median(p["rss_mb"] for p in passes),
                              "MB"),
    }, min(len(l) for l in lat_ms)


def per_layer(untraced, traced):
    tr = traced["trace"]
    out = {}
    for layer in LAYERS:
        st = tr["layers"][layer]
        out[layer + ".calls"] = metric(st["calls"], "count")
        out[layer + ".self_s"] = metric(st["self_s"], "s")
        out[layer + ".errors"] = metric(st["errors"], "count")
        for fn, _, stats in FUNCTIONS[layer]:
            for what in stats:
                value = tr["functions"]["%s.%s" % (layer, fn)][what]
                out["%s.%s.%s" % (layer, fn, what)] = metric(
                    value, "count" if what == "calls" else "s")
        if layer in CACHED_LAYERS:
            out[layer + ".cache_hit_ratio"] = metric(
                st["cache_hit_ratio"], "ratio")
    out["scalars.import_s"] = metric(traced["import_s"], "s")
    out["cli.usage_exits"] = metric(tr["layers"]["cli"]["usage_exits"], "count")
    out["bench.self_s"] = metric(traced["wall_s"] - tr["top_s"], "s")
    out["trace.overhead_ratio"] = metric(
        traced["wall_s"] / untraced["wall_s"], "ratio")
    return out


def layer_split(workload, traced):
    """Self-time shares of the traced wall time, and whether the predicted
    dominant layers hold a majority."""
    wall = traced["wall_s"]
    shares = {name: st["self_s"] / wall
              for name, st in traced["trace"]["layers"].items()}
    shares["bench"] = (wall - traced["trace"]["top_s"]) / wall
    dominant = DOMINANT.get(workload)
    held = None if dominant is None else sum(shares[d] for d in dominant) > 0.5
    return shares, dominant, held


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "colorpart" / "__init__.py").is_file():
        print("error: no colorpart sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    load_before = loadavg()
    traces = (0, 1) if args.trace else (0,) * pass_count(args.seconds)
    try:
        passes = [one_pass(args.workload, args.seed, trace, deadline)
                  for trace in traces]
    except RunError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    load_after = loadavg()

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    kinds = {}
    for p in passes:
        for kind, (n, bad) in p["kinds"].items():
            tot = kinds.setdefault(kind, [0, 0])
            tot[0] += n
            tot[1] += bad
    record = run_record()
    record.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "loadavg_before": load_before,
        "loadavg_after": load_after,
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_setup_s": [p["setup_s"] for p in passes],
        "jobs_per_pass": passes[0]["attempted"],
        "jobs_by_kind_per_pass": {k: v[0] // len(passes) for k, v in kinds.items()},
        "sizes": passes[0]["sizes"],
    })

    print("workload %s  seed %d  passes %d  jobs/pass %d"
          % (args.workload, args.seed, len(passes), passes[0]["attempted"]))
    if args.trace:
        untraced, traced = passes
        metrics = per_layer(untraced, traced)
        shares, dominant, held = layer_split(args.workload, traced)
        record["layer_share_of_traced_wall"] = shares
        record["spans_file"] = str(
            spans_path(args.workload, args.seed).relative_to(ROOT))
        for name, m in metrics.items():
            print("  %-34s %14.6g %s" % (name, m["value"], m["unit"]))
        print("  self-time shares: " + ", ".join(
            "%s %.1f%%" % (k, 100 * v)
            for k, v in sorted(shares.items(), key=lambda kv: -kv[1]) if v >= 0.001))
        if dominant:
            print("  predicted dominant %s: %s" % (
                "+".join(dominant), "holds" if held else "DOES NOT HOLD"))
    else:
        metrics, samples = end_to_end(passes)
        for name, m in metrics.items():
            extra = ""
            if name == "job_p90_ms":
                extra = "  (%d samples per pass, %d beyond p90)" % (
                    samples, samples - math.ceil(0.9 * samples))
            print("  %-12s %12.6g %s%s" % (name, m["value"], m["unit"], extra))
    print("  %-12s %12.6g fraction  (%d failed of %d jobs)"
          % ("error_rate", failed / attempted, failed, attempted))
    for kind, (n, bad) in sorted(kinds.items()):
        if bad:
            print("  FAILED %s: %d of %d" % (kind, bad, n))
    errors = {p["first_error"] for p in passes if p["first_error"]}
    for error in sorted(errors):
        print("  job raised %s" % error)
    print("record " + json.dumps(record, default=str, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
