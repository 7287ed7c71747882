"""One pass of one workload in a fresh interpreter.

Sets up (imports colorpart and generates the seeded inputs), runs every
job once with a timer around its single library call, checks every
result, and prints one JSON line for run.py.  With --trace 1 the layer
modules are wrapped by the tracer for the timed phase only, the checks
run untraced, and the job spans go to spans_path(workload, seed).
"""

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent


def spans_path(workload, seed):
    """Where a traced pass writes its job spans."""
    return HERE / "out" / ("spans-%s-%d.jsonl" % (workload, seed))


class Record:
    __slots__ = ("kind", "result", "error")

    def __init__(self, kind, result, error):
        self.kind = kind
        self.result = result
        self.error = error


def run_jobs(workload, inputs, tracer=None, spans=None):
    """Run the job generator to the end; return (records, latencies)."""
    records, latencies = [], []
    gen = workload.jobs(inputs)
    try:
        kind, call = next(gen)
        while True:
            if tracer is not None:
                tracer.last_top = None
            t0 = perf_counter()
            try:
                result, error = call(), None
            except Exception as exc:  # a failed job is counted, not fatal
                result, error = None, "%s: %s" % (type(exc).__name__, exc)
            t1 = perf_counter()
            latencies.append(t1 - t0)
            records.append(Record(kind, result, error))
            if spans is not None:
                key = tracer.last_top
                layer = tracer.stats[key].layer if key else "bench"
                spans.append((len(spans) + 1, layer, key or kind, t0, t1, 0))
            kind, call = gen.send(result)
    except StopIteration:
        pass
    return records, latencies


def check_records(workload, inputs, records):
    """Per-job ok flags; a check that breaks fails every job."""
    try:
        ok = list(workload.check(inputs, records))
    except Exception:
        traceback.print_exc()
        return [False] * len(records)
    if len(ok) != len(records):
        print("check returned %d flags for %d jobs" % (len(ok), len(records)),
              file=sys.stderr)
        return [False] * len(records)
    return [flag and rec.error is None for flag, rec in zip(ok, records)]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    out = {}
    if args.trace:
        t0 = perf_counter()
        import colorpart.scalars  # noqa: F401  (pulls in sympy)
        out["import_s"] = perf_counter() - t0
    import colorpart.cli  # noqa: F401
    from workloads import load
    workload = load(args.workload)
    tracer = spans = None
    if args.trace:
        from tracer import Tracer
        # wrappers double the stack depth of recursive library calls
        sys.setrecursionlimit(max(sys.getrecursionlimit(), 5000))
        tracer, spans = Tracer(), []
        tracer.install()
    inputs = workload.make_inputs(args.seed)
    out["t_ready"] = time.clock_gettime(time.CLOCK_MONOTONIC)

    ready = perf_counter()
    records, latencies = run_jobs(workload, inputs, tracer, spans)
    out["wall_s"] = perf_counter() - ready
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.report()

    ok = check_records(workload, inputs, records)
    out["latency_s"] = latencies
    kinds = {}
    for rec, flag in zip(records, ok):
        n, bad = kinds.get(rec.kind, (0, 0))
        kinds[rec.kind] = (n + 1, bad + (not flag))
    out["kinds"] = kinds
    out["attempted"] = len(records)
    out["failed"] = sum(not flag for flag in ok)
    out["first_error"] = next((r.error for r in records if r.error), None)
    out["sizes"] = workload.sizes(inputs)

    if spans is not None:
        path = spans_path(args.workload, args.seed)
        path.parent.mkdir(exist_ok=True)
        with open(path, "w") as fh:
            # times in seconds from ready; span 0 is the whole timed phase
            fh.write(json.dumps({"id": 0, "layer": "bench", "function": "run",
                                 "start": 0.0, "end": out["wall_s"],
                                 "parent": None}) + "\n")
            for sid, layer, fn, start, end, parent in spans:
                fh.write(json.dumps({"id": sid, "layer": layer,
                                     "function": fn, "start": start - ready,
                                     "end": end - ready, "parent": parent})
                         + "\n")
    print(json.dumps(out, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
