"""One workload in a fresh process: set-up, the timed closed loop, checks.

    python bench/worker.py --inputs FILE --expect FILE --seconds S [--trace]
    python bench/worker.py --inputs FILE --setup-only

Set-up runs from before `import rossmac` to the start of the first timed
operation.  The loop then runs whole rounds of the workload's operations,
one at a time, until the operations' own wall times add up to --seconds.
Each output is checked between operations, outside the timed intervals.

With --trace the set-up is traced and rounds alternate untraced and traced.
A traced run reports every per-layer metric of BENCHMARK.json, also for the
layers this workload never calls; each of those is timed on a short traced
probe of the workload that calls it.  The last stdout line is one JSON
object.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import rossmac  # noqa: E402  (timed as part of set-up)

if not os.path.abspath(rossmac.__file__).startswith(SRC + os.sep):
    sys.exit(f"rossmac imported from {rossmac.__file__}, not from {SRC}")

import workloads as W  # noqa: E402
from spans import Tracer  # noqa: E402

PROBE_OPS = {"feedback_cali": 2, "fit_cali": 1, "regime_sweep": None, "cli_calls": None}
CHILD_REPS = 3  # interpreter and import timings per traced run


def run_op(wl, op, tracer, op_id, expect):
    """Time one operation, then check it; returns (seconds, failed)."""
    tracer.op = op_id
    t = time.perf_counter()
    with tracer.span("op"):
        out = wl.run(op)
    dt = time.perf_counter() - t
    return dt, wl.check(op, out, expect)


def probe(name, program, expect, tracer, out_dir):
    """A traced set-up and the first operations of another workload."""
    tracer.op = f"probe:{name}:setup"
    wl = W.WORKLOADS[name](program, tracer, out_dir)
    for k, op in enumerate(wl.ops[:PROBE_OPS[name]]):
        run_op(wl, op, tracer, f"probe:{name}:{k}", expect)
    return wl


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--expect")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="where a traced run writes its spans")
    args = ap.parse_args()
    if not args.setup_only and (args.expect is None or args.seconds is None):
        ap.error("a measuring run needs --expect and --seconds")

    with open(args.inputs) as fh:
        inputs = json.load(fh)
    name = inputs["workload"]
    out_dir = os.path.dirname(os.path.abspath(args.inputs))
    tracer = Tracer()
    tracer.enabled = args.trace
    tracer.op = "setup"
    wl = W.WORKLOADS[name](inputs["programs"][name], tracer, out_dir)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    with open(args.expect) as fh:
        expects = json.load(fh)
    result = {"workload": name, "setup_s": setup_s, "correct": True, "attempted": 0,
              "failed": 0, "rounds": 0, "op_s": [], "traced_op_s": []}
    try:
        busy, rnd = 0.0, 0
        while busy < args.seconds or (args.trace and rnd < 2):
            tracer.enabled = args.trace and rnd % 2 == 1
            times = result["traced_op_s" if tracer.enabled else "op_s"]
            for k, op in enumerate(wl.ops):
                result["attempted"] += 1
                dt, failed = run_op(wl, op, tracer, f"{rnd}:{k}", expects[name])
                times.append(dt)
                busy += dt
                result["failed"] += failed
            rnd += 1
        result["rounds"], result["busy_s"] = rnd, busy
        who = resource.RUSAGE_CHILDREN if wl.children else resource.RUSAGE_SELF
        result["peak_rss_mib"] = resource.getrusage(who).ru_maxrss / 1024.0
        if args.trace:
            tracer.enabled = True
            layer_probes(wl, name, inputs, expects, tracer, out_dir)
            result["layers"] = tracer.per_call(lambda op: not str(op).startswith("probe:"))
            tracer.dump(args.spans, {"workload": name})
    except Exception as exc:  # a wrong output or a crash: report it as incorrect
        traceback.print_exc()
        result["correct"] = False
        result["error"] = f"{type(exc).__name__}: {exc}"
    print(json.dumps(result))
    return 0


def layer_probes(wl, name, inputs, expects, tracer, out_dir) -> None:
    """Child-process timings, in-process CLI calls, and a short probe of every
    other workload, so that each layer metric gets a value."""
    cli = wl
    for other, program in inputs["programs"].items():
        if other != name:
            p = probe(other, program, expects[other], tracer, out_dir)
            cli = p if other == "cli_calls" else cli
    tracer.op = "probe:cli_calls:children"
    cli.child_times(CHILD_REPS)
    for op, out in cli.main_calls():
        cli.check(op, out, expects["cli_calls"])


if __name__ == "__main__":
    sys.exit(main())
