"""Benchmark of rossmac: four workloads, each a sequential closed loop in one
fresh process, with every output checked against the benchmark's own oracles.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is feedback_cali, fit_cali, regime_sweep or cli_calls.  --trace 0
prints the end-to-end metrics listed in BENCHMARK.json; --trace 1 prints the
per-layer metrics of a traced run, writes its spans under bench/out/ and
reports the tracing overhead.  The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics; the line before it records
versions, work done and, for a traced run, the overhead.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUPS = 5  # fresh processes whose set-up times give setup_s (their median)
DEADLINE_S = 175.0  # the whole run, set-ups and checks included
SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


def child(argv: list[str], deadline: float, env=None) -> str:
    """Run one process (in its own session, so that a timeout also ends its
    children) and return its stdout; stderr passes through."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"{argv[1]} ran past the deadline")
    if proc.returncode:
        raise SystemExit(f"{' '.join(argv[:3])} exited with {proc.returncode}")
    return out


def worker(args: list[str], deadline: float) -> dict:
    out = child([sys.executable, os.path.join(HERE, "worker.py"), *args], deadline)
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "rossmac", "__init__.py")):
        print(f"no rossmac sources under {src}; run from a rossmac checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    import numpy
    import scipy

    import inputs
    import oracle

    oracle.self_check()
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    # A traced run also probes the layers of every other workload.
    names = list(inputs.MAKERS) if args.trace else [args.workload]
    made = {n: inputs.MAKERS[n](args.seed) for n in names}
    with open(stem + ".inputs.json", "w") as fh:
        json.dump({"workload": args.workload, "programs": {n: p for n, (p, _) in made.items()}}, fh)
    with open(stem + ".expect.json", "w") as fh:
        json.dump({n: e for n, (_, e) in made.items()}, fh)

    # One untimed import first, so that no set-up pays for writing bytecode
    # or for a cold file cache.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child([sys.executable, "-c", "import rossmac.cli"], deadline, env)
    base = ["--inputs", stem + ".inputs.json"]
    setups = [] if args.trace else [
        worker(base + ["--setup-only"], deadline)["setup_s"] for _ in range(SETUPS - 1)]
    run = base + ["--expect", stem + ".expect.json", "--seconds", str(args.seconds)]
    if args.trace:
        run += ["--trace", "--spans", stem + ".spans.json"]
    res = worker(run, deadline)

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "rounds": res["rounds"], "busy_s": res.get("busy_s"), "error": res.get("error")}
    metrics = {}
    if res["correct"] and args.trace:
        traced, plain = res["traced_op_s"], res["op_s"]
        info["tracing_overhead"] = statistics.median(traced) / statistics.median(plain) - 1.0
        info["ops_traced"], info["ops_untraced"] = len(traced), len(plain)
        layers = res["layers"]
        for m in spec["per_layer"]:
            name, unit = m["name"], m["unit"]
            if name in layers:
                value = layers[name]
            else:
                value = layers[name.rsplit("_", 1)[0]] * SCALE[unit]
            metrics[name] = {"value": value, "unit": unit}
    elif res["correct"]:
        setups.append(res["setup_s"])
        info["setup_samples"] = setups
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": res["attempted"] / res["busy_s"],
            "op_median_ms": statistics.median(res["op_s"]) * 1e3,
            "peak_rss_mib": res["peak_rss_mib"],
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    result = {"correct": res["correct"], "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    with open(stem + ".result.json", "w") as fh:
        json.dump({**info, **result, "op_s": res["op_s"]}, fh, indent=1)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
