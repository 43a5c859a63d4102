#!/usr/bin/env python3
"""lowbist performance benchmark: builds lbbench and runs one workload.

One run, from the root of a checkout:

    python3 perfbench/run.py --workload serve-small --seed 1 --seconds 20 --trace 0

builds the benchmark (and the library from ../src) into .bench_build on
first use, runs the workload in its own process, and prints the run's notes
and metrics, ending with one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics.
The exit code is 0 only when every output check passed.

Steadiness mode runs a workload N times with seeds S..S+N-1 (K sets of
them) and prints, for every end-to-end metric, the median, the quartiles
and the spread (q3 - q1) / median against the metric's bound:

    python3 perfbench/run.py --workload mid-exact --steady 10 --sets 2

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-small", "mid-exact", "large-greedy")
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT,
                        os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures and builds lbbench; returns the executable's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"lowbist sources not found under {ROOT}/src")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    try:
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", out, "--target", "lbbench",
                        "-j", jobs], stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")
    return os.path.join(out, "lbbench")


def declared_metrics():
    """{"end_to_end": {name: spec}, "per_layer": {...}} from BENCHMARK.json,
    or None when the file is absent."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {kind: {m["name"]: m for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def run_once(exe, workload, seed, seconds, trace):
    """Runs one workload process; returns (exit code, stdout lines, result)."""
    try:
        proc = subprocess.run(
            [exe, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.splitlines()
    if not lines:
        fail(f"{workload} printed no result (exit {proc.returncode})", 1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload} did not end with a JSON result (exit "
             f"{proc.returncode})", 1)
    declared = declared_metrics()
    if declared is not None:
        want = set(declared["per_layer" if trace else "end_to_end"])
        got = set(result["metrics"])
        if want != got:
            fail(f"metrics differ from BENCHMARK.json: missing "
                 f"{sorted(want - got)}, extra {sorted(got - want)}", 1)
    return proc.returncode, lines, result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steady(exe, args):
    declared = declared_metrics()
    bounds = ({n: m.get("bound") for n, m in declared["end_to_end"].items()}
              if declared else {})
    medians = []
    ok = True
    for s in range(args.sets):
        values = {}
        digests = set()
        for i in range(args.steady):
            seed = args.seed + i
            code, lines, result = run_once(exe, args.workload, seed,
                                           args.seconds, 0)
            if code != 0 or not result["correct"]:
                ok = False
                print(f"set {s} seed {seed}: checks FAILED", flush=True)
            digests.update(l.split()[1] for l in lines
                           if l.startswith("digest "))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"set {s} seed {seed}: " + " ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
                flush=True)
        print(f"set {s}: {args.workload}, {args.steady} runs, digest "
              f"{' '.join(sorted(digests))}")
        if len(digests) != 1:
            ok = False
            print("  digest differs between runs")
        set_medians = {}
        for name, vals in values.items():
            q1, q2, q3 = quartiles(vals)
            spread = (q3 - q1) / q2 if q2 else float("nan")
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = ("steady" if spread <= bound / 3 else
                           "within bound" if spread <= bound else
                           "OUTSIDE bound")
                if name != "setup_s" and spread > bound:
                    ok = False
            print(f"  {name:24s} median {q2:<14.6g} q1 {q1:<14.6g} "
                  f"q3 {q3:<14.6g} spread {spread:8.4f} bound {bound} "
                  f"{verdict}")
            set_medians[name] = q2
        medians.append(set_medians)
    for s in range(1, len(medians)):
        print(f"set {s} vs set 0 (median change, worse direction only "
              f"counts against the bound):")
        for name, first in medians[0].items():
            second = medians[s][name]
            change = (second - first) / first if first else 0.0
            spec = declared["end_to_end"].get(name) if declared else None
            worse = (change if spec and spec["better"] == "lower"
                     else -change)
            bound = spec["bound"] if spec else None
            flag = ("OUTSIDE bound" if bound is not None and worse > bound
                    else "ok")
            if flag != "ok":
                ok = False
            print(f"  {name:24s} {first:<14.6g} -> {second:<14.6g} "
                  f"change {change:+.4f} bound {bound} {flag}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="steadiness mode: N runs per set")
    parser.add_argument("--sets", type=int, default=1, metavar="K",
                        help="steadiness mode: number of sets of N runs")
    args = parser.parse_args()
    exe = build()
    if args.steady > 0:
        return steady(exe, args)
    code, lines, _ = run_once(exe, args.workload, args.seed, args.seconds,
                              args.trace)
    print("\n".join(lines), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
