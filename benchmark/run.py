#!/usr/bin/env python3
"""fvbench runner: builds the benchmark, runs workloads, checks and compares.

  python3 benchmark/run.py [--seconds S] [--scale smoke] [--workloads a,b]
      Builds Release into build-bench/, runs every workload untraced and
      traced in separate processes, and prints every metric named in
      BENCHMARK.json with its unit.

  python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
      One run. The last stdout line is a JSON object with the keys correct,
      attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
      untraced, the per-layer metrics traced.

  python3 benchmark/run.py collect --out FILE [--runs 10] [--first-seed 1]
                                   [--workloads a,b] [--seconds S] [--trace]
      Runs each workload once per seed and stores the results.

  python3 benchmark/run.py spread FILE
      Repeatability of one collected set: per metric the quartile spread as
      a share of the median, against the metric's bound.

  python3 benchmark/run.py compare A B
      Compares two collected sets (A the parent, B the change): medians and
      quartiles, each metric's bound, `unresolved` when the spread is wider
      than the bound, and the 9-of-10-pairs rule for a gain.

Every run exports FV_SIM_THREADS=<nproc>. Only the standard library is used.
"""

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmark"
BUILD_DIR = ROOT / "build-bench"
BINARY = BUILD_DIR / "fvbench"
SPEC_FILE = ROOT / "BENCHMARK.json"
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")
# One fvbench process may take this long; a run must end within 180 s
# (the first one in a checkout also builds, which may take longer).
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    """A build, run or result problem; the runner exits nonzero."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec(path=SPEC_FILE):
    with open(path) as f:
        return json.load(f)


def metric_specs(spec, trace):
    """The metric entries a run reports: per-layer when traced."""
    return spec["per_layer"] if trace else spec["end_to_end"]


def nproc():
    return os.cpu_count() or 1


def build():
    """Configures and builds fvbench (Release); a no-op when up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("simulator sources (src/) not found next to "
                         "benchmark/; cannot build fvbench")
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD_DIR), "--target", "fvbench",
         "-j", str(nproc())],
    ]
    if (BUILD_DIR / "CMakeCache.txt").is_file() and BINARY.is_file():
        steps = steps[1:]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise BenchError("build step failed: " + " ".join(cmd))


def parse_result(stdout):
    """The JSON object on the last non-empty stdout line of fvbench."""
    lines = [ln for ln in stdout.strip().splitlines() if ln.strip()]
    if not lines:
        raise BenchError("fvbench printed nothing")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        raise BenchError("last line is not JSON: %s" % e)
    if not isinstance(result, dict):
        raise BenchError("result is not a JSON object")
    for key in RESULT_KEYS:
        if key not in result:
            raise BenchError("result lacks '%s'" % key)
    if result["correct"] is not True:
        raise BenchError("fvbench reported incorrect output")
    if not isinstance(result["metrics"], dict):
        raise BenchError("result metrics is not an object")
    return result


def to_contract(result, specs):
    """Keeps exactly the metrics `specs` names, checking values and units."""
    metrics = {}
    for m in specs:
        got = result["metrics"].get(m["name"])
        if got is None:
            raise BenchError("metric %s missing from the run" % m["name"])
        value = got.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise BenchError("metric %s has no numeric value" % m["name"])
        if got.get("unit") != m["unit"]:
            raise BenchError("metric %s in %s, expected %s" %
                             (m["name"], got.get("unit"), m["unit"]))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    attempted = int(result["attempted"])
    failed = int(result["failed"])
    if attempted < 1:
        raise BenchError("no operation attempted")
    return {"correct": True, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_fvbench(workload, seed, seconds, trace, scale="full", extra=()):
    """Runs one fvbench process; returns (returncode, stdout, stderr)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--scale", scale]
    if trace:
        traces = BUILD_DIR / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", str(traces / ("%s-seed%d.json" % (workload, seed)))]
    cmd += list(extra)
    env = dict(os.environ, FV_SIM_THREADS=str(nproc()))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S, cwd=str(ROOT))
    except subprocess.TimeoutExpired:
        raise BenchError("fvbench %s timed out" % workload)
    return proc.returncode, proc.stdout, proc.stderr


def one_run(spec, workload, seed, seconds, trace, scale="full"):
    names = [w["name"] for w in spec["workloads"]]
    if workload not in names:
        raise BenchError("unknown workload %s (have %s)" %
                         (workload, ", ".join(names)))
    code, out, err = run_fvbench(workload, seed, seconds, trace, scale)
    if code != 0:
        log(err.strip()[-4000:])
        raise BenchError("fvbench %s exited with status %d" % (workload, code))
    return to_contract(parse_result(out), metric_specs(spec, trace))


# --- Statistics -------------------------------------------------------------


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def describe(quarts):
    """'median [q1, q3]' for a (q1, median, q3) triple."""
    q1, med, q3 = quarts
    return "%.5g [%.5g, %.5g]" % (med, q1, q3)


def spread_share(values):
    """Quartile distance as a share of the median (0 for constant data)."""
    q1, med, q3 = quartiles(values)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / abs(med) if med else float("inf")


def worse_by(parent, change, better):
    """How much worse `change` is than `parent`, as a share of `parent`."""
    if parent == change:
        return 0.0
    if parent == 0:
        return float("inf") if (change > 0) == (better == "lower") else -1.0
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def verdict(parent, change, better, bound):
    """Classifies one (workload, metric) pair of run sets.

    parent and change are equally long lists of per-seed values, paired by
    position. Returns (label, details) where label is one of better, worse,
    same or unresolved.
    """
    sign = 1 if better == "lower" else -1
    quart_a = quartiles(parent)
    quart_b = quartiles(change)
    med_a = quart_a[1]
    med_b = quart_b[1]
    spread_a = spread_share(parent)
    spread_b = spread_share(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
    losses = sum(1 for a, b in pairs if sign * (b - a) > 0)
    details = {"quartiles_a": quart_a, "quartiles_b": quart_b,
               "median_a": med_a, "median_b": med_b,
               "spread_a": spread_a, "spread_b": spread_b,
               "worse_by": worse_by(med_a, med_b, better),
               "wins": wins, "losses": losses, "pairs": len(pairs)}
    all_better = all(sign * (b - a) < 0 for a in parent for b in change)
    if bound is not None and max(spread_a, spread_b) > bound:
        return ("better" if all_better else "unresolved"), details
    if bound is not None and details["worse_by"] > bound:
        return "worse", details
    if (pairs and wins >= 0.9 * len(pairs)
            and abs(med_b - med_a) > quart_a[2] - quart_a[0]):
        return "better", details
    return "same", details


# --- Collected sets ---------------------------------------------------------


def load_set(path):
    with open(path) as f:
        data = json.load(f)
    if "runs" not in data:
        raise BenchError("%s holds no collected runs" % path)
    return data


def series(data, workload, metric, trace=False):
    """Per-seed values of one metric, ordered by seed."""
    runs = [r for r in data["runs"]
            if r["workload"] == workload and bool(r["trace"]) == trace]
    runs.sort(key=lambda r: r["seed"])
    return [r["result"]["metrics"][metric]["value"] for r in runs
            if metric in r["result"]["metrics"]]


def run_settings(spec, args):
    """(seconds, scale) of the runs `args` asks for: smoke runs default to
    one second, full runs to BENCHMARK.json's run_seconds."""
    scale = args.get("scale", "full")
    default = 1 if scale == "smoke" else spec["run_seconds"]
    return args.get("seconds", default), scale


def cmd_collect(spec, args):
    out = args.get("out")
    if not out:
        raise BenchError("collect needs --out FILE")
    runs = int(args.get("runs", 10))
    first = int(args.get("first-seed", 1))
    seconds, scale = run_settings(spec, args)
    trace = "trace" in args
    workloads = workload_list(spec, args)
    build()
    data = {"seconds": seconds, "scale": scale, "runs": []}
    for seed in range(first, first + runs):
        for w in workloads:
            t0 = time.time()
            result = one_run(spec, w, seed, seconds, trace, scale)
            log("%s seed %d: %.1f s" % (w, seed, time.time() - t0))
            data["runs"].append({"workload": w, "seed": seed,
                                 "trace": int(trace), "result": result})
            with open(out, "w") as f:
                json.dump(data, f, indent=1)
    return 0


def cmd_spread(spec, path):
    data = load_set(path)
    ok = True
    print("%-16s %-22s %12s %12s %12s %8s %8s" %
          ("workload", "metric", "q1", "median", "q3", "spread", "bound"))
    for w in [x["name"] for x in spec["workloads"]]:
        for m in spec["end_to_end"]:
            vals = series(data, w, m["name"])
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            s = spread_share(vals)
            flag = ""
            if m["name"] != "setup_s" and s > m["bound"] / 3:
                flag = "  > bound/3"
                ok = False
            print("%-16s %-22s %12.6g %12.6g %12.6g %8.4f %8.3f%s" %
                  (w, m["name"], q1, med, q3, s, m["bound"], flag))
    return 0 if ok else 1


def cmd_compare(spec, path_a, path_b):
    a = load_set(path_a)
    b = load_set(path_b)
    counts = {"better": 0, "worse": 0, "same": 0, "unresolved": 0}
    print("%-15s %-20s %-31s %-31s %9s %6s %6s  %s" %
          ("workload", "metric", "A: median [q1, q3]", "B: median [q1, q3]",
           "worse by", "bound", "wins", "verdict"))
    for w in [x["name"] for x in spec["workloads"]]:
        for m in spec["end_to_end"]:
            va = series(a, w, m["name"])
            vb = series(b, w, m["name"])
            if not va or not vb:
                continue
            n = min(len(va), len(vb))
            label, d = verdict(va[:n], vb[:n], m["better"], m["bound"])
            counts[label] += 1
            print("%-15s %-20s %-31s %-31s %+9.4f %6.3f %3d/%-2d  %s" %
                  (w, m["name"], describe(d["quartiles_a"]),
                   describe(d["quartiles_b"]), d["worse_by"], m["bound"],
                   d["wins"], d["pairs"], label))
    print("summary: " + ", ".join("%d %s" % (v, k)
                                  for k, v in counts.items()))
    return 1 if counts["worse"] or counts["unresolved"] else 0


# --- Full suite -------------------------------------------------------------


def workload_list(spec, args):
    names = [w["name"] for w in spec["workloads"]]
    if "workloads" not in args:
        return names
    chosen = args["workloads"].split(",")
    for w in chosen:
        if w not in names:
            raise BenchError("unknown workload " + w)
    return chosen


def cmd_suite(spec, args):
    seconds, scale = run_settings(spec, args)
    seed = int(args.get("seed", 1))
    build()
    for w in workload_list(spec, args):
        for trace in (False, True):
            t0 = time.time()
            result = one_run(spec, w, seed, seconds, trace, scale)
            print("%s (%s, seed %d, %.1f s): correct, %d attempted, "
                  "%d failed" % (w, "per-layer" if trace else "end-to-end",
                                 seed, time.time() - t0,
                                 result["attempted"], result["failed"]))
            for name, m in result["metrics"].items():
                print("  %-36s %16.6g %s" % (name, m["value"], m["unit"]))
            sys.stdout.flush()
    return 0


def parse_flags(argv):
    """--key value pairs (and bare --flag) into a dict."""
    out = {}
    i = 0
    while i < len(argv):
        arg = argv[i]
        if not arg.startswith("--"):
            raise BenchError("unexpected argument " + arg)
        key = arg[2:]
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out[key] = argv[i + 1]
            i += 2
        else:
            out[key] = True
            i += 1
    return out


def main(argv):
    spec = load_spec()
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            raise BenchError("usage: run.py compare A B")
        return cmd_compare(spec, argv[1], argv[2])
    if argv and argv[0] == "spread":
        if len(argv) != 2:
            raise BenchError("usage: run.py spread FILE")
        return cmd_spread(spec, argv[1])
    if argv and argv[0] == "collect":
        return cmd_collect(spec, parse_flags(argv[1:]))
    args = parse_flags(argv)
    if "workload" not in args:
        return cmd_suite(spec, args)
    trace = str(args.get("trace", "0")) == "1"
    seconds, scale = run_settings(spec, args)
    build()
    result = one_run(spec, args["workload"], int(args.get("seed", 1)),
                     seconds, trace, scale)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        log("run.py: " + str(e))
        sys.exit(1)
