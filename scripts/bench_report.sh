#!/bin/sh
# Runs the simulator-core perf harness and compares it against the committed
# baseline (BENCH_simcore.json at the repo root).
#
# Gates (see DESIGN.md §8a and the CI perf-smoke job):
#   - allocs_per_event: HARD. Deterministic, so any workload reporting more
#     allocs/event than its committed baseline fails the run.
#   - event counts: HARD. A drifted count means simulation behavior changed
#     (the byte-identity sweep pins the same property at output granularity).
#   - missing baseline entry: HARD. Every measured workload must have a
#     committed baseline row; a new workload lands together with its entry.
#   - events_per_sec: WARNING only. Wall-clock numbers are machine-dependent;
#     a drop of more than FV_PERF_TOLERANCE (default 0.30 = 30%) below the
#     committed baseline is reported loudly but does not fail the run.
#
# Usage: bench_report.sh <build_dir> [out_json]
#   build_dir: a Release build containing bench/perf_simcore
#   out_json:  where to write the fresh report (default: BENCH_simcore.new.json)

set -u

build_dir="${1:?usage: bench_report.sh <build_dir> [out_json]}"
out_json="${2:-BENCH_simcore.new.json}"
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
baseline="$repo_root/BENCH_simcore.json"
tolerance="${FV_PERF_TOLERANCE:-0.30}"

bin="$build_dir/bench/perf_simcore"
[ -x "$bin" ] || { echo "missing $bin (build Release bench targets)" >&2; exit 1; }
[ -f "$baseline" ] || { echo "missing baseline $baseline" >&2; exit 1; }

FV_BENCH_REPS="${FV_BENCH_REPS:-5}" FV_BENCH_JSON="$out_json" "$bin" || exit 1

python3 - "$baseline" "$out_json" "$tolerance" <<'PY'
import json, sys

baseline_path, current_path, tol = sys.argv[1], sys.argv[2], float(sys.argv[3])

def rows(path):
    return {w["name"]: w for w in json.load(open(path))["workloads"]}

base = rows(baseline_path)
cur = rows(current_path)

fail = False

# Every measured workload needs a committed baseline row to gate against.
for name in cur:
    if name not in base:
        print(f"FAIL: workload '{name}' has no baseline entry in "
              f"{baseline_path} — add one to the committed 'workloads' "
              f"block before it can be gated")
        fail = True

print(f"\nperf vs committed baseline (ev/s tolerance: -{tol:.0%}, warning "
      f"only; allocs/event and event counts gate hard):")
print(f"{'workload':<20} {'baseline ev/s':>14} {'current ev/s':>14} "
      f"{'ratio':>7} {'allocs/ev':>10}")
for name, b in base.items():
    c = cur.get(name)
    if c is None:
        print(f"{name:<20} {'':>14} {'MISSING':>14}")
        fail = True
        continue
    ratio = c["events_per_sec"] / b["events_per_sec"]
    flag = ""
    if ratio < 1.0 - tol:
        flag = "  << SLOWDOWN (warning, not gated)"
    print(f"{name:<20} {b['events_per_sec']:>14,.0f} "
          f"{c['events_per_sec']:>14,.0f} {ratio:>6.2f}x "
          f"{c['allocs_per_event']:>10.3f}{flag}")
    if c["events"] != b["events"]:
        print(f"FAIL: {name}: event count changed: "
              f"{b['events']} -> {c['events']} "
              f"(simulation behavior drifted!)")
        fail = True
    if c["allocs_per_event"] > b["allocs_per_event"]:
        print(f"FAIL: {name}: allocs/event regressed: "
              f"{b['allocs_per_event']:.3f} -> {c['allocs_per_event']:.3f} "
              f"(deterministic hard gate; see DESIGN.md §8a)")
        fail = True
sys.exit(1 if fail else 0)
PY
