#!/usr/bin/env python3
"""Benchmark regression gate for BENCH_*.json files.

Flattens a benchmark report into dotted metric paths (list entries keyed by
their index, e.g. `sweep.0.aggregate_fps`), then applies two kinds of
checks:

1. Absolute guards — invariants of the current report that hold at any
   scale, with no noise margin (e.g. an 8-stream fleet beats 8 sequential
   runs by at least 4x; AVX2 LK clears 1.5x over scalar).

2. Baseline comparison (`--baseline old.json`) — directional checks with a
   noise margin (default 30%: wall-clock numbers on shared CI runners are
   that noisy; counter-like metrics get a small absolute epsilon instead).
   When the two reports were produced at different scales (smoke vs full:
   different `smoke` flag or frame count), only scale-invariant per-frame
   ratios are compared — comparing a 48-frame smoke's wall_ms against a
   full run's is meaningless.

Exit status: 0 when every check passes, 1 otherwise.

Usage:
  scripts/bench_gate.py build/BENCH_FLEET.smoke.json
  scripts/bench_gate.py build/BENCH_FLEET.smoke.json --baseline old.json
  scripts/bench_gate.py current.json --baseline old.json --margin 0.5
"""

import argparse
import json
import sys

# Absolute guards: (dotted path, op, bound). Missing paths are reported but
# do not fail the gate (older reports may predate a metric).
GUARDS = [
    # Fleet consolidation (BENCH_FLEET.json, DESIGN.md §13): an 8-stream
    # fleet must finish in at most a quarter of the sequential pipeline
    # time, and sharing the GPU must not worsen any single stream's p99
    # result latency by more than 2x over running that stream alone.
    ("gate.fleet_fps_speedup", ">=", 4.0),
    ("gate.p99_latency_ratio", "<=", 2.0),
    # Fleet supervision (BENCH_FLEET.chaos.json, DESIGN.md §15): under the
    # chaos fault mix the crashed stream must recover at least half of its
    # all-healthy served-frame rate — the supervisor re-admits and resumes
    # the stream instead of shedding it.
    ("gate.chaos_recovery_fps_ratio", ">=", 0.5),
    # SIMD tiers (BENCH_KERNELS.json, DESIGN.md §14): on AVX2 hosts the
    # vectorized pyramid build and LK flow must clear 1.5x over the scalar
    # reference at one thread. bench_kernels omits the gate block on hosts
    # without AVX2, so these SKIP rather than fail there. Ratios of
    # same-report timings are scale-invariant (smoke and full both count).
    ("gate.avx2_pyramid_speedup", ">=", 1.5),
    ("gate.avx2_lk_speedup", ">=", 1.5),
]

# Direction per metric leaf name: -1 lower is better, +1 higher is better.
# Unlisted leaves are informational only.
DIRECTION = {
    "aggregate_fps": 1,
    "speedup": 1,
    "fleet_fps_speedup": 1,
    "p99_latency_ratio": -1,
    "chaos_recovery_fps_ratio": 1,
    "time_to_readmit_ms": -1,
    "worst_p99_ms": -1,
    "deadline_miss_rate": -1,
    "avx2_pyramid_speedup": 1,
    "avx2_lk_speedup": 1,
}

# Leaves that are meaningful across scales (per-frame ratios and steady-state
# properties). Everything else is skipped when smoke is compared to full.
SCALE_INVARIANT = {
    "fleet_fps_speedup",
    "p99_latency_ratio",
    "chaos_recovery_fps_ratio",
    "deadline_miss_rate",
    "speedup",
    "avx2_pyramid_speedup",
    "avx2_lk_speedup",
}

# Counter-ish metrics near zero: relative margins are useless there, allow
# this much absolute slack instead.
ABS_EPSILON = 2.0


def flatten(node, prefix=""):
    """Yields (dotted_path, number) for every numeric leaf."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from flatten(value, f"{prefix}{key}." if prefix or key else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from flatten(value, f"{prefix}{i}.")
    elif isinstance(node, bool):
        pass
    elif isinstance(node, (int, float)):
        yield prefix.rstrip("."), float(node)


def load_flat(path):
    with open(path) as f:
        doc = json.load(f)
    flat = {}
    for key, value in flatten(doc):
        # flatten() appends "." between segments; normalize leaf paths.
        flat[key.replace("..", ".")] = value
    return doc, flat


def same_scale(doc_a, doc_b):
    if bool(doc_a.get("smoke")) != bool(doc_b.get("smoke")):
        return False
    frames_a = doc_a.get("scene", {}).get("frames")
    frames_b = doc_b.get("scene", {}).get("frames")
    return frames_a == frames_b


def check_guards(flat):
    failures = []
    for path, op, bound in GUARDS:
        if path not in flat:
            print(f"  guard  SKIP  {path} (not in report)")
            continue
        value = flat[path]
        ok = value <= bound if op == "<=" else value >= bound
        print(f"  guard  {'ok' if ok else 'FAIL':4}  {path} = {value:g} "
              f"(want {op} {bound:g})")
        if not ok:
            failures.append(path)
    return failures


def check_baseline(flat, base_flat, comparable, margin):
    failures = []
    for path in sorted(set(flat) & set(base_flat)):
        leaf = path.rsplit(".", 1)[-1]
        direction = DIRECTION.get(leaf, 0)
        if direction == 0:
            continue
        if not comparable and leaf not in SCALE_INVARIANT:
            continue
        current, base = flat[path], base_flat[path]
        # Worse = regression in the metric's bad direction beyond both the
        # relative noise margin and the absolute epsilon.
        delta = (current - base) * -direction  # > 0 means worse
        allowed = max(abs(base) * margin, ABS_EPSILON)
        ok = delta <= allowed
        if not ok or abs(delta) > allowed:
            arrow = "worse" if delta > 0 else "better"
            print(f"  bench  {'ok' if ok else 'FAIL':4}  {path}: "
                  f"{base:g} -> {current:g} ({arrow}, margin {allowed:g})")
        if not ok:
            failures.append(path)
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", help="current BENCH_*.json")
    parser.add_argument("--baseline", help="previous BENCH_*.json to compare")
    parser.add_argument("--margin", type=float, default=0.30,
                        help="relative noise margin (default 0.30)")
    args = parser.parse_args()

    doc, flat = load_flat(args.report)
    print(f"bench_gate: {args.report} ({len(flat)} metrics)")
    failures = check_guards(flat)

    if args.baseline:
        base_doc, base_flat = load_flat(args.baseline)
        comparable = same_scale(doc, base_doc)
        if not comparable:
            print("  note: reports differ in scale (smoke vs full); "
                  "comparing scale-invariant metrics only")
        failures += check_baseline(flat, base_flat, comparable, args.margin)

    if failures:
        print(f"bench_gate: FAILED ({len(failures)}): " + ", ".join(failures))
        return 1
    print("bench_gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
