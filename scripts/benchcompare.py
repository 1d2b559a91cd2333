#!/usr/bin/env python3
"""Gate benchmark regressions against the previous CI artifact.

Usage: benchcompare.py PREVIOUS.json CURRENT.json [threshold]

Compares the ns_per_op of every benchmark present in both artifacts
(the JSON written by benchjson.py) and fails — exit 1 — when any
benchmark regressed by more than the threshold (default 0.10 = +10%
wall clock). Improvements and new benchmarks pass silently; benchmarks
that disappeared are reported but do not fail the gate (renames happen).
ns_per_op is the median of an entry's samples when the benchmarks ran
with -count N, and the one sample in artifacts written before
benchjson.py merged samples; either compares against the other.

Allocations are gated too: a benchmark whose allocs_per_op (recorded
when it runs with -benchmem or calls b.ReportAllocs) rises by more than
1% AND by more than 8 allocations fails as well. Allocation counts are
deterministic where time is not: BenchmarkColdOR read the same count
within 0.02% across runs whose ns/op differed by nearly 2x, and the
multi-worker Fig9aSweepParallel within 0.01%. The 8-allocation floor
covers the one-off runtime allocations a single -benchtime=1x sample
can catch: over eight 1x runs, rta's AnalyzeStable/ppn=4 read 2 or 7
allocations and engine's MapOverhead/parallel 5 to 8.

The gate is tolerant of a missing or unreadable previous artifact: the
first run on a branch, an expired artifact or a changed schema all
print a notice and exit 0, so the gate can never wedge CI on history
it does not have. CI wall clocks are noisy, so the benchmarks behind
this gate should use fixed -benchtime iteration counts and the
threshold should stay comfortably above run-to-run jitter.
"""
import json
import sys

# An allocs_per_op rise fails the gate when it exceeds both bounds.
ALLOC_RATIO = 0.01
ALLOC_FLOOR = 8


def alloc_regressed(old, new):
    """Report whether allocs_per_op rose beyond both allocation bounds."""
    return new - old > max(ALLOC_RATIO * old, ALLOC_FLOOR)


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return None, str(e)
    benches = doc.get("benchmarks")
    if not isinstance(benches, dict):
        return None, "no 'benchmarks' section"
    return benches, None


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    prev_path, cur_path = sys.argv[1], sys.argv[2]
    threshold = float(sys.argv[3]) if len(sys.argv) > 3 else 0.10

    prev, err = load(prev_path)
    if prev is None:
        print(f"benchcompare: no previous artifact ({prev_path}: {err}); skipping gate")
        return 0
    cur, err = load(cur_path)
    if cur is None:
        print(f"benchcompare: current artifact unreadable ({cur_path}: {err})", file=sys.stderr)
        return 1

    regressions = []
    for name, was in sorted(prev.items()):
        now = cur.get(name)
        if now is None:
            print(f"  gone: {name} (was {was.get('ns_per_op')} ns/op)")
            continue
        old_allocs, new_allocs = was.get("allocs_per_op"), now.get("allocs_per_op")
        if old_allocs is not None and new_allocs is not None:
            if alloc_regressed(old_allocs, new_allocs):
                print(f"  REGRESSED: {name}  {old_allocs:.0f} -> {new_allocs:.0f} allocs/op")
                regressions.append((name, f"{old_allocs:.0f} -> {new_allocs:.0f} allocs/op"))
        old_ns, new_ns = was.get("ns_per_op"), now.get("ns_per_op")
        if not old_ns or not new_ns:
            continue
        change = new_ns / old_ns - 1.0
        marker = "REGRESSED" if change > threshold else "ok"
        counts = f"{was.get('samples', 1)} -> {now.get('samples', 1)} samples"
        print(f"  {marker:>9}: {name}  {old_ns:.0f} -> {new_ns:.0f} ns/op ({change:+.1%}, {counts})")
        if change > threshold:
            regressions.append((name, f"{change:+.1%} ns/op"))

    if regressions:
        print(
            f"benchcompare: {len(regressions)} regression(s) beyond {threshold:.0%} ns/op "
            f"or {ALLOC_RATIO:.0%} and {ALLOC_FLOOR} allocs/op:",
            file=sys.stderr,
        )
        for name, what in regressions:
            print(f"  {name}: {what}", file=sys.stderr)
        return 1
    print(
        f"benchcompare: {len(cur)} benchmarks within {threshold:.0%} ns/op and "
        f"{ALLOC_RATIO:.0%} allocs/op of {prev_path}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
