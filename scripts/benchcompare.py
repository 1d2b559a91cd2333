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

When both entries carry their raw samples (ns_per_op_samples, written
by benchjson.py) and the pooled samples split into more than 20 and at
most 12,870 ways (enough for the test below to reach p < 0.05 at all,
few enough to enumerate: 3 + 4 up to 8 + 8; CI runs 6 + 6), a median
rise beyond the threshold fails only if a one-sided Mann-Whitney U
test also finds the current samples slower than the previous ones
(p < 0.05). The p-value is exact: every split of the pooled midranks
is enumerated. A rise that one or two outlying samples make, with the
rest of the samples overlapping, passes as noise. Entries without raw
samples, or with too few or too many, keep the median-only rule.

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
import itertools
import json
import math
import sys

# An allocs_per_op rise fails the gate when it exceeds both bounds.
ALLOC_RATIO = 0.01
ALLOC_FLOOR = 8

# A median ns/op rise over raw samples fails only at p < ALPHA.
ALPHA = 0.05
# The U test applies when the pooled samples split into more than
# 1/ALPHA and at most MAX_SPLITS ways (8 + 8 samples).
MAX_SPLITS = 12_870


def alloc_regressed(old, new):
    """Report whether allocs_per_op rose beyond both allocation bounds."""
    return new - old > max(ALLOC_RATIO * old, ALLOC_FLOOR)


def midranks(values):
    """Return the 1-based ranks of values; tied values share their mean rank."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def slower_p(old, new):
    """One-sided Mann-Whitney U p-value for "new is slower than old".

    The statistic is the rank sum of new among the pooled samples; the
    p-value is the share of the splits of the pooled ranks into len(new)
    and len(old) whose new-side rank sum reaches the observed one.
    """
    n, m = len(old), len(new)
    ranks = midranks(list(old) + list(new))
    observed = sum(ranks[n:])
    hits = sum(1 for c in itertools.combinations(ranks, m) if sum(c) >= observed - 1e-9)
    return hits / math.comb(n + m, m)


def raw_samples(entry):
    """Return an entry's raw ns/op samples, or None when it has none."""
    samples = entry.get("ns_per_op_samples")
    if not isinstance(samples, list) or not samples:
        return None
    if not all(isinstance(v, (int, float)) for v in samples):
        return None
    return samples


def ns_regressed(was, now, threshold):
    """Judge an ns/op change: (regressed, relative change, p-value or None)."""
    change = now["ns_per_op"] / was["ns_per_op"] - 1.0
    old, new = raw_samples(was), raw_samples(now)
    if old is None or new is None or not 1 / ALPHA < math.comb(len(old) + len(new), len(new)) <= MAX_SPLITS:
        return change > threshold, change, None
    p = slower_p(old, new)
    return change > threshold and p < ALPHA, change, p


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
        regressed, change, p = ns_regressed(was, now, threshold)
        marker = "REGRESSED" if regressed else "noise" if change > threshold else "ok"
        detail = f"{was.get('samples', 1)} -> {now.get('samples', 1)} samples"
        if p is not None:
            detail += f", U-test p={p:.3f}"
        print(f"  {marker:>9}: {name}  {old_ns:.0f} -> {new_ns:.0f} ns/op ({change:+.1%}, {detail})")
        if regressed:
            regressions.append((name, f"{change:+.1%} ns/op"))

    if regressions:
        print(
            f"benchcompare: {len(regressions)} regression(s) beyond {threshold:.0%} ns/op "
            f"(and p < {ALPHA} where raw samples allow) "
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
