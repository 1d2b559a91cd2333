#!/usr/bin/env python3
"""Convert `go test -bench` output into a JSON benchmark artifact.

Reads benchmark output on stdin, writes JSON to the file named by the
first argument. Benchmarks named *Cold/*Cached are paired into a
comparison section so the artifact directly answers "what does the
cached Solver session buy over cold starts", and every benchmark also
carries requests_per_sec (1e9 / ns_per_op) so service artifacts
(BENCH_service.json) directly report throughput.

Custom metrics emitted via testing.B.ReportMetric (e.g. the DSE
benchmarks' front_size, hypervolume and evaluations) are collected
verbatim, so BENCH_dse.json reports the front quality next to the
wall-clock per worker count.

Benchmarks named *DeltaOff/*DeltaOn are likewise paired into a
delta_speedup section — the measured payoff of the incremental
delta-evaluation engine, with the engine's delta_hit_rate metric
carried alongside — so BENCH_solver.json and BENCH_dse.json directly
answer "what does delta evaluation buy and how often does it hit".

A benchmark run with -count N prints N lines; they merge into one
entry whose ns_per_op and every other metric are the medians of the
samples, with ns_per_op_min, ns_per_op_max, the samples count and the
raw ns/op samples in run order (ns_per_op_samples) beside them.
benchcompare.py tests the raw samples for a shift, not just the
medians. The key names are those of a single-sample entry, so an
artifact written before samples were merged still compares.
"""
import json
import re
import statistics
import sys

BENCH = re.compile(r"^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(.*)$")
METRIC = re.compile(r"([\d.eE+-]+) ([\w/]+)")


def merge(runs):
    """Merge the samples of one benchmark into medians and the ns/op range."""
    entry = {}
    for key in runs[0]:
        values = [r[key] for r in runs if key in r]
        entry[key] = statistics.median(values)
    ns = [r["ns_per_op"] for r in runs]
    entry["iterations"] = int(entry["iterations"])
    entry["ns_per_op_min"], entry["ns_per_op_max"] = min(ns), max(ns)
    entry["ns_per_op_samples"] = ns
    entry["samples"] = len(runs)
    entry["requests_per_sec"] = round(1e9 / entry["ns_per_op"], 3) if entry["ns_per_op"] else None
    return entry


def main() -> int:
    out = sys.argv[1] if len(sys.argv) > 1 else "BENCH_solver.json"
    samples = {}
    for line in sys.stdin:
        m = BENCH.match(line)
        if not m:
            continue
        sample = {"iterations": int(m.group(2)), "ns_per_op": float(m.group(3))}
        for value, unit in METRIC.findall(m.group(4)):
            sample[unit.replace("/", "_per_")] = float(value)
        samples.setdefault(m.group(1), []).append(sample)
    results = {name: merge(runs) for name, runs in samples.items()}
    comparisons = {}
    for name, cold in results.items():
        if not name.endswith("Cold"):
            continue
        cached = results.get(name[: -len("Cold")] + "Cached")
        if not cached:
            continue
        comparisons[name[len("Benchmark"):-len("Cold")]] = {
            "cold_ns_per_op": cold["ns_per_op"],
            "cached_ns_per_op": cached["ns_per_op"],
            "speedup": round(cold["ns_per_op"] / cached["ns_per_op"], 3)
            if cached["ns_per_op"]
            else None,
        }
    delta = {}
    for name, off in results.items():
        if not name.endswith("DeltaOff"):
            continue
        on = results.get(name[: -len("Off")] + "On")
        if not on:
            continue
        delta[name[len("Benchmark"):-len("DeltaOff")]] = {
            "off_ns_per_op": off["ns_per_op"],
            "on_ns_per_op": on["ns_per_op"],
            "speedup": round(off["ns_per_op"] / on["ns_per_op"], 3)
            if on["ns_per_op"]
            else None,
            "delta_hit_rate": on.get("delta_hit_rate"),
            "delta_stage_hit_rate": on.get("delta_stage_hit_rate"),
        }
    with open(out, "w") as f:
        json.dump(
            {
                "benchmarks": results,
                "cold_vs_cached": comparisons,
                "delta_speedup": delta,
            },
            f,
            indent=2,
        )
        f.write("\n")
    print(
        f"wrote {out}: {len(results)} benchmarks, {len(comparisons)} comparisons, "
        f"{len(delta)} delta pairs"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
