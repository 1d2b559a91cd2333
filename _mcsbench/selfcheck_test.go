package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// tinySize runs every workload in seconds; the self-check uses it.
var tinySize = size{
	setupReps:    2,
	minTimedJobs: 1,
	digestJobs:   4,

	coldProcs: 2,
	coldWarm:  2,

	sweepSystems: 1,
	sweepProcs:   2,
	sweepSeeds:   1,
	saIterations: 10,
	population:   4,
	generations:  1,

	durableProcs:    2,
	durablePopulate: 4,
	durableWarm:     4,

	replayJobs:  2,
	coldConfigs: 4,
}

// TestSelfCheck runs every workload at tiny size, untraced and traced,
// and asserts that every metric is printed with its unit, that
// verification passed, and that the digest repeats at a fixed seed.
func TestSelfCheck(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			cfg := config{seed: 3, timed: time.Second, trace: trace, size: tinySize, work: t.TempDir()}
			res, err := run(w, cfg, &out)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d\n%s",
					w.name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := map[string]string{}
			if trace {
				for _, m := range layerMetrics {
					want[m.name] = m.unit
				}
			} else {
				for _, m := range endToEndMetrics {
					want[m.name] = m.unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %q", w.name, trace, name, got, unit)
				}
				if !strings.Contains(out.String(), name) {
					t.Errorf("%s trace=%t: metric %s not printed", w.name, trace, name)
				}
			}
			if !trace {
				digest := digestLine(t, out.String())
				out.Reset()
				cfg.work = t.TempDir()
				if _, err := run(w, cfg, &out); err != nil {
					t.Fatal(err)
				}
				if again := digestLine(t, out.String()); again != digest {
					t.Errorf("%s: digest %q, then %q at the same seed", w.name, digest, again)
				}
			}
		}
	}
}

func digestLine(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "digest: ") {
			return line
		}
	}
	t.Fatalf("no digest line in\n%s", out)
	return ""
}

// TestVerifierRejectsCorruptedResult corrupts a genuine result in the
// ways a broken service could and asserts the verifier refuses each.
func TestVerifierRejectsCorruptedResult(t *testing.T) {
	in, err := workloadByName("synth-cold").inputs(3, tinySize)
	if err != nil {
		t.Fatal(err)
	}
	b, err := start(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	outs, err := loop(b.clients, batch(in.warm[:1]), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	good := outs[0]
	if _, err := newVerifier().check(&good); err != nil {
		t.Fatalf("genuine result rejected: %v", err)
	}
	for name, corrupt := range map[string]func(*service.JobResult){
		"delta":       func(r *service.JobResult) { r.Analysis.Delta++ },
		"s_total":     func(r *service.JobResult) { r.Analysis.BuffersTotal++ },
		"schedulable": func(r *service.JobResult) { r.Analysis.Schedulable = !r.Analysis.Schedulable },
		"partial":     func(r *service.JobResult) { r.Partial = true },
	} {
		var res service.JobResult
		if err := json.Unmarshal(good.result, &res); err != nil {
			t.Fatal(err)
		}
		corrupt(&res)
		bad := good
		if bad.result, err = json.Marshal(&res); err != nil {
			t.Fatal(err)
		}
		if _, err := newVerifier().check(&bad); err == nil {
			t.Errorf("result with a corrupted %s accepted", name)
		}
		// A later result of the identical request must equal the first.
		v := newVerifier()
		first := good
		if _, err := v.check(&first); err != nil {
			t.Fatal(err)
		}
		if _, err := v.check(&bad); err == nil {
			t.Errorf("resubmission whose %s differs from the original accepted", name)
		}
	}
	failed := good
	failed.state, failed.errMsg = string(service.StateFailed), "boom"
	if _, err := newVerifier().check(&failed); err == nil {
		t.Error("failed job accepted")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json in step with the metric
// and workload tables the program prints from.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEndMetrics) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range spec.EndToEnd {
		if i < len(endToEndMetrics) && (m.Name != endToEndMetrics[i].name || m.Unit != endToEndMetrics[i].unit) {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %s %s, program %s %s",
				i, m.Name, m.Unit, endToEndMetrics[i].name, endToEndMetrics[i].unit)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		if i < len(layerMetrics) && (m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit) {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s %s, program %s %s",
				i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
}
