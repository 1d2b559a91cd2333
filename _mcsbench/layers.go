package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

// layerMetric is one per-layer metric of the traced run, with the
// end-to-end metric and workload it should move.
type layerMetric struct{ name, unit, moves string }

var layerMetrics = []layerMetric{
	{"service.submit_ms", "ms", "job_p50_ms on resubmit-durable"},
	{"model.decode_fingerprint_us", "us", "job_p50_ms on resubmit-durable"},
	{"service.queue_wait_ms", "ms", "job_p95_ms on synth-cold"},
	{"service.acquire_ms", "ms", "job_p50_ms on resubmit-durable"},
	{"service.persist_ms", "ms", "jobs_per_s on resubmit-durable"},
	{"service.lru_hit_ratio", "ratio", "job_p50_ms on sweep-warm"},
	{"service.events_per_job", "count", "cpu_ms_per_job on sweep-warm"},
	{"solve.phase_os_ms", "ms", "job_p50_ms on synth-cold"},
	{"solve.phase_or_ms", "ms", "job_p50_ms on synth-cold"},
	{"solve.phase_sa_ms", "ms", "job_p95_ms on sweep-warm"},
	{"solve.phase_dse_ms", "ms", "job_p95_ms on sweep-warm"},
	{"opt.evals_per_job", "count", "cpu_ms_per_job on synth-cold"},
	{"opt.self_ms_per_job", "ms", "jobs_per_s on sweep-warm"},
	{"sa.self_ms_per_job", "ms", "jobs_per_s on sweep-warm"},
	{"dse.self_ms_per_job", "ms", "job_p95_ms on sweep-warm"},
	{"engine.tasks_per_job", "count", "jobs_per_s on synth-cold"},
	{"engine.batch_size_mean", "count", "jobs_per_s on synth-cold"},
	{"delta.config_hit_ratio", "ratio", "job_p50_ms on sweep-warm (near 1) and synth-cold (low)"},
	{"delta.hit_us", "us", "cpu_ms_per_job on sweep-warm"},
	{"delta.configkey_us", "us", "cpu_ms_per_job on sweep-warm"},
	{"delta.miss_ms", "ms", "job_p50_ms on synth-cold"},
	{"core.analyze_cold_ms", "ms", "job_p50_ms on synth-cold"},
	{"core.mcs_iterations", "count", "job_p50_ms on synth-cold"},
	{"tsched.build_ms", "ms", "job_p50_ms on synth-cold"},
	{"core.schedule_hit_ratio", "ratio", "cpu_ms_per_job on synth-cold"},
	{"core.rta_hit_ratio", "ratio", "cpu_ms_per_job on synth-cold"},
	{"core.queue_hit_ratio", "ratio", "cpu_ms_per_job on synth-cold"},
	{"core.rta_warm_starts", "count", "cpu_ms_per_job on synth-cold"},
	{"store.append_us", "us", "job_p50_ms on resubmit-durable"},
	{"store.appends_per_job", "count", "job_p50_ms on resubmit-durable"},
	{"store.put_result_us", "us", "jobs_per_s on resubmit-durable"},
	{"store.get_result_us", "us", "job_p50_ms on resubmit-durable"},
	{"store.persistent_hit_ratio", "ratio", "job_p50_ms on resubmit-durable"},
	{"store.replay_ms", "ms", "setup_s on resubmit-durable"},
	{"obs.trace_overhead_frac", "ratio", "none; it sizes the traced run's distortion"},
}

// layers computes the per-layer metrics of the traced phase from outside
// the program, using only what it already exposes: the client's view,
// the span trees and /metrics counters of the service, a timing
// decorator on its store, and a side replay of a sample of the
// workload's jobs. plain is the untraced half before the traced one.
func (b *bench) layers(w *workload, in *inputs, cfg config, plain, traced *phase, replays []float64, out io.Writer) ([]row, error) {
	n := float64(len(traced.outs))
	vals := make(map[string]row, len(layerMetrics))
	set := func(name string, v float64, base string, args ...any) {
		vals[name] = row{value: v, base: fmt.Sprintf(base, args...)}
	}

	// The client's view of each job.
	var submit time.Duration
	events, evals := 0, 0
	for _, o := range traced.outs {
		submit += o.submit
		events += o.events
		evals += o.evals
	}
	set("service.submit_ms", millis(submit)/n, "%.0f jobs", n)
	set("service.events_per_job", float64(events)/n, "%d events / %.0f jobs", events, n)
	set("opt.evals_per_job", float64(evals)/n, "%d evaluations / %.0f jobs", evals, n)
	us, bodies, err := decodeFingerprint(traced.outs, 200)
	if err != nil {
		return nil, fmt.Errorf("decoding request bodies: %w", err)
	}
	set("model.decode_fingerprint_us", us, "%d distinct bodies", bodies)

	// Span trees: kept in memory through the run, written out at its end.
	sp, kept := collectTraces(b.svc, traced.outs)
	path := filepath.Join(cfg.work, fmt.Sprintf("traces-%s-seed%d.json", w.name, cfg.seed))
	data, err := json.Marshal(kept)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "spans: %d job traces written to %s\n", len(kept), path)
	jobs := float64(sp.jobs)
	set("service.queue_wait_ms", ratio(sp.queue, jobs), "%d traced jobs", sp.jobs)
	set("service.acquire_ms", ratio(sp.acquire, jobs), "%d jobs: build %d, lru %d, persistent %d",
		sp.jobs, sp.source["build"], sp.source["lru"], sp.source["persistent"])
	set("service.persist_ms", ratio(sp.persist, float64(sp.persistJobs)), "%d jobs with a persist span", sp.persistJobs)
	for _, ph := range []string{"os", "or", "sa", "dse"} {
		set("solve.phase_"+ph+"_ms", ratio(sp.phase[ph], float64(sp.phaseJobs[ph])), "%d jobs with the phase", sp.phaseJobs[ph])
	}

	// /metrics counters across the traced phase.
	m0, m1 := traced.before, traced.after
	diff := func(series string) float64 { return m1[series] - m0[series] }
	hits := func(name string, h, m float64) {
		set(name, ratio(h, h+m), "%.0f hits / %.0f lookups", h, h+m)
	}
	hits("service.lru_hit_ratio", diff("mcs_solver_cache_hits_total"), diff("mcs_solver_cache_misses_total"))
	hits("store.persistent_hit_ratio", diff("mcs_solver_persistent_hits_total"), diff("mcs_solver_persistent_misses_total"))
	tasks := diff("mcs_engine_tasks_total")
	set("engine.tasks_per_job", tasks/n, "%.0f tasks / %.0f jobs", tasks, n)
	sum, count := diff("mcs_engine_batch_size_sum"), diff("mcs_engine_batch_size_count")
	set("engine.batch_size_mean", ratio(sum, count), "%.0f tasks / %.0f batches", sum, count)
	sess := func(series string) float64 { return sessionTraffic(m0, m1, series) }
	hits("delta.config_hit_ratio", sess("mcs_delta_config_hits_total"), sess("mcs_delta_config_misses_total"))
	for _, c := range []string{"schedule", "rta", "queue"} {
		hits("core."+c+"_hit_ratio", sess(`mcs_memo_hits_total{cache="`+c+`"}`), sess(`mcs_memo_misses_total{cache="`+c+`"}`))
	}
	warm := sess("mcs_memo_rta_warm_starts_total")
	set("core.rta_warm_starts", warm/n, "%.0f warm starts / %.0f jobs", warm, n)

	// The store decorator (zero outside the durable workload).
	ts := b.timed
	if ts == nil {
		ts = &timedStore{}
	}
	appends := float64(ts.appends.Load())
	set("store.append_us", ratio(float64(ts.appendNs.Load()), appends)/1e3, "%.0f appends", appends)
	set("store.appends_per_job", appends/n, "%.0f appends / %.0f jobs", appends, n)
	puts, gets := float64(ts.puts.Load()), float64(ts.gets.Load())
	set("store.put_result_us", ratio(float64(ts.putNs.Load()), puts)/1e3, "%.0f results written", puts)
	set("store.get_result_us", ratio(float64(ts.getNs.Load()), gets)/1e3, "%.0f lookups", gets)
	replay := 0.0
	if w.durable {
		replay = median(replays)
	}
	set("store.replay_ms", replay, "median of %d restarts", len(replays))

	plainRate := float64(len(plain.outs)) / plain.elapsed.Seconds()
	tracedRate := n / traced.elapsed.Seconds()
	set("obs.trace_overhead_frac", 1-tracedRate/plainRate, "%.2f jobs/s traced vs %.2f untraced", tracedRate, plainRate)

	rs, err := sideReplay(w, in, cfg.size)
	if err != nil {
		return nil, err
	}
	for _, l := range []string{"opt", "sa", "dse"} {
		j := rs.jobs[l]
		set(l+".self_ms_per_job", ratio(millis(rs.self[l]), float64(j)), "%d replayed jobs", j)
	}
	set("delta.hit_us", ratio(micros(rs.hitTime), float64(rs.hits)), "%d hits / %d lookups", rs.hits, rs.hits+rs.misses)
	set("delta.miss_ms", ratio(millis(rs.missTime), float64(rs.misses)), "%d misses", rs.misses)
	set("delta.configkey_us", ratio(micros(rs.keyTime), float64(rs.keys)), "%d configurations", rs.keys)
	set("core.analyze_cold_ms", ratio(millis(rs.coldTime), float64(rs.colds)), "%d configurations that missed", rs.colds)
	set("core.mcs_iterations", ratio(float64(rs.iterations), float64(rs.colds)), "%d iterations / %d analyses", rs.iterations, rs.colds)
	set("tsched.build_ms", ratio(millis(rs.buildTime), float64(rs.colds)), "%d first-pass builds", rs.colds)

	rows := make([]row, 0, len(layerMetrics))
	fmt.Fprintf(out, "%-28s %12s %-6s %-42s %s\n", "per-layer metric", "value", "unit", "base", "should move")
	for _, m := range layerMetrics {
		r, ok := vals[m.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s not computed", m.name)
		}
		r.name, r.unit = m.name, m.unit
		rows = append(rows, r)
		fmt.Fprintf(out, "%-28s %12.4f %-6s %-42s %s\n", r.name, r.value, r.unit, r.base, m.moves)
	}
	if sp.persistJobs > 0 {
		fmt.Fprintf(out, "done barrier: persistence runs after the done event today; moving it before the event adds about %.3f ms per job (service.persist_ms)\n",
			vals["service.persist_ms"].value)
	}
	return rows, nil
}

// row is one computed per-layer metric with the counts behind it.
type row struct {
	name, unit string
	value      float64
	base       string
}

// scrape is one /metrics exposition, series to value.
type scrape map[string]float64

// scrape reads the service's /metrics exposition.
func (b *bench) scrape() (scrape, error) {
	resp, err := b.clients[0].hc.Get(b.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := scrape{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// sessionTraffic returns the phase's traffic on a counter that sums over
// the cached Solver sessions (the delta and memo families). The sum
// loses the counts of evicted sessions, so the difference holds only
// while no session can have been evicted. Once the phase built a full
// cache of sessions, the end-of-phase value covers sessions built inside
// the phase alone and stands for the phase.
func sessionTraffic(before, after scrape, series string) float64 {
	const built = "mcs_solver_cache_misses_total"
	if before["mcs_solver_cache_size"]+after[built]-before[built] <= solverCacheSize {
		return after[series] - before[series]
	}
	return after[series]
}

// spanTotals sums the traced phase's span trees (durations in ms).
type spanTotals struct {
	jobs           int
	queue, acquire float64
	persist        float64
	persistJobs    int
	source         map[string]int // solver span source: build, lru, persistent
	phase          map[string]float64
	phaseJobs      map[string]int
}

// jobTrace is one job's span tree as written to the span dump.
type jobTrace struct {
	ID    string             `json:"id"`
	Trace *obs.TraceSnapshot `json:"trace"`
}

// collectTraces reads the span tree of every traced job the service
// still retains (mcs-serve keeps its last 1024 terminal jobs). Call it
// after the drain: a job's persist span closes after its done event.
func collectTraces(svc *service.Service, outs []outcome) (spanTotals, []jobTrace) {
	t := spanTotals{source: map[string]int{}, phase: map[string]float64{}, phaseJobs: map[string]int{}}
	var kept []jobTrace
	for _, o := range outs {
		snap, err := svc.Trace(o.id)
		if err != nil {
			continue
		}
		kept = append(kept, jobTrace{ID: o.id, Trace: snap})
		t.jobs++
		perPhase := map[string]float64{}
		for _, c := range snap.Root.Children {
			ms := c.DurationSeconds * 1e3
			switch c.Name {
			case "queue":
				t.queue += ms
			case "solver":
				t.acquire += ms
				t.source[c.Attrs["source"]]++
			case "persist":
				t.persist += ms
				t.persistJobs++
			case "run":
				for _, p := range c.Children {
					if name, ok := strings.CutPrefix(p.Name, "phase:"); ok {
						perPhase[name] += p.DurationSeconds * 1e3
					}
				}
			}
		}
		for name, ms := range perPhase {
			t.phase[name] += ms
			t.phaseJobs[name]++
		}
	}
	return t, kept
}

// decodeFingerprint times what the service does to a request body before
// it queues the job (strict decode, Finalize, System.Fingerprint) on up
// to limit distinct bodies of outs, in microseconds per body.
func decodeFingerprint(outs []outcome, limit int) (float64, int, error) {
	seen := map[string]bool{}
	var reqs []*request
	for _, o := range outs {
		if len(reqs) < limit && !seen[o.req.key] {
			seen[o.req.key] = true
			reqs = append(reqs, o.req)
		}
	}
	t0 := time.Now()
	for _, r := range reqs {
		sys, err := decodeSystem(r)
		if err != nil {
			return 0, 0, err
		}
		if _, err := sys.Fingerprint(); err != nil {
			return 0, 0, err
		}
	}
	return ratio(micros(time.Since(t0)), float64(len(reqs))), len(reqs), nil
}

// timedStore decorates the service's store.Store with timers on the
// calls on a job's path. It times only while on.
type timedStore struct {
	store.Store
	on                     atomic.Bool
	appends, puts, gets    atomic.Int64
	appendNs, putNs, getNs atomic.Int64
}

func (t *timedStore) Append(rec store.Record) error {
	if !t.on.Load() {
		return t.Store.Append(rec)
	}
	t0 := time.Now()
	err := t.Store.Append(rec)
	t.appendNs.Add(int64(time.Since(t0)))
	t.appends.Add(1)
	return err
}

func (t *timedStore) PutResult(key string, result []byte) error {
	if !t.on.Load() {
		return t.Store.PutResult(key, result)
	}
	t0 := time.Now()
	err := t.Store.PutResult(key, result)
	t.putNs.Add(int64(time.Since(t0)))
	t.puts.Add(1)
	return err
}

func (t *timedStore) GetResult(key string) ([]byte, bool) {
	if !t.on.Load() {
		return t.Store.GetResult(key)
	}
	t0 := time.Now()
	res, ok := t.Store.GetResult(key)
	t.getNs.Add(int64(time.Since(t0)))
	t.gets.Add(1)
	return res, ok
}
