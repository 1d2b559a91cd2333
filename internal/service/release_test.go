package service

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/solve"
)

// samples renders reg and returns every sample whose name starts with
// one of prefixes, keyed by name and labels.
func samples(t *testing.T, reg *obs.Registry, prefixes ...string) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(buf.String(), "\n") {
		series, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(series, p) {
				v, err := strconv.ParseFloat(value, 64)
				if err != nil {
					t.Fatalf("sample %q: %v", line, err)
				}
				out[series] = v
			}
		}
	}
	return out
}

// holders returns how many jobs hold the cached session of fp.
func holders(s *Service, fp string) int {
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	return s.cache.items[fp].Value.(*cacheEntry).holders
}

// submitDone submits req, waits for it and fails unless it is done.
func submitDone(t *testing.T, s *Service, req SynthesisRequest) *JobStatus {
	t.Helper()
	resp, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, s, resp.ID)
	if st.State != StateDone {
		t.Fatalf("job %s: state %s (error %q)", resp.ID, st.State, st.Error)
	}
	return st
}

// sameResult fails unless two results carry the same configuration
// bytes, analysis and evaluation count.
func sameResult(t *testing.T, what string, got, want *JobResult) {
	t.Helper()
	if !bytes.Equal(got.Config, want.Config) || !reflect.DeepEqual(got.Analysis, want.Analysis) || got.Evaluations != want.Evaluations {
		t.Errorf("%s: result differs", what)
	}
}

// TestIdleSessionReleasesStages: once a job is done, the session it ran
// on holds whole analyses only (the mcs_memo_entries gauge shows it),
// a repeat of the job is served from those whole analyses without a
// single stage lookup and is byte-identical, and no mcs_memo_* or
// mcs_delta_* counter falls across the release.
func TestIdleSessionReleasesStages(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Options{Workers: 1, JobWorkers: 1, Metrics: reg})
	defer s.Close()
	req := func() SynthesisRequest {
		return SynthesisRequest{System: testSystem(t, 2), Strategy: "or", Seed: 7}
	}

	first := submitDone(t, s, req())
	if got := s.cache.memoEntries(); got.Config == 0 || got.Schedule+got.RTA+got.Queue != 0 {
		t.Errorf("idle session holds %+v, want whole analyses only", got)
	}
	gauge := samples(t, reg, "mcs_memo_entries")
	for _, table := range []string{"schedule", "rta", "queue"} {
		if v, ok := gauge[`mcs_memo_entries{table="`+table+`"}`]; !ok || v != 0 {
			t.Errorf("mcs_memo_entries{table=%q} = %v (exported %t), want 0", table, v, ok)
		}
	}
	if gauge[`mcs_memo_entries{table="config"}`] == 0 {
		t.Error(`mcs_memo_entries{table="config"} is 0 after a finished job`)
	}
	before := s.cache.deltaStats()
	counters := samples(t, reg, "mcs_memo_", "mcs_delta_")

	repeat := submitDone(t, s, req())
	sameResult(t, "repeat after the release", repeat.Result, first.Result)
	after := s.cache.deltaStats()
	if after.Hits() != before.Hits() || after.Misses() != before.Misses() || after.ConfigMisses != before.ConfigMisses {
		t.Errorf("the repeat was not served whole: stage and config traffic %+v, before %+v", after, before)
	}
	if after.ConfigHits <= before.ConfigHits {
		t.Errorf("the repeat made no config hits: %+v", after)
	}
	for series, v := range samples(t, reg, "mcs_memo_", "mcs_delta_") {
		if strings.HasSuffix(strings.SplitN(series, "{", 2)[0], "_total") && v < counters[series] {
			t.Errorf("%s fell from %v to %v across a release", series, counters[series], v)
		}
	}
}

// TestConcurrentJobsReleaseAfterLast: two jobs on one system share its
// session, which keeps its stage tables until the second of them
// finishes; the counters never fall while jobs come and go, and jobs
// that ran concurrently return what sequential runs return.
func TestConcurrentJobsReleaseAfterLast(t *testing.T) {
	s := New(Options{Workers: 1, JobWorkers: 2})
	defer s.Close()

	// Sample the counters throughout: a release must never lower one.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	fell := 0
	wg.Add(1)
	//mcs:allow poolonly test sampler racing the job runners' releases
	go func() {
		defer wg.Done()
		var last core.MemoStats
		for {
			select {
			case <-stop:
				return
			default:
			}
			cur := s.cache.deltaStats()
			if cur.ConfigHits < last.ConfigHits || cur.ConfigMisses < last.ConfigMisses || cur.Hits() < last.Hits() || cur.Misses() < last.Misses() {
				fell++
			}
			last = cur
			time.Sleep(100 * time.Microsecond)
		}
	}()

	// A long annealing job holds the session while a short one runs.
	long, err := s.Submit(SynthesisRequest{System: testSystem(t, 3), Strategy: "sas", SAIterations: 50_000_000})
	if err != nil {
		t.Fatal(err)
	}
	ch, unsubscribe, err := s.Subscribe(long.ID)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	case <-time.After(30 * time.Second):
		t.Fatal("long job never started")
	}
	unsubscribe()
	short := submitDone(t, s, SynthesisRequest{System: testSystem(t, 3), Strategy: "or", Seed: 7})
	if n := holders(s, long.Fingerprint); n != 1 {
		t.Errorf("%d holders after the short job, want 1", n)
	}
	if got := s.cache.memoEntries(); got.Schedule == 0 || got.RTA == 0 {
		t.Errorf("the session lost its stage tables while a job still runs on it: %+v", got)
	}
	if err := s.Cancel(long.ID); err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, long.ID)
	if n := holders(s, long.Fingerprint); n != 0 {
		t.Errorf("%d holders after both jobs, want 0", n)
	}
	if got := s.cache.memoEntries(); got.Config == 0 || got.Schedule+got.RTA+got.Queue != 0 {
		t.Errorf("idle session holds %+v, want whole analyses only", got)
	}

	// Two finite jobs on one system, concurrently, then each alone on a
	// fresh service.
	reqs := []SynthesisRequest{
		{System: testSystem(t, 2), Strategy: "or", Seed: 7},
		{System: testSystem(t, 2), Strategy: "sar", Seed: 5, SAIterations: 300},
	}
	var ids []string
	for _, r := range reqs {
		resp, err := s.Submit(r)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, resp.ID)
	}
	var concurrent []*JobResult
	for _, id := range ids {
		st := waitDone(t, s, id)
		if st.State != StateDone {
			t.Fatalf("job %s: state %s (error %q)", id, st.State, st.Error)
		}
		concurrent = append(concurrent, st.Result)
	}
	close(stop)
	wg.Wait()
	if fell > 0 {
		t.Errorf("%d samples saw the memo counters fall", fell)
	}

	seq := New(Options{Workers: 1, JobWorkers: 1})
	defer seq.Close()
	sameResult(t, "short job beside a running one", short.Result, submitDone(t, seq, SynthesisRequest{System: testSystem(t, 3), Strategy: "or", Seed: 7}).Result)
	for i, r := range reqs {
		r.System = testSystem(t, 2)
		sameResult(t, reqs[i].Strategy+" job run concurrently", concurrent[i], submitDone(t, seq, r).Result)
	}
}

// TestSolverCacheReleasesAfterLastHolder pins the hold count: a session
// acquired twice keeps its stage tables through the first release and
// drops them, keeping its whole analyses and counters, at the second.
func TestSolverCacheReleasesAfterLastHolder(t *testing.T) {
	c := newSolverCache(2)
	build := func() (*solve.Solver, error) {
		sys := testSystem(t, 1)
		return solve.New(sys.Application, sys.Architecture)
	}
	a, _, err := c.acquire("k", build)
	if err != nil {
		t.Fatal(err)
	}
	b, hit, err := c.acquire("k", build)
	if err != nil || !hit || b != a {
		t.Fatalf("second acquire: hit %t, same session %t, err %v", hit, b == a, err)
	}
	if _, err := a.solver.OptimizeResources(t.Context()); err != nil {
		t.Fatal(err)
	}
	held, stats := c.memoEntries(), c.deltaStats()
	if held.Config == 0 || held.Schedule == 0 || held.RTA == 0 {
		t.Fatalf("degenerate run: %+v", held)
	}
	c.release(a)
	if got := c.memoEntries(); got != held {
		t.Errorf("first release changed the tables: %+v, want %+v", got, held)
	}
	c.release(b)
	if got, want := c.memoEntries(), (core.MemoEntries{Config: held.Config}); got != want {
		t.Errorf("last release left %+v, want %+v", got, want)
	}
	if got := c.deltaStats(); got != stats {
		t.Errorf("the release moved the counters: %+v, want %+v", got, stats)
	}
}

// TestAnalyzeKeepsStages: a synchronous analysis batch takes no hold
// and releases nothing, so a later batch of neighbouring configurations
// hits the stage entries an earlier one left; the end of a job on the
// same session then releases them.
func TestAnalyzeKeepsStages(t *testing.T) {
	s := New(Options{Workers: 1, JobWorkers: 1})
	defer s.Close()
	sys := testSystem(t, 6)
	base := core.DefaultConfig(sys.Application, sys.Architecture)
	if err := base.Normalize(sys.Application); err != nil {
		t.Fatal(err)
	}
	variant := base.Clone()
	variant.Round.Slots[0].Length += 8
	if err := variant.Normalize(sys.Application); err != nil {
		t.Fatal(err)
	}
	var raws []json.RawMessage
	for _, cfg := range []*core.Config{base, variant} {
		raw, err := encodeConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		raws = append(raws, raw)
	}

	if _, err := s.Analyze(t.Context(), AnalysisRequest{System: testSystem(t, 6), Configs: raws[:1]}); err != nil {
		t.Fatal(err)
	}
	held := s.cache.memoEntries()
	if held.Schedule == 0 || held.RTA == 0 {
		t.Fatalf("an analysis batch left %+v, want its stage entries kept", held)
	}
	before := s.cache.deltaStats()
	if _, err := s.Analyze(t.Context(), AnalysisRequest{System: testSystem(t, 6), Configs: raws[1:]}); err != nil {
		t.Fatal(err)
	}
	if after := s.cache.deltaStats(); after.Hits() <= before.Hits() {
		t.Errorf("the neighbouring batch hit no stage entry: %+v, before %+v", after, before)
	}

	submitDone(t, s, SynthesisRequest{System: testSystem(t, 6), Strategy: "os"})
	if got := s.cache.memoEntries(); got.Config == 0 || got.Schedule+got.RTA+got.Queue != 0 {
		t.Errorf("the session holds %+v after a job on it finished, want whole analyses only", got)
	}
}
