package service

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/store"
)

// scrape fetches one URL and returns the body (empty on non-200).
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}

// TestMetricsEndpointUnderLoad runs jobs while goroutines hammer
// GET /metrics and GET /healthz — the race-detector target for the
// whole observability plane — then asserts the final exposition covers
// every subsystem the issue names: jobs, queue, solver caches, engine
// pool, SSE fan-out.
func TestMetricsEndpointUnderLoad(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Options{Workers: 2, JobWorkers: 2, QueueDepth: 16, Metrics: reg, Tracing: true})
	defer s.Close()
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		//mcs:allow poolonly test scrapers racing the job runners to give the race detector a target
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					// Errors are tolerable here (the server may be mid
					// shutdown); the point is concurrent registry reads.
					for _, path := range []string{"/metrics", "/healthz"} {
						if resp, err := http.Get(srv.URL + path); err == nil {
							io.Copy(io.Discard, resp.Body)
							resp.Body.Close()
						}
					}
				}
			}
		}()
	}

	var ids []string
	for i := 0; i < 4; i++ {
		resp, err := s.Submit(SynthesisRequest{System: testSystem(t, int64(i%2)+1), Strategy: "or"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, resp.ID)
	}
	for _, id := range ids {
		if st := waitDone(t, s, id); st.State != StateDone {
			t.Fatalf("job %s: state %s (%s)", id, st.State, st.Error)
		}
	}
	close(stop)
	wg.Wait()

	out := scrape(t, srv.URL+"/metrics")
	for _, want := range []string{
		`mcs_jobs_total{kind="synthesize",state="done"} 4`,
		"# TYPE mcs_job_duration_seconds histogram",
		"mcs_job_duration_seconds_bucket",
		"mcs_job_queue_wait_seconds_count",
		"mcs_solve_phase_seconds_bucket",
		"mcs_queue_capacity 16",
		"mcs_solver_cache_hits_total 2",   // 2 distinct systems across 4 jobs
		"mcs_solver_cache_misses_total 2", //
		"mcs_solver_cache_size 2",
		"mcs_delta_config_hits_total",
		`mcs_memo_hits_total{cache="rta"}`,
		"mcs_engine_batches_total",
		"mcs_engine_tasks_total",
		"mcs_engine_batch_size_bucket",
		"mcs_sse_subscribers 0",
		"mcs_store_appends_total 0", // no store configured
		"mcs_store_fsyncs_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if !strings.Contains(out, `mcs_jobs{state="done"} 4`) {
		t.Errorf("job state gauge missing:\n%s", out)
	}
}

// TestTraceEndpoint drives one job on a deterministic clock and checks
// the served span tree: queue → solver (with its source) → run (with
// phase children) → persist, all closed, with a monotonic record
// stream. A second, identical submission must show the persistent-store
// source in its solver span.
func TestTraceEndpoint(t *testing.T) {
	clk := newTestClock()
	st := openTestStore(t, t.TempDir(), clk, store.Options{})
	s := New(Options{Workers: 1, JobWorkers: 1, Store: st, Clock: clk, Tracing: true})
	defer s.Close()
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	sys := testSystem(t, 1)
	resp, err := s.Submit(SynthesisRequest{System: sys, Strategy: "or"})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, resp.ID)

	snap, err := s.Trace(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Root.Name != "job" || snap.Root.Attrs["id"] != resp.ID || snap.Root.Attrs["kind"] != "synthesize" {
		t.Fatalf("root span = %+v", snap.Root)
	}
	if snap.Root.EndUnixNano == 0 {
		t.Fatalf("finished job's trace not closed")
	}
	spans := map[string]SpanSnapshotAlias{}
	for _, c := range snap.Root.Children {
		spans[c.Name] = c
	}
	for _, name := range []string{"queue", "solver", "run", "persist"} {
		sp, ok := spans[name]
		if !ok {
			t.Fatalf("span %q missing (children: %+v)", name, snap.Root.Children)
		}
		if sp.EndUnixNano == 0 {
			t.Errorf("span %q not closed", name)
		}
	}
	if src := spans["solver"].Attrs["source"]; src != "build" {
		t.Errorf("first run solver source = %q, want build", src)
	}
	phases := 0
	for _, c := range spans["run"].Children {
		if strings.HasPrefix(c.Name, "phase:") {
			phases++
		}
	}
	if phases == 0 {
		t.Errorf("run span has no phase children: %+v", spans["run"].Children)
	}
	for i, rec := range snap.Records {
		if rec.Seq != i+1 {
			t.Fatalf("record %d has seq %d", i, rec.Seq)
		}
	}

	// The HTTP view serves the same tree.
	body := scrape(t, srv.URL+"/v1/jobs/"+resp.ID+"/trace")
	if !strings.Contains(body, `"name": "queue"`) || !strings.Contains(body, resp.ID) {
		t.Errorf("trace endpoint body missing spans:\n%s", body)
	}

	// An identical resubmission is served from the persistent result
	// store, and its trace says so.
	resp2, err := s.Submit(SynthesisRequest{System: testSystem(t, 1), Strategy: "or"})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, resp2.ID)
	snap2, err := s.Trace(resp2.ID)
	if err != nil {
		t.Fatal(err)
	}
	var solverSrc string
	for _, c := range snap2.Root.Children {
		if c.Name == "solver" {
			solverSrc = c.Attrs["source"]
		}
	}
	if solverSrc != "persistent" {
		t.Errorf("resubmission solver source = %q, want persistent", solverSrc)
	}
}

// SpanSnapshotAlias keeps the test readable without importing obs at
// every use site.
type SpanSnapshotAlias = obs.SpanSnapshot

// TestTraceDisabled: without Tracing the endpoint 404s with ErrNoTrace
// and jobs carry no trace state.
func TestTraceDisabled(t *testing.T) {
	s := New(Options{Workers: 1, JobWorkers: 1})
	defer s.Close()
	resp, err := s.Submit(SynthesisRequest{System: testSystem(t, 1)})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, resp.ID)
	if _, err := s.Trace(resp.ID); err != ErrNoTrace {
		t.Fatalf("Trace with tracing off = %v, want ErrNoTrace", err)
	}
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()
	r, err := http.Get(srv.URL + "/v1/jobs/" + resp.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("trace endpoint status = %d, want 404", r.StatusCode)
	}
}

// TestMetricsDisabledService: a service with no registry serves an
// empty (valid) exposition and runs jobs normally — the no-op plane.
func TestMetricsDisabledService(t *testing.T) {
	s := New(Options{Workers: 1, JobWorkers: 1})
	defer s.Close()
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()
	resp, err := s.Submit(SynthesisRequest{System: testSystem(t, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, s, resp.ID); st.State != StateDone {
		t.Fatalf("state %s", st.State)
	}
	if out := scrape(t, srv.URL+"/metrics"); out != "" {
		t.Errorf("disabled metrics endpoint served %q, want empty", out)
	}
}

// TestCanceledQueuedJobMetrics: the queued-cancel fast path also lands
// in the terminal counters and closes the trace.
func TestCanceledQueuedJobMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	// One runner, kept busy by a long annealing job so the second job
	// reliably stays queued until it is canceled.
	s := New(Options{Workers: 1, JobWorkers: 1, QueueDepth: 8, Metrics: reg, Tracing: true})
	defer s.Close() // cancels the long first job
	_, err := s.Submit(SynthesisRequest{System: testSystem(t, 1), Strategy: "sas", SAIterations: 200000})
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Submit(SynthesisRequest{System: testSystem(t, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(second.ID); err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, second.ID)
	if got := reg.Counter("mcs_jobs_total", "", obs.L("kind", "synthesize"), obs.L("state", "canceled")).Value(); got != 1 {
		t.Errorf("canceled counter = %d, want 1", got)
	}
	snap, err := s.Trace(second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Root.EndUnixNano == 0 {
		t.Errorf("canceled queued job's trace not closed")
	}
}
