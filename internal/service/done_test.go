package service

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/store"
)

// journalRecorder wraps a store and remembers every record appended
// since open, so a test sees the journal as of any instant (Replay only
// reports what was on disk at open).
type journalRecorder struct {
	store.Store
	mu   sync.Mutex
	recs []store.Record
}

func (r *journalRecorder) Append(rec store.Record) error {
	err := r.Store.Append(rec)
	if err == nil {
		r.mu.Lock()
		r.recs = append(r.recs, rec)
		r.mu.Unlock()
	}
	return err
}

// finished reports whether the journal holds a finish record for id.
func (r *journalRecorder) finished(id string) bool {
	replayed, _ := r.Store.Replay()
	for _, rec := range replayed {
		if rec.Op == store.OpFinish && rec.Job == id {
			return true
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, rec := range r.recs {
		if rec.Op == store.OpFinish && rec.Job == id {
			return true
		}
	}
	return false
}

// barrierHarness is one store-backed service with metrics and tracing
// on, over a store directory.
type barrierHarness struct {
	st  *journalRecorder
	reg *obs.Registry
	svc *Service
}

func newBarrierHarness(t *testing.T, dir string) *barrierHarness {
	t.Helper()
	clk := newTestClock()
	h := &barrierHarness{
		st:  &journalRecorder{Store: openTestStore(t, dir, clk, store.Options{})},
		reg: obs.NewRegistry(),
	}
	h.svc = New(Options{Workers: 1, JobWorkers: 1, Store: h.st, Clock: clk, Metrics: h.reg, Tracing: true})
	t.Cleanup(h.svc.Close)
	return h
}

// busy submits a long annealing job and returns once it is running, so
// the service's single runner stays occupied until it is canceled.
func (h *barrierHarness) busy(t *testing.T) string {
	t.Helper()
	resp, err := h.svc.Submit(SynthesisRequest{System: testSystem(t, 3), Strategy: "sas", SAIterations: 50_000_000})
	if err != nil {
		t.Fatal(err)
	}
	ch, unsubscribe, err := h.svc.Subscribe(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer unsubscribe()
	select {
	case <-ch:
	case <-time.After(30 * time.Second):
		t.Fatal("long job never started")
	}
	return resp.ID
}

func (h *barrierHarness) submit(t *testing.T, req SynthesisRequest) string {
	t.Helper()
	resp, err := h.svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp.ID
}

// TestDoneIsABarrier: on every terminal path, once Done fires the
// transition's effects are already visible — the result is stored (for
// complete outcomes), the finish record is journaled, the trace is
// closed and mcs_jobs_total has counted the job.
func TestDoneIsABarrier(t *testing.T) {
	cases := []struct {
		name string
		// run starts the job on a fresh harness over dir and returns
		// the harness serving it and its ID, without waiting for it.
		run    func(t *testing.T, dir string) (*barrierHarness, string)
		state  JobState
		stored bool   // a result is persisted under the request key
		traced bool   // the job has a trace (replayed jobs have none)
		count  uint64 // mcs_jobs_total{kind="synthesize", state}
	}{
		{
			name: "done",
			run: func(t *testing.T, dir string) (*barrierHarness, string) {
				h := newBarrierHarness(t, dir)
				return h, h.submit(t, SynthesisRequest{System: testSystem(t, 11), Strategy: "os"})
			},
			state: StateDone, stored: true, traced: true, count: 1,
		},
		{
			name: "failed",
			run: func(t *testing.T, dir string) (*barrierHarness, string) {
				h := newBarrierHarness(t, dir)
				busy := h.busy(t)
				id := h.submit(t, SynthesisRequest{System: testSystem(t, 12)})
				// Still queued behind the busy job: strip the
				// architecture so building its Solver fails.
				j, err := h.svc.job(id)
				if err != nil {
					t.Fatal(err)
				}
				j.mu.Lock()
				j.req.System = &model.System{Application: j.req.System.Application}
				j.mu.Unlock()
				if err := h.svc.Cancel(busy); err != nil {
					t.Fatal(err)
				}
				return h, id
			},
			state: StateFailed, stored: false, traced: true, count: 1,
		},
		{
			name: "client cancel",
			run: func(t *testing.T, dir string) (*barrierHarness, string) {
				h := newBarrierHarness(t, dir)
				id := h.busy(t)
				if err := h.svc.Cancel(id); err != nil {
					t.Fatal(err)
				}
				return h, id
			},
			state: StateCanceled, stored: false, traced: true, count: 1,
		},
		{
			name: "drain cancel",
			run: func(t *testing.T, dir string) (*barrierHarness, string) {
				h := newBarrierHarness(t, dir)
				id := h.busy(t)
				expired, cancel := context.WithCancel(context.Background())
				cancel()
				drained := make(chan struct{})
				go func() {
					h.svc.Drain(expired)
					close(drained)
				}()
				t.Cleanup(func() { <-drained })
				return h, id
			},
			state: StateCanceled, stored: false, traced: true, count: 1,
		},
		{
			name: "persistent hit",
			run: func(t *testing.T, dir string) (*barrierHarness, string) {
				h := newBarrierHarness(t, dir)
				req := func() SynthesisRequest { return SynthesisRequest{System: testSystem(t, 13), Strategy: "os"} }
				waitDone(t, h.svc, h.submit(t, req()))
				return h, h.submit(t, req())
			},
			state: StateDone, stored: true, traced: true, count: 2,
		},
		{
			name: "replayed",
			run: func(t *testing.T, dir string) (*barrierHarness, string) {
				first := newBarrierHarness(t, dir)
				id := first.submit(t, SynthesisRequest{System: testSystem(t, 14)})
				waitDone(t, first.svc, id)
				first.svc.Close()
				first.st.Close()
				return newBarrierHarness(t, dir), id
			},
			state: StateDone, stored: true, traced: false, count: 0,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h, id := c.run(t, t.TempDir())
			done, err := h.svc.Done(id)
			if err != nil {
				t.Fatal(err)
			}
			select {
			case <-done:
			case <-time.After(60 * time.Second):
				t.Fatalf("job %s did not finish", id)
			}
			// Everything below must already hold: no further waiting.
			// The checks run in the reverse order of the terminal work
			// (counter, trace, journal, result), so a barrier released
			// early shows up in the first check.
			counter := h.reg.Counter("mcs_jobs_total", "", obs.L("kind", "synthesize"), obs.L("state", string(c.state)))
			if got := counter.Value(); got != c.count {
				t.Errorf("mcs_jobs_total{state=%q} = %d, want %d", c.state, got, c.count)
			}
			snap, err := h.svc.Trace(id)
			switch {
			case !c.traced:
				if !errors.Is(err, ErrNoTrace) {
					t.Errorf("replayed job trace: err %v, want ErrNoTrace", err)
				}
			case err != nil:
				t.Errorf("trace: %v", err)
			case snap.Root.EndUnixNano == 0:
				t.Error("trace not closed")
			}
			if !h.st.finished(id) {
				t.Error("finish record not journaled")
			}
			j, err := h.svc.job(id)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := h.st.GetResult(j.key); ok != c.stored {
				t.Errorf("result stored = %v, want %v", ok, c.stored)
			}
			st, err := h.svc.Status(id)
			if err != nil {
				t.Fatal(err)
			}
			if st.State != c.state {
				t.Errorf("state %s (error %q), want %s", st.State, st.Error, c.state)
			}
		})
	}
}
