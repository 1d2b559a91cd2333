package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/solve"
)

// TestExploreJobReturnsFront: an explore job runs through the shared
// queue and returns a mutually non-dominated front whose configurations
// decode, with the job tagged by its kind.
func TestExploreJobReturnsFront(t *testing.T) {
	s := New(Options{Workers: 1, JobWorkers: 1})
	defer s.Close()

	sys := testSystem(t, 2)
	resp, err := s.SubmitExplore(ExploreRequest{System: sys, Population: 6, Generations: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != KindExplore {
		t.Errorf("submit kind %q, want %q", resp.Kind, KindExplore)
	}
	st := waitDone(t, s, resp.ID)
	if st.State != StateDone {
		t.Fatalf("job state %s (error %q)", st.State, st.Error)
	}
	if st.Kind != KindExplore || st.Strategy != "DSE" {
		t.Errorf("status kind=%q strategy=%q", st.Kind, st.Strategy)
	}
	if st.Result == nil || len(st.Result.Front) == 0 {
		t.Fatal("explore job returned no front")
	}
	if len(st.Result.Config) != 0 {
		t.Error("explore job result carries a single config")
	}
	if st.Result.Evaluations == 0 {
		t.Error("explore job reports zero evaluations")
	}
	for i, p := range st.Result.Front {
		for j, q := range st.Result.Front {
			if i == j {
				continue
			}
			if p.Delta <= q.Delta && p.Buffers <= q.Buffers && p.Bandwidth <= q.Bandwidth {
				t.Errorf("front[%d] weakly dominates front[%d]", i, j)
			}
		}
		cfg, err := core.LoadConfig(bytes.NewReader(p.Config), sys.Application, sys.Architecture)
		if err != nil || cfg == nil {
			t.Fatalf("front[%d] config does not decode: %v", i, err)
		}
	}
}

// TestExploreJobSharesSolverCache: a synthesize job and an explore job
// over the same system ride one cached base session.
func TestExploreJobSharesSolverCache(t *testing.T) {
	s := New(Options{Workers: 1, JobWorkers: 1})
	defer s.Close()

	r1, err := s.Submit(SynthesisRequest{System: testSystem(t, 2), Strategy: "sf"})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, r1.ID)
	r2, err := s.SubmitExplore(ExploreRequest{System: testSystem(t, 2), Population: 6, Generations: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, s, r2.ID)
	if st.State != StateDone {
		t.Fatalf("explore state %s (error %q)", st.State, st.Error)
	}
	if !st.Result.CacheHit {
		t.Error("explore job over a known system missed the Solver cache")
	}
	if r1.Fingerprint != r2.Fingerprint {
		t.Errorf("fingerprints differ across kinds: %s vs %s", r1.Fingerprint, r2.Fingerprint)
	}
}

// TestExploreCancelKeepsPartialFront is the serving half of the
// cancellation acceptance criterion: cancelling a running exploration
// yields state canceled with the best-so-far front marked Partial.
func TestExploreCancelKeepsPartialFront(t *testing.T) {
	s := New(Options{Workers: 1, JobWorkers: 1})
	defer s.Close()

	resp, err := s.SubmitExplore(ExploreRequest{
		System: testSystem(t, 3), Population: 8, Generations: 1_000_000, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ch, unsubscribe, err := s.Subscribe(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch: // provably mid-exploration (or mid-warm-start)
	case <-time.After(30 * time.Second):
		t.Fatal("no progress event before cancel")
	}
	unsubscribe()
	if err := s.Cancel(resp.ID); err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, s, resp.ID)
	if st.State != StateCanceled {
		t.Fatalf("state %s, want canceled (error %q)", st.State, st.Error)
	}
	if st.Result == nil || len(st.Result.Front) == 0 {
		t.Fatal("canceled exploration lost its best-so-far front")
	}
	if !st.Result.Partial {
		t.Error("canceled exploration's front not marked partial")
	}
}

// TestExploreProgressEventsCarryFrontStats: the SSE stream of an
// explore job reports dse-phase events with front size and
// hypervolume.
func TestExploreProgressEventsCarryFrontStats(t *testing.T) {
	s := New(Options{Workers: 1, JobWorkers: 1})
	defer s.Close()

	resp, err := s.SubmitExplore(ExploreRequest{System: testSystem(t, 2), Population: 6, Generations: 2})
	if err != nil {
		t.Fatal(err)
	}
	ch, _, err := s.Subscribe(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	sawDSE := false
	for ev := range ch {
		if ev.Strategy != "DSE" {
			t.Errorf("event strategy %q, want DSE", ev.Strategy)
		}
		if ev.Phase == "dse" && ev.FrontSize > 0 {
			sawDSE = true
		}
	}
	if !sawDSE {
		t.Error("no dse-phase event with a front size")
	}
	st := waitDone(t, s, resp.ID)
	if st.State != StateDone {
		t.Fatalf("state %s (error %q)", st.State, st.Error)
	}
}

// TestHTTPExploreAndStrategies drives the new endpoints end to end:
// POST /v1/explore accepts a wire request and the job's front comes
// back over the poll endpoint; GET /v1/strategies lists exactly the
// Solver's synthesis strategies with parseable names.
func TestHTTPExploreAndStrategies(t *testing.T) {
	s := New(Options{Workers: 1, JobWorkers: 1})
	defer s.Close()
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	sys := testSystem(t, 2)
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(map[string]any{
		"system": sys, "population": 6, "generations": 2,
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/explore", "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/explore: status %d", resp.StatusCode)
	}
	var sub SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sub.Kind != KindExplore {
		t.Errorf("kind %q, want explore", sub.Kind)
	}

	deadline := time.Now().Add(60 * time.Second)
	var st JobStatus
	for {
		r, err := http.Get(srv.URL + sub.StatusURL)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if st.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s", st.State)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if st.State != StateDone || st.Result == nil || len(st.Result.Front) == 0 {
		t.Fatalf("state %s, front %v", st.State, st.Result)
	}

	r, err := http.Get(srv.URL + "/v1/strategies")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/strategies: status %d", r.StatusCode)
	}
	var strats StrategiesResponse
	if err := json.NewDecoder(r.Body).Decode(&strats); err != nil {
		t.Fatal(err)
	}
	if len(strats.Strategies) != len(solve.Strategies()) {
		t.Fatalf("listed %d strategies, want %d", len(strats.Strategies), len(solve.Strategies()))
	}
	for i, info := range strats.Strategies {
		parsed, err := solve.ParseStrategy(info.Name)
		if err != nil {
			t.Errorf("strategy %q does not parse: %v", info.Name, err)
		}
		if parsed != solve.Strategies()[i] {
			t.Errorf("strategy %q parsed to %v, want %v", info.Name, parsed, solve.Strategies()[i])
		}
		if info.Description == "" || strings.Contains(info.Name, " ") {
			t.Errorf("strategy %+v missing description or malformed name", info)
		}
	}
}

// TestExploreRequestValidation: a missing system and a move budget
// above maxMoveBudget are rejected before the job is ever queued.
func TestExploreRequestValidation(t *testing.T) {
	s := New(Options{Workers: 1, JobWorkers: 1})
	defer s.Close()
	if _, err := s.SubmitExplore(ExploreRequest{}); err == nil {
		t.Fatal("empty explore request accepted")
	}
	if _, err := s.SubmitExplore(ExploreRequest{System: testSystem(t, 1), MoveBudget: maxMoveBudget + 1}); err == nil {
		t.Fatal("explore request above the move budget bound accepted")
	}
	resp, err := s.SubmitExplore(ExploreRequest{System: testSystem(t, 1), MoveBudget: maxMoveBudget, Population: 4, Generations: 1})
	if err != nil {
		t.Fatalf("explore request at the move budget bound: %v", err)
	}
	if st := waitDone(t, s, resp.ID); st.State != StateDone {
		t.Fatalf("explore at the move budget bound: state %s (error %q)", st.State, st.Error)
	}
}
