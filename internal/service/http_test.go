package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestHTTPSubmitPollResult is the scripted wire round trip: submit a
// job over HTTP, poll its status URL until done, and decode the result.
func TestHTTPSubmitPollResult(t *testing.T) {
	s := New(Options{Workers: 1, JobWorkers: 2})
	defer s.Close()
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	resp := postJSON(t, srv.URL+"/v1/synthesize", SynthesisRequest{System: testSystem(t, 2), Strategy: "os"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/v1/jobs/") {
		t.Errorf("Location %q, want /v1/jobs/...", loc)
	}
	sub := decodeBody[SubmitResponse](t, resp)
	if sub.ID == "" || sub.Fingerprint == "" {
		t.Fatalf("incomplete submit response: %+v", sub)
	}

	var st JobStatus
	deadline := time.Now().Add(60 * time.Second)
	for {
		r, err := http.Get(srv.URL + sub.StatusURL)
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d", r.StatusCode)
		}
		st = decodeBody[JobStatus](t, r)
		if st.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.State != StateDone {
		t.Fatalf("job state %s (error %q)", st.State, st.Error)
	}
	if st.Result == nil || len(st.Result.Config) == 0 || st.Result.Analysis == nil {
		t.Fatalf("incomplete result: %+v", st.Result)
	}

	// Unknown jobs 404; malformed bodies 400 (unknown fields rejected).
	if r, _ := http.Get(srv.URL + "/v1/jobs/nope"); r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status %d, want 404", r.StatusCode)
	}
	bad, err := http.Post(srv.URL+"/v1/synthesize", "application/json", strings.NewReader(`{"sytem": {}}`))
	if err != nil {
		t.Fatal(err)
	}
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("typo field status %d, want 400", bad.StatusCode)
	}
}

// TestHTTPEventsSSE reads the SSE stream end to end: progress events
// arrive with increasing sequence numbers and the stream finishes with
// a "done" event carrying the terminal status.
func TestHTTPEventsSSE(t *testing.T) {
	s := New(Options{Workers: 1, JobWorkers: 1})
	defer s.Close()
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	resp := postJSON(t, srv.URL+"/v1/synthesize", SynthesisRequest{System: testSystem(t, 1), Strategy: "or"})
	sub := decodeBody[SubmitResponse](t, resp)

	stream, err := http.Get(srv.URL + sub.EventsURL)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q, want text/event-stream", ct)
	}

	var progress []ProgressEvent
	var final *JobStatus
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "progress":
				var ev ProgressEvent
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					t.Fatalf("bad progress data %q: %v", data, err)
				}
				progress = append(progress, ev)
			case "done":
				var st JobStatus
				if err := json.Unmarshal([]byte(data), &st); err != nil {
					t.Fatalf("bad done data %q: %v", data, err)
				}
				final = &st
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(progress) == 0 {
		t.Error("SSE stream carried no progress events")
	}
	for i := 1; i < len(progress); i++ {
		if progress[i].Seq <= progress[i-1].Seq {
			t.Errorf("SSE seq not increasing: %d after %d", progress[i].Seq, progress[i-1].Seq)
		}
	}
	if final == nil {
		t.Fatal("SSE stream ended without a done event")
	}
	if final.State != StateDone || final.Result == nil {
		t.Fatalf("done event state %s, result %v", final.State, final.Result != nil)
	}
}

// TestHTTPAnalyzeAndCancel covers the synchronous endpoint, DELETE
// cancellation and the health endpoint.
func TestHTTPAnalyzeAndCancel(t *testing.T) {
	s := New(Options{Workers: 1, JobWorkers: 1})
	defer s.Close()
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	resp := postJSON(t, srv.URL+"/v1/analyze", AnalysisRequest{System: testSystem(t, 3)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze status %d", resp.StatusCode)
	}
	ar := decodeBody[AnalysisResponse](t, resp)
	if len(ar.Results) != 1 || ar.Results[0].Analysis == nil {
		t.Fatalf("analyze response incomplete: %+v", ar)
	}

	// Cancel a long-running job over HTTP.
	resp = postJSON(t, srv.URL+"/v1/synthesize", SynthesisRequest{System: testSystem(t, 4), Strategy: "sas", SAIterations: 50_000_000})
	sub := decodeBody[SubmitResponse](t, resp)
	ch, _, err := s.Subscribe(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	case <-time.After(30 * time.Second):
		t.Fatal("job never started")
	}
	req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/jobs/%s", srv.URL, sub.ID), nil)
	if err != nil {
		t.Fatal(err)
	}
	dr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if dr.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", dr.StatusCode)
	}
	dr.Body.Close()
	st := waitDone(t, s, sub.ID)
	if st.State != StateCanceled {
		t.Fatalf("canceled job state %s", st.State)
	}

	hr, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", hr.StatusCode)
	}
	stats := decodeBody[Stats](t, hr)
	if stats.CacheMisses == 0 {
		t.Errorf("healthz stats look empty: %+v", stats)
	}
}

// submitFailingStore refuses every submit record, the way a full disk
// refuses the journal append; the other records go through.
type submitFailingStore struct{ store.Store }

func (s submitFailingStore) Append(rec store.Record) error {
	if rec.Op == store.OpSubmit {
		return errors.New("no space left on device")
	}
	return s.Store.Append(rec)
}

// TestHTTPSubmitJournalFailureIs500: a submit the service cannot
// journal is the server's fault, not the client's: 500 with the journal
// error, and nothing is queued.
func TestHTTPSubmitJournalFailureIs500(t *testing.T) {
	clk := newTestClock()
	st := submitFailingStore{openTestStore(t, t.TempDir(), clk, store.Options{})}
	s := New(Options{Workers: 1, JobWorkers: 1, Store: st, Clock: clk})
	defer s.Close()
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	resp := postJSON(t, srv.URL+"/v1/synthesize", SynthesisRequest{System: testSystem(t, 5), Strategy: "os"})
	body := decodeBody[map[string]string](t, resp)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("submit status %d, want 500", resp.StatusCode)
	}
	if !strings.Contains(body["error"], "no space left on device") {
		t.Errorf("error body %q does not carry the journal error", body["error"])
	}
	stats := s.Stats()
	if len(stats.Jobs) != 0 || len(s.queue) != 0 {
		t.Errorf("rejected submit left jobs %v, queue depth %d", stats.Jobs, len(s.queue))
	}
	if stats.Store == nil || stats.Store.Errors != 1 {
		t.Errorf("store stats %+v, want exactly 1 error", stats.Store)
	}
}
