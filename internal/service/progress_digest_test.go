package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/obs"
)

// progressWireDigest pins the wire encoding of the progress history;
// see TestProgressWireDigest.
const progressWireDigest = "b3074d164ad585e2"

// TestProgressWireDigest is the service-side twin of solve's
// TestProgressStreamDigest: one SAS job with two chains and one
// exploration run to completion on one worker, then Subscribe replays
// each job's full history and the json.Marshal bytes of every event
// are hashed in Seq order. Replaying after Done pins the wire bytes
// without depending on SSE timing. The digest must not depend on
// whether metrics and tracing ride on the observer stream.
func TestProgressWireDigest(t *testing.T) {
	for _, instrumented := range []bool{false, true} {
		opts := Options{Workers: 1, JobWorkers: 1}
		if instrumented {
			opts.Metrics, opts.Tracing = obs.NewRegistry(), true
		}
		svc := New(opts)
		sas, err := svc.Submit(SynthesisRequest{System: testSystem(t, 46), Strategy: "sas", SARestarts: 2})
		if err != nil {
			t.Fatal(err)
		}
		dse, err := svc.SubmitExplore(ExploreRequest{System: testSystem(t, 47), Population: 6, Generations: 2})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, id := range []string{sas.ID, dse.ID} {
			if st := waitDone(t, svc, id); st.State != StateDone {
				t.Fatalf("job %s: state %s (%s)", id, st.State, st.Error)
			}
			ch, unsubscribe, err := svc.Subscribe(id)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for ev := range ch {
				n++
				if ev.Seq != n {
					t.Fatalf("job %s: event %d has seq %d", id, n, ev.Seq)
				}
				b, err := json.Marshal(ev)
				if err != nil {
					t.Fatal(err)
				}
				h.Write(append(b, '\n'))
			}
			unsubscribe()
			if n == 0 {
				t.Fatalf("job %s: empty progress history", id)
			}
		}
		svc.Close()
		if got := hex.EncodeToString(h.Sum(nil))[:16]; got != progressWireDigest {
			t.Errorf("instrumented=%v: progress wire digest %s, want %s", instrumented, got, progressWireDigest)
		}
	}
}
