package service

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dse"
	"repro/internal/solve"
	"repro/internal/store"
)

// testClock is a deterministic clock shared by a store and a service.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func newTestClock() *testClock {
	return &testClock{now: time.Unix(1_700_000_000, 0)}
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func openTestStore(t *testing.T, dir string, clk store.Clock, opts store.Options) *store.FileStore {
	t.Helper()
	opts.Clock = clk
	st, err := store.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// canonicalBytes reduces a result to its store encoding so results
// from different execution paths (cold, Solver-LRU, persistent) can be
// compared byte for byte.
func canonicalBytes(t *testing.T, res *JobResult) []byte {
	t.Helper()
	if res == nil {
		t.Fatal("job finished without a result")
	}
	blob, err := canonicalResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestPersistFinishedJobSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	clk := newTestClock()
	st := openTestStore(t, dir, clk, store.Options{})
	svc := New(Options{Workers: 1, JobWorkers: 1, Store: st, Clock: clk})

	resp, err := svc.Submit(SynthesisRequest{System: testSystem(t, 41), Strategy: "os"})
	if err != nil {
		t.Fatal(err)
	}
	before := waitDone(t, svc, resp.ID)
	if before.State != StateDone {
		t.Fatalf("job finished %s (%s)", before.State, before.Error)
	}
	svc.Close()
	st.Close()

	st2 := openTestStore(t, dir, clk, store.Options{})
	svc2 := New(Options{Workers: 1, JobWorkers: 1, Store: st2, Clock: clk})
	defer svc2.Close()

	after, err := svc2.Status(resp.ID)
	if err != nil {
		t.Fatalf("replayed job not pollable: %v", err)
	}
	if after.State != StateDone {
		t.Fatalf("replayed job state = %s, want done", after.State)
	}
	if after.Result == nil || !after.Result.PersistentHit {
		t.Fatalf("replayed result not marked as a persistent serve: %+v", after.Result)
	}
	if after.Strategy != before.Strategy {
		t.Fatalf("replayed strategy = %q, want %q", after.Strategy, before.Strategy)
	}
	if !bytes.Equal(canonicalBytes(t, after.Result), canonicalBytes(t, before.Result)) {
		t.Fatal("replayed result differs from the result computed before the restart")
	}
	stats := svc2.Stats()
	if stats.Store == nil || stats.Store.ReplayedJobs != 1 || stats.Store.RequeuedJobs != 0 {
		t.Fatalf("replay stats = %+v, want 1 replayed / 0 requeued", stats.Store)
	}
}

func TestPersistUnfinishedJobRerunsAfterRestart(t *testing.T) {
	dir := t.TempDir()
	clk := newTestClock()

	// Cold baseline: the same request on a purely in-memory service.
	req := SynthesisRequest{System: testSystem(t, 42), Strategy: "os"}
	mem := New(Options{Workers: 1, JobWorkers: 1})
	coldResp, err := mem.Submit(SynthesisRequest{System: testSystem(t, 42), Strategy: "os"})
	if err != nil {
		t.Fatal(err)
	}
	cold := waitDone(t, mem, coldResp.ID)
	mem.Close()

	// Hand-write the journal a crash would leave behind: a submitted
	// and started job with no finish record.
	raw, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	st := openTestStore(t, dir, clk, store.Options{})
	const id = "j000007-deadbeef"
	for _, rec := range []store.Record{
		{Op: store.OpSubmit, Job: id, Kind: string(KindSynthesize), Strategy: "OS", Request: raw},
		{Op: store.OpStart, Job: id},
	} {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	st2 := openTestStore(t, dir, clk, store.Options{})
	svc := New(Options{Workers: 1, JobWorkers: 1, Store: st2, Clock: clk})
	defer svc.Close()

	if stats := svc.Stats(); stats.Store == nil || stats.Store.RequeuedJobs != 1 {
		t.Fatalf("replay stats = %+v, want 1 requeued", stats.Store)
	}
	rerun := waitDone(t, svc, id)
	if rerun.State != StateDone {
		t.Fatalf("re-run finished %s (%s)", rerun.State, rerun.Error)
	}
	if rerun.Result.PersistentHit {
		t.Fatal("re-run claims a persistent hit; nothing was stored before the crash")
	}
	if !bytes.Equal(canonicalBytes(t, rerun.Result), canonicalBytes(t, cold.Result)) {
		t.Fatal("re-run after restart differs from a cold run of the same request")
	}

	// ID continuity: fresh submissions continue past every replayed ID.
	resp, err := svc.Submit(SynthesisRequest{System: testSystem(t, 43)})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(resp.ID, "j000008-") {
		t.Fatalf("post-replay ID = %s, want sequence to resume at j000008", resp.ID)
	}
	waitDone(t, svc, resp.ID)
}

func TestPersistCrashMidRunRequeues(t *testing.T) {
	dir := t.TempDir()
	clk := newTestClock()
	st := openTestStore(t, dir, clk, store.Options{})
	svc := New(Options{Workers: 1, JobWorkers: 1, Store: st, Clock: clk})

	// A deliberately huge exploration: it cannot finish before the
	// simulated crash, so its finish record never reaches the journal.
	resp, err := svc.SubmitExplore(ExploreRequest{System: testSystem(t, 44), Generations: 100000})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second) //mcs:allow wallclock test-only poll deadline, not persisted state
	for {
		status, err := svc.Status(resp.ID)
		if err != nil {
			t.Fatal(err)
		}
		if status.State == StateRunning {
			break
		}
		if time.Now().After(deadline) { //mcs:allow wallclock test-only poll deadline, not persisted state
			t.Fatalf("job never started running (state %s)", status.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Crash: closing the store first makes everything the service does
	// from here on invisible to the journal, exactly the visibility a
	// kill -9 leaves behind (scripts/service_smoke.sh runs the real kill
	// -9 round trip). Close then cancels the job, but the cancellation
	// and the finish record fail as store errors and are never journaled.
	st.Close()
	svc.Close()

	st2 := openTestStore(t, dir, clk, store.Options{})
	svc2 := New(Options{Workers: 1, JobWorkers: 1, Store: st2, Clock: clk})
	defer svc2.Close()

	stats := svc2.Stats()
	if stats.Store == nil || stats.Store.RequeuedJobs != 1 {
		t.Fatalf("replay stats = %+v, want the mid-run job requeued", stats.Store)
	}
	status, err := svc2.Status(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if status.State != StateQueued && status.State != StateRunning {
		t.Fatalf("replayed mid-run job state = %s, want queued or running", status.State)
	}
	// Don't wait out the huge exploration; cancelling it proves the
	// replayed job is live and wired into the queue like any other.
	if err := svc2.Cancel(resp.ID); err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, svc2, resp.ID)
	if final.State != StateCanceled {
		t.Fatalf("replayed job after cancel = %s, want canceled", final.State)
	}
}

func TestPersistDuplicateSubmissionServedFromStore(t *testing.T) {
	clk := newTestClock()
	st := openTestStore(t, t.TempDir(), clk, store.Options{})
	svc := New(Options{Workers: 1, JobWorkers: 1, Store: st, Clock: clk})
	defer svc.Close()

	first, err := svc.Submit(SynthesisRequest{System: testSystem(t, 45), Strategy: "os"})
	if err != nil {
		t.Fatal(err)
	}
	cold := waitDone(t, svc, first.ID)
	if cold.State != StateDone || cold.Result.PersistentHit {
		t.Fatalf("first run: state %s, persistentHit %v", cold.State, cold.Result.PersistentHit)
	}

	second, err := svc.Submit(SynthesisRequest{System: testSystem(t, 45), Strategy: "os"})
	if err != nil {
		t.Fatal(err)
	}
	dup := waitDone(t, svc, second.ID)
	if dup.State != StateDone || !dup.Result.PersistentHit {
		t.Fatalf("duplicate run: state %s, persistentHit %v, want a persistent serve", dup.State, dup.Result.PersistentHit)
	}
	if !bytes.Equal(canonicalBytes(t, dup.Result), canonicalBytes(t, cold.Result)) {
		t.Fatal("persistent serve differs from the run that produced it")
	}

	// A different seed is a different key and must NOT hit.
	third, err := svc.Submit(SynthesisRequest{System: testSystem(t, 45), Strategy: "os", Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	other := waitDone(t, svc, third.ID)
	if other.State != StateDone || other.Result.PersistentHit {
		t.Fatalf("distinct options served from the store: state %s, persistentHit %v", other.State, other.Result.PersistentHit)
	}
}

// TestSynthesisKeyFromNormalizedOptions: requests whose options
// normalize to the same Solver options share a result key; a distinct
// seed does not.
func TestSynthesisKeyFromNormalizedOptions(t *testing.T) {
	key := func(r SynthesisRequest) string { return r.key(solve.SAS, "fp") }
	for _, pair := range [][2]SynthesisRequest{
		{{Seed: 0}, {Seed: 1}},
		{{SAIterations: 0}, {SAIterations: 300}},
		{{SARestarts: 0}, {SARestarts: 1}},
	} {
		if a, b := key(pair[0]), key(pair[1]); a != b {
			t.Errorf("%+v and %+v: keys %s and %s, want one shared key", pair[0], pair[1], a, b)
		}
	}
	if key(SynthesisRequest{Seed: 1}) == key(SynthesisRequest{Seed: 2}) {
		t.Error("seeds 1 and 2 share a key")
	}
}

// TestPersistDefaultSpellingServedFromStore: a {seed: 0} resubmission
// of a {seed: 1} job runs the same synthesis, so the file store serves
// it instead of recomputing.
func TestPersistDefaultSpellingServedFromStore(t *testing.T) {
	clk := newTestClock()
	st := openTestStore(t, t.TempDir(), clk, store.Options{})
	svc := New(Options{Workers: 1, JobWorkers: 1, Store: st, Clock: clk})
	defer svc.Close()

	first, err := svc.Submit(SynthesisRequest{System: testSystem(t, 45), Strategy: "os", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cold := waitDone(t, svc, first.ID)
	if cold.State != StateDone || cold.Result.PersistentHit {
		t.Fatalf("first run: state %s, persistentHit %v", cold.State, cold.Result.PersistentHit)
	}
	second, err := svc.Submit(SynthesisRequest{System: testSystem(t, 45), Strategy: "os"})
	if err != nil {
		t.Fatal(err)
	}
	dup := waitDone(t, svc, second.ID)
	if dup.State != StateDone || !dup.Result.PersistentHit {
		t.Fatalf("seed-0 resubmission: state %s, persistentHit %v, want a persistent serve", dup.State, dup.Result.PersistentHit)
	}
	if !bytes.Equal(canonicalBytes(t, dup.Result), canonicalBytes(t, cold.Result)) {
		t.Fatal("persistent serve differs from the run that produced it")
	}
}

func TestPersistCanceledBeforeRestartNotRequeued(t *testing.T) {
	dir := t.TempDir()
	clk := newTestClock()
	req := SynthesisRequest{System: testSystem(t, 46)}
	raw, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	st := openTestStore(t, dir, clk, store.Options{})
	const id = "j000001-deadbeef"
	for _, rec := range []store.Record{
		{Op: store.OpSubmit, Job: id, Kind: string(KindSynthesize), Request: raw},
		{Op: store.OpStart, Job: id},
		{Op: store.OpCancel, Job: id},
	} {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	st2 := openTestStore(t, dir, clk, store.Options{})
	svc := New(Options{Workers: 1, JobWorkers: 1, Store: st2, Clock: clk})
	defer svc.Close()

	status, err := svc.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if status.State != StateCanceled || status.Error != store.ErrCanceledBeforeRestart {
		t.Fatalf("cancel-before-crash job replayed as %s (%q)", status.State, status.Error)
	}
	if stats := svc.Stats(); stats.Store.RequeuedJobs != 0 {
		t.Fatalf("canceled job was requeued: %+v", stats.Store)
	}
}

func TestPersistResultTTLExpiry(t *testing.T) {
	dir := t.TempDir()
	clk := newTestClock()
	st := openTestStore(t, dir, clk, store.Options{ResultTTL: time.Hour})
	svc := New(Options{Workers: 1, JobWorkers: 1, Store: st, Clock: clk})

	resp, err := svc.Submit(SynthesisRequest{System: testSystem(t, 47)})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, svc, resp.ID)
	svc.Close()
	st.Close()

	clk.advance(2 * time.Hour)
	st2 := openTestStore(t, dir, clk, store.Options{ResultTTL: time.Hour})
	svc2 := New(Options{Workers: 1, JobWorkers: 1, Store: st2, Clock: clk})
	defer svc2.Close()

	// The finish record outlives the result: the job stays done, the
	// missing result is reported, and a resubmission recomputes.
	status, err := svc2.Status(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if status.State != StateDone || status.Result != nil || status.Error == "" {
		t.Fatalf("expired-result job = %s, result %v, error %q; want done with a reported gap",
			status.State, status.Result, status.Error)
	}
	again, err := svc2.Submit(SynthesisRequest{System: testSystem(t, 47)})
	if err != nil {
		t.Fatal(err)
	}
	recomputed := waitDone(t, svc2, again.ID)
	if recomputed.State != StateDone || recomputed.Result.PersistentHit {
		t.Fatalf("resubmission after expiry: state %s, persistentHit %v, want a recompute",
			recomputed.State, recomputed.Result.PersistentHit)
	}
}

func TestPersistCompactionBoundsJournal(t *testing.T) {
	dir := t.TempDir()
	clk := newTestClock()
	// The 4KiB segment floor plus identical requests (every job after
	// the first is an instant persistent hit) grows the journal fast
	// enough to cross the compaction threshold within a few dozen jobs.
	st := openTestStore(t, dir, clk, store.Options{SegmentBytes: 1})
	svc := New(Options{Workers: 1, JobWorkers: 1, Store: st, Clock: clk})
	defer svc.Close()

	sys := testSystem(t, 48)
	for i := 0; i < 60; i++ {
		resp, err := svc.Submit(SynthesisRequest{System: sys})
		if err != nil {
			t.Fatal(err)
		}
		if status := waitDone(t, svc, resp.ID); status.State != StateDone {
			t.Fatalf("job %d finished %s (%s)", i, status.State, status.Error)
		}
	}
	stats := svc.Stats()
	if stats.Store.Compactions == 0 {
		t.Fatalf("60 jobs at the 4KiB segment floor never compacted: %+v", stats.Store)
	}
	if stats.Store.Segments >= 8 {
		t.Fatalf("journal not bounded: %d segments after compaction", stats.Store.Segments)
	}
}

// TestPersistFsyncsPerJob pins the fsyncs of the durable path once the
// journal and results segments are open: a fresh job takes three (its
// submit and finish records and its result frame; the start record
// rides on the next fsync), a persistent hit two, and no result after
// a segment's first creates a file.
func TestPersistFsyncsPerJob(t *testing.T) {
	dir := t.TempDir()
	clk := newTestClock()
	st := openTestStore(t, dir, clk, store.Options{})
	svc := New(Options{Workers: 1, JobWorkers: 1, Store: st, Clock: clk})
	defer svc.Close()

	fsyncs := func(seed int64) (int64, *JobStatus) {
		t.Helper()
		before := st.Stats().Fsyncs
		resp, err := svc.Submit(SynthesisRequest{System: testSystem(t, seed), Strategy: "os"})
		if err != nil {
			t.Fatal(err)
		}
		status := waitDone(t, svc, resp.ID)
		if status.State != StateDone {
			t.Fatalf("job finished %s (%s)", status.State, status.Error)
		}
		return st.Stats().Fsyncs - before, status
	}
	fsyncs(51) // opens both segments
	for _, seed := range []int64{52, 53} {
		if n, status := fsyncs(seed); n != 3 || status.Result.PersistentHit {
			t.Fatalf("fresh job took %d fsyncs (persistentHit %v), want 3", n, status.Result.PersistentHit)
		}
	}
	if n, status := fsyncs(52); n != 2 || !status.Result.PersistentHit {
		t.Fatalf("persistent hit took %d fsyncs (persistentHit %v), want 2", n, status.Result.PersistentHit)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "results"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("3 results left %d files in the results directory, want one segment", len(entries))
	}
}

func TestPersistStoreStatsSurface(t *testing.T) {
	clk := newTestClock()
	st := openTestStore(t, t.TempDir(), clk, store.Options{})
	svc := New(Options{Workers: 1, JobWorkers: 1, Store: st, Clock: clk})
	defer svc.Close()

	if mem := New(Options{Workers: 1, JobWorkers: 1}); mem.Stats().Store != nil {
		t.Fatal("in-memory service reports store stats")
	} else {
		mem.Close()
	}

	resp, err := svc.Submit(SynthesisRequest{System: testSystem(t, 49)})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, svc, resp.ID)
	stats := svc.Stats()
	if stats.Store == nil {
		t.Fatal("store-backed service reports no store stats")
	}
	if stats.Store.Appends < 3 { // submit + start + finish
		t.Fatalf("Appends = %d, want >= 3", stats.Store.Appends)
	}
	if stats.Store.ResultsStored != 1 || stats.Store.Errors != 0 {
		t.Fatalf("store stats = %+v", stats.Store)
	}
	blob, err := json.Marshal(stats)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"store"`, `"segments"`, `"journalBytes"`, `"replayedJobs"`, `"resultsStored"`} {
		if !bytes.Contains(blob, []byte(field)) {
			t.Fatalf("stats JSON missing %s: %s", field, blob)
		}
	}
}

// TestExploreKeyFromNormalizedOptions: exploration requests whose
// options normalize to the same dse options share a result key; a
// distinct seed or a disabled warm start does not.
func TestExploreKeyFromNormalizedOptions(t *testing.T) {
	key := func(r ExploreRequest) string { return r.key("fp") }
	spelled := ExploreRequest{Seed: 1, Population: 16, Generations: 12, MoveBudget: 16, MaxMutations: 3, ArchiveCap: dse.DefaultArchiveCap}
	if a, b := key(ExploreRequest{}), key(spelled); a != b {
		t.Errorf("{} and the spelled-out defaults: keys %s and %s, want one shared key", a, b)
	}
	for _, other := range []ExploreRequest{{Seed: 2}, {NoWarmStart: true}} {
		if key(other) == key(ExploreRequest{}) {
			t.Errorf("%+v shares the default request's key", other)
		}
	}
}

// TestPersistExploreDefaultSpellingServedFromStore: a {} resubmission
// of a {seed: 1} explore job runs the same exploration, so the file
// store serves it instead of recomputing.
func TestPersistExploreDefaultSpellingServedFromStore(t *testing.T) {
	clk := newTestClock()
	st := openTestStore(t, t.TempDir(), clk, store.Options{})
	svc := New(Options{Workers: 1, JobWorkers: 1, Store: st, Clock: clk})
	defer svc.Close()

	first, err := svc.SubmitExplore(ExploreRequest{System: testSystem(t, 46), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cold := waitDone(t, svc, first.ID)
	if cold.State != StateDone || cold.Result.PersistentHit {
		t.Fatalf("first run: state %s, persistentHit %v", cold.State, cold.Result.PersistentHit)
	}
	second, err := svc.SubmitExplore(ExploreRequest{System: testSystem(t, 46)})
	if err != nil {
		t.Fatal(err)
	}
	dup := waitDone(t, svc, second.ID)
	if dup.State != StateDone || !dup.Result.PersistentHit {
		t.Fatalf("{} resubmission: state %s, persistentHit %v, want a persistent serve", dup.State, dup.Result.PersistentHit)
	}
	if !bytes.Equal(canonicalBytes(t, dup.Result), canonicalBytes(t, cold.Result)) {
		t.Fatal("persistent serve differs from the run that produced it")
	}
}
