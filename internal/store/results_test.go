package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// resultBody is a distinct, valid result body per i.
func resultBody(i int) []byte {
	return []byte(fmt.Sprintf(`{"result":%d,"pad":%q}`, i, bytes.Repeat([]byte("x"), 64*i)))
}

func resultKey(i int) string { return fmt.Sprintf("deadbeef.%016x", i) }

func putResults(t *testing.T, s *FileStore, from, to int) {
	t.Helper()
	for i := from; i <= to; i++ {
		if err := s.PutResult(resultKey(i), resultBody(i)); err != nil {
			t.Fatalf("PutResult #%d: %v", i, err)
		}
	}
}

func wantResult(t *testing.T, s *FileStore, i int) {
	t.Helper()
	if got, ok := s.GetResult(resultKey(i)); !ok || !bytes.Equal(got, resultBody(i)) {
		t.Fatalf("GetResult #%d = %q, %v; want %q", i, got, ok, resultBody(i))
	}
}

func TestResultsLogTornFrameTruncated(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Clock: newFakeClock()})
	putResults(t, s, 1, 3)
	s.Close()

	// Tear the last frame: a put that died mid-write.
	seg := filepath.Join(dir, "results", resName(1))
	full, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, full.Size()-5); err != nil {
		t.Fatal(err)
	}
	third := int64(frameHeader + resultFixed + len(resultKey(3)) + len(resultBody(3)))

	s2 := mustOpen(t, dir, Options{Clock: newFakeClock()})
	wantResult(t, s2, 1)
	wantResult(t, s2, 2)
	if _, ok := s2.GetResult(resultKey(3)); ok {
		t.Fatal("the torn frame's key was served")
	}
	_, rep := s2.Replay()
	if len(rep.Torn) != 1 || rep.Torn[0].Segment != resName(1) || rep.Torn[0].Dropped != third-5 {
		t.Fatalf("torn results frame reported as %+v, want %d bytes dropped from %s", rep.Torn, third-5, resName(1))
	}
	if fi, _ := os.Stat(seg); fi.Size() != full.Size()-third {
		t.Fatalf("torn tail not truncated: %d bytes on disk, want %d", fi.Size(), full.Size()-third)
	}
	// Puts continue after the valid prefix, and the log reopens clean.
	putResults(t, s2, 3, 4)
	s2.Close()
	s3 := mustOpen(t, dir, Options{Clock: newFakeClock()})
	for i := 1; i <= 4; i++ {
		wantResult(t, s3, i)
	}
	if _, rep := s3.Replay(); len(rep.Torn) != 0 {
		t.Fatalf("clean log reported damage: %+v", rep.Torn)
	}
}

func TestResultsLogSurvivesReopenCompactionAndSweep(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	opts := Options{SegmentBytes: 1, ResultTTL: time.Hour, Clock: clk}
	s := mustOpen(t, dir, opts)
	putResults(t, s, 1, 20) // expire below
	clk.advance(50 * time.Minute)
	putResults(t, s, 21, 30)
	putResults(t, s, 21, 30) // overwritten: the first frames are dead
	if st := s.Stats(); st.ResultsDeadBytes == 0 || len(s.results.log.segs) < 2 {
		t.Fatalf("precondition: want dead bytes across several segments, got %+v over %d segments", st, len(s.results.log.segs))
	}
	s.Close()

	s = mustOpen(t, dir, opts)
	clk.advance(20 * time.Minute) // 1..20 are now past the TTL
	if err := s.Compact(func() []Record { return nil }); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.ResultsExpired != 20 || st.ResultsDeadBytes != 0 {
		t.Fatalf("sweep left expired or dead bytes: %+v", st)
	}
	if got := resultsLogBytes(t, dir); got != st.ResultsLiveBytes {
		t.Fatalf("results log holds %d bytes after the sweep, want the %d live ones", got, st.ResultsLiveBytes)
	}
	for i := 21; i <= 30; i++ {
		wantResult(t, s, i)
	}
	putResults(t, s, 31, 31) // a put after the rewrite
	s.Close()

	s = mustOpen(t, dir, opts)
	for i := 21; i <= 31; i++ {
		wantResult(t, s, i)
	}
	for i := 1; i <= 20; i++ {
		if _, ok := s.GetResult(resultKey(i)); ok {
			t.Fatalf("swept result #%d came back after reopen", i)
		}
	}
}

func TestResultsLogCreatesOneFilePerSegment(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Clock: newFakeClock()})
	putResults(t, s, 1, 1)
	first := s.Stats().Fsyncs
	putResults(t, s, 2, 10)
	if got := s.Stats().Fsyncs - first; got != 9 {
		t.Fatalf("9 puts into an open segment took %d fsyncs, want one each", got)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "results"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != resName(1) {
		t.Fatalf("10 puts left %d files in results/, want the one segment", len(entries))
	}
}

func TestJournalStartRecordSkipsFsync(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Clock: newFakeClock()})
	sub := submitRec(1)
	if err := s.Append(sub); err != nil {
		t.Fatal(err)
	}
	before := s.Stats().Fsyncs
	if err := s.Append(Record{Op: OpStart, Job: sub.Job}); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Fsyncs; got != before {
		t.Fatalf("OpStart append took %d fsyncs, want none", got-before)
	}
	s.Close()
	if got := s.Stats().Fsyncs; got != before+1 {
		t.Fatalf("Close took %d fsyncs to cover the start record, want 1", got-before)
	}

	// The start record lost from a torn tail: the job replays as queued.
	seg := filepath.Join(dir, "journal", segName(1))
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, Options{Clock: newFakeClock()})
	recs, rep := s2.Replay()
	if len(recs) != 1 || len(rep.Torn) != 1 {
		t.Fatalf("replayed %d records with report %+v, want the submit and a torn start", len(recs), rep)
	}
	snaps := Reduce(recs)
	if len(snaps) != 1 || snaps[0].State != StateQueued {
		t.Fatalf("job with a lost start record replayed as %+v, want queued", snaps)
	}
}

// TestFileStoreConcurrentUse drives the journal and the results log
// from several goroutines at once, with compactions and sweeps in
// between, and checks every result afterwards (run it under -race).
func TestFileStoreConcurrentUse(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	s := mustOpen(t, dir, Options{SegmentBytes: 1, ResultTTL: time.Hour, Clock: clk})
	const workers, each = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w * each; i < (w+1)*each; i++ {
				if err := s.Append(submitRec(i)); err != nil {
					t.Error(err)
					return
				}
				if err := s.PutResult(resultKey(i%30), resultBody(i%30)); err != nil {
					t.Error(err)
					return
				}
				if got, ok := s.GetResult(resultKey(i % 30)); !ok || !bytes.Equal(got, resultBody(i%30)) {
					t.Errorf("GetResult #%d = %q, %v", i%30, got, ok)
					return
				}
				if i%10 == 0 {
					if err := s.Compact(func() []Record { return nil }); err != nil {
						t.Error(err)
						return
					}
				}
				s.Stats()
			}
		}(w)
	}
	wg.Wait()
	s.Close()
	s = mustOpen(t, dir, Options{ResultTTL: time.Hour, Clock: clk})
	for i := 0; i < 30; i++ {
		wantResult(t, s, i)
	}
}
