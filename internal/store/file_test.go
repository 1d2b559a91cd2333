package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// fakeClock is a deterministic test clock; tests advance it explicitly.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func mustOpen(t *testing.T, dir string, opts Options) *FileStore {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// segName and resName name the journal's and the results log's
// segment files.
func segName(idx int) string { return (&segLog{prefix: segPrefix, suffix: segSuffix}).name(idx) }
func resName(idx int) string { return (&segLog{prefix: resPrefix, suffix: resSuffix}).name(idx) }

func submitRec(i int) Record {
	return Record{
		Op:          OpSubmit,
		Job:         fmt.Sprintf("j%06d-deadbeef", i),
		Kind:        "synthesize",
		Fingerprint: "deadbeef",
		Key:         "deadbeef.0011223344556677",
		Strategy:    "OS",
		Request:     json.RawMessage(`{"seed":7}`),
		Unix:        1_700_000_000,
	}
}

func TestFileStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Clock: newFakeClock()})
	const n = 25
	for i := 1; i <= n; i++ {
		if err := s.Append(submitRec(i)); err != nil {
			t.Fatalf("Append #%d: %v", i, err)
		}
	}
	s.Close()

	s2 := mustOpen(t, dir, Options{Clock: newFakeClock()})
	recs, rep := s2.Replay()
	if len(recs) != n {
		t.Fatalf("replayed %d records, want %d", len(recs), n)
	}
	if len(rep.Torn) != 0 || rep.SegmentsDropped != 0 {
		t.Fatalf("clean journal reported damage: %+v", rep)
	}
	for i, rec := range recs {
		want := submitRec(i + 1)
		if rec.Job != want.Job || rec.Op != want.Op || !bytes.Equal(rec.Request, want.Request) {
			t.Fatalf("record %d = %+v, want %+v", i, rec, want)
		}
	}
}

func TestFileStoreSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	// The floor is 4KiB; each submit record frame is ~150 bytes, so a
	// few dozen appends must rotate at least once.
	s := mustOpen(t, dir, Options{SegmentBytes: 1, Clock: newFakeClock()})
	for i := 1; i <= 100; i++ {
		if err := s.Append(submitRec(i)); err != nil {
			t.Fatalf("Append #%d: %v", i, err)
		}
	}
	st := s.Stats()
	if st.Segments < 2 {
		t.Fatalf("100 appends at the 4KiB floor produced %d segments, want >= 2", st.Segments)
	}
	s.Close()

	s2 := mustOpen(t, dir, Options{Clock: newFakeClock()})
	recs, rep := s2.Replay()
	if len(recs) != 100 {
		t.Fatalf("replayed %d records across segments, want 100", len(recs))
	}
	if rep.Segments != st.Segments {
		t.Fatalf("replay saw %d segments, stats saw %d", rep.Segments, st.Segments)
	}
}

func TestFileStoreTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Clock: newFakeClock()})
	for i := 1; i <= 3; i++ {
		if err := s.Append(submitRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Simulate a torn final write: append half a frame to the segment.
	seg := filepath.Join(dir, "journal", segName(1))
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x10, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	full, _ := os.Stat(seg)

	s2 := mustOpen(t, dir, Options{Clock: newFakeClock()})
	recs, rep := s2.Replay()
	if len(recs) != 3 {
		t.Fatalf("replayed %d records, want the 3 before the torn tail", len(recs))
	}
	if len(rep.Torn) != 1 {
		t.Fatalf("torn tail not reported: %+v", rep)
	}
	if torn := rep.Torn[0]; torn.Dropped != 3 || torn.Offset != full.Size()-3 {
		t.Fatalf("torn tail = %+v, want 3 bytes dropped at %d", torn, full.Size()-3)
	}
	if fi, _ := os.Stat(seg); fi.Size() != full.Size()-3 {
		t.Fatalf("torn tail not truncated: %d bytes on disk, want %d", fi.Size(), full.Size()-3)
	}
	if st := s2.Stats(); st.TornTails != 1 {
		t.Fatalf("Stats().TornTails = %d, want 1", st.TornTails)
	}
}

func TestFileStoreMidJournalCorruptionDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SegmentBytes: 1, Clock: newFakeClock()})
	for i := 1; i <= 100; i++ {
		if err := s.Append(submitRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	segments := s.Stats().Segments
	if segments < 3 {
		t.Fatalf("need >= 3 segments for this test, got %d", segments)
	}
	s.Close()

	// Flip a payload byte in the middle of the FIRST segment: replay
	// must stop there and drop every later segment rather than reorder
	// history around the lost records.
	seg := filepath.Join(dir, "journal", segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{Clock: newFakeClock()})
	recs, rep := s2.Replay()
	if len(recs) >= 100 || len(recs) == 0 {
		t.Fatalf("replayed %d records, want a non-empty strict prefix of 100", len(recs))
	}
	if len(rep.Torn) != 1 {
		t.Fatalf("corruption not reported: %+v", rep)
	}
	if rep.SegmentsDropped != segments-1 {
		t.Fatalf("SegmentsDropped = %d, want %d", rep.SegmentsDropped, segments-1)
	}
	for i, rec := range recs {
		if want := submitRec(i + 1); rec.Job != want.Job {
			t.Fatalf("replayed record %d = %q, want the original prefix order %q", i, rec.Job, want.Job)
		}
	}

	// The dropped segments are gone for good: a record appended after
	// recovery follows the prefix, and the next Open replays exactly
	// that with nothing left to report.
	prefix := len(recs)
	if err := s2.Append(submitRec(1000)); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3 := mustOpen(t, dir, Options{Clock: newFakeClock()})
	recs, rep = s3.Replay()
	if len(recs) != prefix+1 || len(rep.Torn) != 0 || rep.SegmentsDropped != 0 {
		t.Fatalf("second reopen replayed %d records with report %+v, want the %d-record prefix plus one and no damage",
			len(recs), rep, prefix)
	}
	for i, rec := range recs[:prefix] {
		if want := submitRec(i + 1); rec.Job != want.Job {
			t.Fatalf("second reopen: record %d = %q, want %q", i, rec.Job, want.Job)
		}
	}
	if last := recs[prefix].Job; last != submitRec(1000).Job {
		t.Fatalf("second reopen: last record %q, want the one appended after recovery", last)
	}
}

// TestFileStoreOpenIdempotent damages each log and opens it twice:
// the first Open recovers and reports, the second must recover the
// same records and results with nothing left to report.
func TestFileStoreOpenIdempotent(t *testing.T) {
	segments := func(t *testing.T, dir, sub, pattern string) []string {
		t.Helper()
		matches, err := filepath.Glob(filepath.Join(dir, sub, pattern))
		if err != nil || len(matches) < 2 {
			t.Fatalf("precondition: want several %s segments, got %d (%v)", sub, len(matches), err)
		}
		return matches // sorted, so by index
	}
	tear := func(path string) error {
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		return os.Truncate(path, fi.Size()-5)
	}
	flip := func(path string) error {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		data[len(data)/2] ^= 0xFF
		return os.WriteFile(path, data, 0o644)
	}
	cases := []struct {
		name    string
		sub     string
		pattern string
		last    bool // damage the last segment, else the first
		damage  func(path string) error
	}{
		{"journal torn tail", "journal", segPrefix + "*" + segSuffix, true, tear},
		{"journal flipped byte", "journal", segPrefix + "*" + segSuffix, false, flip},
		{"results torn tail", "results", resPrefix + "*" + resSuffix, true, tear},
		{"results flipped byte", "results", resPrefix + "*" + resSuffix, false, flip},
	}
	const records, results = 100, 20
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{SegmentBytes: 1, Clock: newFakeClock()}
			s := mustOpen(t, dir, opts)
			for i := 1; i <= records; i++ {
				if err := s.Append(submitRec(i)); err != nil {
					t.Fatal(err)
				}
			}
			putResults(t, s, 1, results)
			s.Close()
			segs := segments(t, dir, tc.sub, tc.pattern)
			target := segs[0]
			if tc.last {
				target = segs[len(segs)-1]
			}
			if err := tc.damage(target); err != nil {
				t.Fatal(err)
			}

			open := func() ([]Record, ReplayReport, [][]byte) {
				s := mustOpen(t, dir, opts)
				defer s.Close()
				recs, rep := s.Replay()
				bodies := make([][]byte, results+1)
				for i := 1; i <= results; i++ {
					bodies[i], _ = s.GetResult(resultKey(i))
				}
				return recs, rep, bodies
			}
			recs, rep, bodies := open()
			if len(rep.Torn) != 1 {
				t.Fatalf("first Open reported %+v, want the damage", rep)
			}
			recs2, rep2, bodies2 := open()
			if len(rep2.Torn) != 0 || rep2.SegmentsDropped != 0 {
				t.Fatalf("second Open reported %+v, want no damage", rep2)
			}
			if len(recs2) != len(recs) {
				t.Fatalf("second Open replayed %d records, first %d", len(recs2), len(recs))
			}
			for i := range recs {
				if recs2[i].Job != recs[i].Job || recs2[i].Op != recs[i].Op {
					t.Fatalf("record %d: second Open %+v, first %+v", i, recs2[i], recs[i])
				}
			}
			for i := 1; i <= results; i++ {
				if !bytes.Equal(bodies2[i], bodies[i]) {
					t.Fatalf("result #%d: second Open %q, first %q", i, bodies2[i], bodies[i])
				}
			}
		})
	}
}

func TestFileStoreCompact(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SegmentBytes: 1, Clock: newFakeClock()})
	for i := 1; i <= 100; i++ {
		if err := s.Append(submitRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats()
	if before.Segments < 2 {
		t.Fatalf("precondition: want multiple segments, got %d", before.Segments)
	}

	// Compact down to two live records; appends racing the snapshot
	// must survive in a later segment.
	live := []Record{submitRec(1), submitRec(2)}
	var raced Record
	err := s.Compact(func() []Record {
		raced = submitRec(101)
		if err := s.Append(raced); err != nil {
			t.Errorf("append during compaction snapshot: %v", err)
		}
		return live
	})
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	after := s.Stats()
	if after.Segments > 2 {
		t.Fatalf("post-compaction segments = %d, want <= 2 (compacted + racing append)", after.Segments)
	}
	if after.JournalBytes >= before.JournalBytes {
		t.Fatalf("compaction did not shrink the journal: %d -> %d bytes", before.JournalBytes, after.JournalBytes)
	}
	if after.Compactions != 1 {
		t.Fatalf("Compactions = %d, want 1", after.Compactions)
	}
	s.Close()

	s2 := mustOpen(t, dir, Options{Clock: newFakeClock()})
	recs, _ := s2.Replay()
	if len(recs) != 3 {
		t.Fatalf("replayed %d records after compaction, want 2 live + 1 raced", len(recs))
	}
	if recs[2].Job != raced.Job {
		t.Fatalf("racing append lost: last record is %q, want %q", recs[2].Job, raced.Job)
	}
}

func TestFileStoreCrashedCompactionLeftoverTmp(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Clock: newFakeClock()})
	if err := s.Append(submitRec(1)); err != nil {
		t.Fatal(err)
	}
	putResults(t, s, 1, 1)
	s.Close()

	// A compaction or a results-log rewrite that died before its rename
	// leaves a .tmp file; Open must discard it and keep the real
	// segments.
	tmps := []string{
		filepath.Join(dir, "journal", segName(9)+".tmp"),
		filepath.Join(dir, "results", resName(9)+".tmp"),
	}
	for _, tmp := range tmps {
		if err := os.WriteFile(tmp, []byte("half-written"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2 := mustOpen(t, dir, Options{Clock: newFakeClock()})
	recs, rep := s2.Replay()
	if len(recs) != 1 || len(rep.Torn) != 0 {
		t.Fatalf("replay after leftover tmp: %d records, report %+v", len(recs), rep)
	}
	wantResult(t, s2, 1)
	for _, tmp := range tmps {
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Fatalf("leftover tmp file %s not removed: %v", tmp, err)
		}
	}
}

func TestFileStoreResultTTL(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	s := mustOpen(t, dir, Options{ResultTTL: time.Hour, Clock: clk})
	key := "deadbeef.0011223344556677"
	if err := s.PutResult(key, []byte(`{"evaluations":42}`)); err != nil {
		t.Fatalf("PutResult: %v", err)
	}
	if got, ok := s.GetResult(key); !ok || string(got) != `{"evaluations":42}` {
		t.Fatalf("GetResult before expiry = %q, %v", got, ok)
	}
	live := s.Stats().ResultsLiveBytes
	clk.advance(2 * time.Hour)
	if _, ok := s.GetResult(key); ok {
		t.Fatal("GetResult returned an expired result")
	}
	// Evicted on lookup: its frame no longer counts as live.
	st := s.Stats()
	if st.ResultsLiveBytes != 0 || st.ResultsDeadBytes != live {
		t.Fatalf("expired result not evicted on lookup: live %d, dead %d bytes (frame %d)",
			st.ResultsLiveBytes, st.ResultsDeadBytes, live)
	}
	if st.ResultsStored != 1 || st.PersistentHits != 1 || st.ResultsExpired != 1 {
		t.Fatalf("TTL counters = %+v", st)
	}
}

func TestFileStoreCompactionSweepsExpiredResults(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	s := mustOpen(t, dir, Options{ResultTTL: time.Hour, Clock: clk})
	// The expired result outweighs the live one, so the sweep rewrites.
	if err := s.PutResult("aa.bb", bytes.Repeat([]byte("1"), 512)); err != nil {
		t.Fatal(err)
	}
	clk.advance(2 * time.Hour)
	if err := s.PutResult("cc.dd", []byte(`2`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(func() []Record { return nil }); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	live := int64(frameHeader + resultFixed + len("cc.dd") + 1)
	if st.ResultsExpired != 1 || st.ResultsLiveBytes != live || st.ResultsDeadBytes != 0 {
		t.Fatalf("compaction sweep kept an expired result: %+v, want %d live bytes", st, live)
	}
	if got := resultsLogBytes(t, dir); got != live {
		t.Fatalf("results log holds %d bytes after the sweep, want the %d live ones", got, live)
	}
	if _, ok := s.GetResult("cc.dd"); !ok {
		t.Fatal("compaction sweep evicted a live result")
	}
}

// resultsLogBytes sums the results-log segments on disk.
func resultsLogBytes(t *testing.T, dir string) int64 {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "results", resPrefix+"*"+resSuffix))
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, m := range matches {
		fi, err := os.Stat(m)
		if err != nil {
			t.Fatal(err)
		}
		n += fi.Size()
	}
	return n
}

func TestFileStoreResultSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Clock: newFakeClock()})
	if err := s.PutResult("aa.bb", []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := mustOpen(t, dir, Options{Clock: newFakeClock()})
	if got, ok := s2.GetResult("aa.bb"); !ok || string(got) != `{"x":1}` {
		t.Fatalf("GetResult after reopen = %q, %v", got, ok)
	}
}

func TestFileStoreClosedOperationsFail(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{Clock: newFakeClock()})
	s.Close()
	s.Close() // idempotent
	if err := s.Append(submitRec(1)); err == nil {
		t.Fatal("Append on closed store succeeded")
	}
	if err := s.PutResult("aa.bb", []byte(`1`)); err == nil {
		t.Fatal("PutResult on closed store succeeded")
	}
	if _, ok := s.GetResult("aa.bb"); ok {
		t.Fatal("GetResult on closed store succeeded")
	}
}

func TestValidKey(t *testing.T) {
	good := []string{"deadbeef.0011223344556677", "A-b_c.9", "x"}
	for _, k := range good {
		if !validKey(k) {
			t.Errorf("validKey(%q) = false, want true", k)
		}
	}
	bad := []string{"", ".hidden", "a/b", "a\\b", "..", "a b", string(make([]byte, 301))}
	for _, k := range bad {
		if validKey(k) {
			t.Errorf("validKey(%q) = true, want false", k)
		}
	}
}

func TestFileStoreForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Clock: newFakeClock()})
	if err := s.Append(submitRec(1)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	foreign := filepath.Join(dir, "journal", "README.txt")
	if err := os.WriteFile(foreign, []byte("not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, Options{Clock: newFakeClock()})
	if recs, rep := s2.Replay(); len(recs) != 1 || len(rep.Torn) != 0 {
		t.Fatalf("foreign file disturbed replay: %d records, %+v", len(recs), rep)
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Fatalf("foreign file was removed: %v", err)
	}
}
