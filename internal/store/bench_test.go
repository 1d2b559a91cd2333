package store

import (
	"fmt"
	"testing"
)

// BenchmarkJournalAppend measures the durable append path (frame,
// write, fsync) — the per-transition overhead a store adds to every
// job state change.
func BenchmarkJournalAppend(b *testing.B) {
	s, err := Open(b.TempDir(), Options{Clock: newFakeClock()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	rec := submitRec(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Job = fmt.Sprintf("j%06d-deadbeef", i)
		if err := s.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := s.Stats(); st.AppendBytes > 0 {
		b.ReportMetric(float64(st.AppendBytes)/float64(b.N), "bytes/record")
	}
}

// BenchmarkJournalReplay measures cold-start recovery of a 1000-record
// journal — the startup latency a crash-restarted service pays before
// it can accept traffic.
func BenchmarkJournalReplay(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, Options{Clock: newFakeClock()})
	if err != nil {
		b.Fatal(err)
	}
	const records = 1000
	for i := 0; i < records; i++ {
		rec := submitRec(i)
		if err := s.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir, Options{Clock: newFakeClock()})
		if err != nil {
			b.Fatal(err)
		}
		recs, _ := s.Replay()
		if len(recs) != records {
			b.Fatalf("replayed %d records, want %d", len(recs), records)
		}
		Reduce(recs)
		s.Close()
	}
}

// benchResult is a realistic config+analysis payload.
func benchResult() []byte {
	result := make([]byte, 8<<10)
	for i := range result {
		result[i] = byte('a' + i%16)
	}
	result[0], result[len(result)-1] = '"', '"'
	return result
}

// BenchmarkPutResult measures a durable result put (frame, write and
// fsync of the open results-log segment) — the cost a fresh job's
// result adds before its finish record.
func BenchmarkPutResult(b *testing.B) {
	s, err := Open(b.TempDir(), Options{Clock: newFakeClock()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	result := benchResult()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.PutResult(fmt.Sprintf("deadbeef.%016x", i), result); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(s.Stats().Fsyncs)/float64(b.N), "fsyncs/op")
}

// BenchmarkGetResult measures a persistent result-store hit — the
// latency of serving a finished job's result from disk instead of
// recomputing it.
func BenchmarkGetResult(b *testing.B) {
	s, err := Open(b.TempDir(), Options{Clock: newFakeClock()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	key := "deadbeef.0011223344556677"
	if err := s.PutResult(key, benchResult()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.GetResult(key); !ok {
			b.Fatal("persistent miss on a stored key")
		}
	}
}
