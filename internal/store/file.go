package store

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Options tunes a FileStore. Zero values select the defaults.
type Options struct {
	// SegmentBytes rotates the active journal segment, and the active
	// results-log segment, once it reaches this size (default 4 MiB;
	// floor 4 KiB). Smaller segments compact more often; the value
	// never affects replayed state.
	SegmentBytes int64
	// ResultTTL evicts persisted results older than this on lookup and
	// during compaction sweeps; zero keeps results forever.
	ResultTTL time.Duration
	// Clock supplies record timestamps and TTL decisions (default
	// SystemClock).
	Clock Clock
}

func (o *Options) normalize() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.SegmentBytes < 4<<10 {
		o.SegmentBytes = 4 << 10
	}
	if o.ResultTTL < 0 {
		o.ResultTTL = 0
	}
	if o.Clock == nil {
		o.Clock = SystemClock()
	}
}

// FileStore is the pure-Go, file-backed Store: journal segments under
// <dir>/journal and the results log, append-only segments of framed
// results indexed in memory by request key, under <dir>/results (see
// results.go). Both are segment logs (segments.go). A durable job costs
// one fsync per acknowledged journal record and one per result, all on
// files that are already open: the only files ever created are new
// segments. It assumes a single writing process (the service); recovery
// happens once, in Open.
//
// The journal and the results log have locks of their own, so a
// result's write and fsync never hold up a journal append.
type FileStore struct {
	opts   Options
	fsyncs atomic.Int64

	mu         sync.Mutex
	journal    segLog
	compacting bool

	recs   []Record
	report ReplayReport

	appends, appendBytes int64
	compactions          int64

	rmu     sync.Mutex
	results resultsLog
}

// Open recovers the store under dir, creating the layout on first use.
// Each log keeps the longest valid prefix of its segments (see
// segLog.open): the journal's records are replayed in order, the
// results log's frames indexed, a later frame of a key replacing an
// earlier one.
func Open(dir string, opts Options) (*FileStore, error) {
	opts.normalize()
	s := &FileStore{opts: opts}
	s.journal = segLog{dir: filepath.Join(dir, "journal"), prefix: segPrefix, suffix: segSuffix, max: opts.SegmentBytes, fsyncs: &s.fsyncs}
	err := s.journal.open(maxRecordBytes, func(_ *segment, payload []byte, _, _ int64) string {
		rec, bad := decodeRecord(payload)
		if bad == "" {
			s.recs = append(s.recs, rec)
		}
		return bad
	}, &s.report)
	if err != nil {
		return nil, err
	}
	s.report.Segments = len(s.journal.segs)
	s.report.Records = len(s.recs)
	s.report.Bytes = s.journal.bytes()
	if err := s.openResults(dir); err != nil {
		s.journal.close()
		return nil, err
	}
	return s, nil
}

// Replay returns the records recovered by Open, in append order.
func (s *FileStore) Replay() ([]Record, ReplayReport) {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := make([]Record, len(s.recs))
	copy(recs, s.recs)
	rep := s.report
	rep.Torn = append([]TornTail(nil), s.report.Torn...)
	return recs, rep
}

// Append durably appends one record: frame, write at the end of the
// journal, fsync; the journal rotates its segment at the size bound. An
// error means the record must be treated as unwritten.
//
// An OpStart record is written without its own fsync: replay treats a
// started job exactly like a queued one, so losing the record costs
// nothing, and the next durable append (or sealing the segment) covers
// it anyway.
func (s *FileStore) Append(rec Record) error {
	frame, err := encodeFrame(nil, rec)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, _, err := s.journal.append(frame, rec.Op != OpStart); err != nil {
		return fmt.Errorf("store: appending record: %w", err)
	}
	s.appends++
	s.appendBytes += int64(len(frame))
	return nil
}

// Compact rewrites the journal down to the live records, two-phase so
// concurrent appends are never lost:
//
//  1. Under the lock: seal the active segment and reserve index C for
//     the compacted segment. Appends from here on go to segments > C.
//  2. Outside the lock: snapshot() collects the live records — it may
//     take service locks, and appends may interleave freely.
//  3. Write the live records to seg-C.wal.tmp and fsync it; then, under
//     the lock, rename it to seg-C.wal (atomic), fsync the directory so
//     the rename is durable before anything it replaces is gone, and
//     delete the sealed segments (< C).
//  4. Under the results lock: sweep the results log (sweepResults).
//
// Every crash point replays to a superset of the live state: before
// the rename the old segments are intact; after it, stale old records
// are overridden by the compacted copies under Reduce's merge rules;
// records appended during the snapshot live in segments after C either
// way. Concurrent Compact calls coalesce (the second returns nil).
func (s *FileStore) Compact(snapshot func() []Record) error {
	if err := s.compactJournal(snapshot); err != nil {
		return err
	}
	return s.sweepResults()
}

// compactJournal is Compact's journal rewrite, steps 1 to 3.
func (s *FileStore) compactJournal(snapshot func() []Record) error {
	s.mu.Lock()
	if s.journal.closed || s.compacting {
		s.mu.Unlock()
		return nil
	}
	s.compacting = true
	compactIdx := s.journal.reserve()
	s.mu.Unlock()

	var buf []byte
	var err error
	for _, rec := range snapshot() {
		if buf, err = encodeFrame(buf, rec); err != nil {
			break
		}
	}
	var seg *segment
	if err == nil {
		seg, err = s.journal.writeTmp(compactIdx, func(w io.Writer) error {
			_, err := w.Write(buf)
			return err
		})
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.compacting = false
	if err == nil {
		err = s.journal.install(seg)
	}
	if err != nil {
		return fmt.Errorf("store: compacting journal: %w", err)
	}
	s.compactions++
	return nil
}

// Stats snapshots the durability counters.
func (s *FileStore) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Segments:        len(s.journal.segs),
		Appends:         s.appends,
		AppendBytes:     s.appendBytes,
		ReplayedRecords: s.report.Records,
		TornTails:       len(s.report.Torn),
		SegmentsDropped: s.report.SegmentsDropped,
		Compactions:     s.compactions,
	}
	st.JournalBytes = s.journal.bytes()
	s.mu.Unlock()
	s.rmu.Lock()
	r := &s.results
	st.ResultsStored, st.PersistentHits, st.PersistentMisses, st.ResultsExpired = r.stored, r.hits, r.misses, r.expired
	st.ResultsLiveBytes, st.ResultsDeadBytes = r.liveBytes, r.deadBytes
	s.rmu.Unlock()
	st.Fsyncs = s.fsyncs.Load()
	return st
}

// Close seals the journal and closes the results log; further
// mutations fail and lookups miss. Idempotent.
func (s *FileStore) Close() error {
	s.mu.Lock()
	s.journal.close()
	s.mu.Unlock()
	s.rmu.Lock()
	s.results.log.close()
	s.rmu.Unlock()
	return nil
}

// validKey admits fingerprint-derived keys (hex plus the '.' option
// digest separator) and refuses anything that could escape the results
// directory.
func validKey(key string) bool {
	if key == "" || len(key) > maxKeyBytes {
		return false
	}
	for _, r := range key {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '.' || r == '-' || r == '_':
		default:
			return false
		}
	}
	return !strings.HasPrefix(key, ".")
}
