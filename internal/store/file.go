package store

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
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
// results.go). A durable job costs one fsync per acknowledged journal
// record and one per result, all on files that are already open: the
// only files ever created are new segments. It assumes a single writing
// process (the service); recovery happens once, in Open.
//
// The journal and the results log have locks of their own, so a
// result's write and fsync never hold up a journal append.
type FileStore struct {
	dir  string
	opts Options

	// closed is set by Close under both mu and rmu, so holding either
	// orders a read against it.
	closed atomic.Bool
	fsyncs atomic.Int64

	mu         sync.Mutex
	compacting bool
	active     *os.File
	activeIdx  int
	activeSize int64
	// unsynced reports frames on the active segment that no fsync
	// covers yet (OpStart records); sealing the segment syncs them.
	unsynced bool
	nextIdx  int
	segs     []segInfo // every on-disk segment, ascending index

	recs   []Record
	report ReplayReport

	appends, appendBytes int64
	compactions          int64

	rmu     sync.Mutex
	results resultsLog
}

type segInfo struct {
	idx  int
	size int64
}

const (
	segPrefix = "seg-"
	segSuffix = ".wal"
)

func segName(idx int) string { return fmt.Sprintf("%s%08d%s", segPrefix, idx, segSuffix) }

// parseName reads the index out of a segment file name, prefix + eight
// digits + suffix; false for any other name.
func parseName(name, prefix, suffix string, idx *int) bool {
	_, err := fmt.Sscanf(name, prefix+"%d"+suffix, idx)
	return err == nil && fmt.Sprintf("%s%08d%s", prefix, *idx, suffix) == name
}

// Open recovers the journal under dir (creating the layout on first
// use): segments are replayed in order, the longest valid record
// prefix is kept, a torn tail on the final segment is truncated away,
// and corruption in an earlier segment stops replay there (later
// segments are reported dropped and reclaimed by the next compaction).
// Appends always start a fresh segment, so recovery never writes after
// damage. Open then indexes the results log (see openResults).
func Open(dir string, opts Options) (*FileStore, error) {
	opts.normalize()
	s := &FileStore{dir: dir, opts: opts, nextIdx: 1}
	for _, sub := range []string{s.journalDir(), s.resultsDir()} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	names, err := sortedNames(s.journalDir())
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	damaged := false
	for _, name := range names {
		path := filepath.Join(s.journalDir(), name)
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(path) // leftover of a compaction that never renamed
			continue
		}
		var idx int
		if !parseName(name, segPrefix, segSuffix, &idx) {
			continue // foreign file; leave it alone
		}
		if idx >= s.nextIdx {
			s.nextIdx = idx + 1
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("store: reading %s: %w", name, err)
		}
		if damaged {
			// An earlier segment lost records; replaying later segments
			// would reorder history. Keep the file for post-mortem until
			// compaction reclaims it.
			s.segs = append(s.segs, segInfo{idx: idx, size: int64(len(data))})
			s.report.SegmentsDropped++
			continue
		}
		recs, consumed, reason := decodeFrames(data)
		s.recs = append(s.recs, recs...)
		s.report.Segments++
		s.report.Records += len(recs)
		s.report.Bytes += consumed
		size := int64(len(data))
		if reason != "" {
			s.report.Torn = append(s.report.Torn, TornTail{
				Segment: name,
				Offset:  consumed,
				Dropped: size - consumed,
				Reason:  reason,
			})
			// Truncate the invalid suffix so the on-disk journal is
			// exactly the replayed prefix. Later segments (if any) hold
			// records written after the lost ones and are dropped above.
			if err := os.Truncate(path, consumed); err != nil {
				return nil, fmt.Errorf("store: truncating torn tail of %s: %w", name, err)
			}
			size = consumed
			damaged = true
		}
		s.segs = append(s.segs, segInfo{idx: idx, size: size})
	}
	if err := s.openResults(); err != nil {
		s.results.close()
		return nil, err
	}
	return s, nil
}

func (s *FileStore) journalDir() string { return filepath.Join(s.dir, "journal") }
func (s *FileStore) resultsDir() string { return filepath.Join(s.dir, "results") }

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

// Append durably appends one record: frame, write, fsync, then rotate
// the segment if it reached the size bound. An error means the record
// must be treated as unwritten.
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
	if s.closed.Load() {
		return fmt.Errorf("store: append on closed store")
	}
	if s.active != nil && s.activeSize > 0 && s.activeSize+int64(len(frame)) > s.opts.SegmentBytes {
		s.sealActiveLocked()
	}
	if s.active == nil {
		f, err := os.OpenFile(filepath.Join(s.journalDir(), segName(s.nextIdx)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err != nil {
			return fmt.Errorf("store: opening segment: %w", err)
		}
		// The new name must be durable before any record in it is
		// acknowledged.
		if err := s.syncDir(s.journalDir()); err != nil {
			f.Close()
			os.Remove(f.Name())
			return fmt.Errorf("store: syncing journal directory: %w", err)
		}
		s.active = f
		s.activeIdx = s.nextIdx
		s.activeSize = 0
		s.nextIdx++
		s.segs = append(s.segs, segInfo{idx: s.activeIdx})
	}
	if _, err := s.active.Write(frame); err != nil {
		return fmt.Errorf("store: appending record: %w", err)
	}
	if rec.Op == OpStart {
		s.unsynced = true
	} else {
		if err := s.sync(s.active); err != nil {
			return fmt.Errorf("store: syncing journal: %w", err)
		}
		s.unsynced = false
	}
	s.activeSize += int64(len(frame))
	for i := range s.segs {
		if s.segs[i].idx == s.activeIdx {
			s.segs[i].size = s.activeSize
		}
	}
	s.appends++
	s.appendBytes += int64(len(frame))
	return nil
}

// sealActiveLocked syncs any unsynced tail and closes the active
// segment; the next append opens a fresh one. A failed sync can lose
// only OpStart records, which replay does not need. Callers hold s.mu.
func (s *FileStore) sealActiveLocked() {
	if s.active != nil {
		if s.unsynced {
			s.sync(s.active)
			s.unsynced = false
		}
		s.active.Close()
		s.active = nil
		s.activeSize = 0
	}
}

// Compact rewrites the journal down to the live records, two-phase so
// concurrent appends are never lost:
//
//  1. Under the lock: seal the active segment and reserve index C for
//     the compacted segment. Appends from here on go to segments > C.
//  2. Outside the lock: snapshot() collects the live records — it may
//     take service locks, and appends may interleave freely.
//  3. Write the live records to seg-C.tmp and fsync it; then, under
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
	if s.closed.Load() || s.compacting {
		s.mu.Unlock()
		return nil
	}
	s.compacting = true
	s.sealActiveLocked()
	compactIdx := s.nextIdx
	s.nextIdx++
	s.mu.Unlock()

	finish := func(err error) error {
		s.mu.Lock()
		s.compacting = false
		s.mu.Unlock()
		return err
	}

	var buf []byte
	var err error
	for _, rec := range snapshot() {
		if buf, err = encodeFrame(buf, rec); err != nil {
			return finish(err)
		}
	}

	name := segName(compactIdx)
	tmp := filepath.Join(s.journalDir(), name+".tmp")
	if err := s.writeFileSync(tmp, buf); err != nil {
		return finish(fmt.Errorf("store: writing compacted segment: %w", err))
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.compacting = false
	if s.closed.Load() {
		os.Remove(tmp)
		return fmt.Errorf("store: compact on closed store")
	}
	if err := os.Rename(tmp, filepath.Join(s.journalDir(), name)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: installing compacted segment: %w", err)
	}
	if err := s.syncDir(s.journalDir()); err != nil {
		// Keep the sealed segments: replay folds their records and the
		// compacted copies back to the same state, and the next
		// compaction reclaims them and C.
		s.segs = append(s.segs, segInfo{idx: compactIdx, size: int64(len(buf))})
		slices.SortFunc(s.segs, func(a, b segInfo) int { return cmp.Compare(a.idx, b.idx) })
		return fmt.Errorf("store: syncing journal directory: %w", err)
	}
	live := []segInfo{{idx: compactIdx, size: int64(len(buf))}}
	for _, seg := range s.segs {
		if seg.idx > compactIdx { // appended while snapshotting
			live = append(live, seg)
			continue
		}
		os.Remove(filepath.Join(s.journalDir(), segName(seg.idx)))
	}
	s.segs = live
	s.compactions++
	return nil
}

// Stats snapshots the durability counters.
func (s *FileStore) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Segments:        len(s.segs),
		Appends:         s.appends,
		AppendBytes:     s.appendBytes,
		ReplayedRecords: s.report.Records,
		TornTails:       len(s.report.Torn),
		SegmentsDropped: s.report.SegmentsDropped,
		Compactions:     s.compactions,
	}
	for _, seg := range s.segs {
		st.JournalBytes += seg.size
	}
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
	defer s.mu.Unlock()
	s.rmu.Lock()
	defer s.rmu.Unlock()
	s.sealActiveLocked()
	s.closed.Store(true)
	s.results.close()
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

// writeFileSync writes data and fsyncs before closing, so a following
// rename installs fully-durable content.
func (s *FileStore) writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := s.sync(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sync fsyncs f and counts it.
func (s *FileStore) sync(f *os.File) error {
	s.fsyncs.Add(1)
	return f.Sync()
}

// syncDir fsyncs a directory, making the names created, renamed or
// removed in it durable.
func (s *FileStore) syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = s.sync(d)
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// sortedNames lists a directory deterministically.
func sortedNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.Type().IsRegular() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}
