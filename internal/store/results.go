package store

// The results log: persisted results as frames appended to numbered
// segments under <dir>/results, indexed in memory by request key. A
// put is one write and one fsync of an already-open file; a lookup is
// one read at a known offset. Bodies stay on disk, so memory grows with
// the number of keys, not with the size of their results.

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

const (
	resPrefix = "res-"
	resSuffix = ".log"
)

func resName(idx int) string { return fmt.Sprintf("%s%08d%s", resPrefix, idx, resSuffix) }

// A result frame's payload is the 2-byte little-endian key length, the
// key, the 8-byte little-endian unix stamp of the put, and the raw
// result bytes, which run to the end of the payload.
const resultFixed = 2 + 8

// maxKeyBytes bounds a key (validKey admits no longer one).
const maxKeyBytes = 300

// resultsLog is the results half of a FileStore. Every field is
// guarded by FileStore.rmu. The invariant liveBytes+deadBytes == the
// sum of the segment sizes holds between calls.
type resultsLog struct {
	dir string
	// segs are the segments on disk, ascending; each stays open for
	// lookups. Puts append to active, the last one, or open a new one.
	segs   []*resultSeg
	active *resultSeg
	next   int // index of the next segment to create
	// unsynced reports frames written to active that no fsync covers.
	unsynced bool

	index                         map[string]resultLoc
	liveBytes, deadBytes          int64
	stored, hits, misses, expired int64
}

// resultSeg is one results-log segment and the file it stays open as;
// size is its length, which for the active segment is the end of its
// valid frames, where the next put writes.
type resultSeg struct {
	idx  int
	f    *os.File
	size int64
}

// resultLoc is where the latest frame of a key lives: its segment,
// offset and whole frame size, and the frame's put stamp for the TTL.
type resultLoc struct {
	seg       *resultSeg
	off, size int64
	unix      int64
}

// put indexes the latest frame of key; the frame it replaces is dead.
func (r *resultsLog) put(key string, loc resultLoc) {
	if old, ok := r.index[key]; ok {
		r.liveBytes -= old.size
		r.deadBytes += old.size
	}
	r.index[key] = loc
	r.liveBytes += loc.size
}

// evict drops key from the index; its frame is dead.
func (r *resultsLog) evict(key string, loc resultLoc) {
	delete(r.index, key)
	r.liveBytes -= loc.size
	r.deadBytes += loc.size
}

// close releases every segment file.
func (r *resultsLog) close() {
	for _, seg := range r.segs {
		seg.f.Close()
	}
}

// encodeResult frames one result: header, key, stamp and body written
// once into one buffer.
func encodeResult(key string, unix int64, result []byte) ([]byte, error) {
	n := resultFixed + len(key) + len(result)
	if n > maxRecordBytes {
		return nil, fmt.Errorf("store: result of %d bytes exceeds the %d byte frame cap", n, maxRecordBytes)
	}
	frame := make([]byte, frameHeader+n)
	p := frame[frameHeader:]
	binary.LittleEndian.PutUint16(p, uint16(len(key)))
	copy(p[2:], key)
	binary.LittleEndian.PutUint64(p[2+len(key):], uint64(unix))
	copy(p[resultFixed+len(key):], result)
	putFrameHeader(frame)
	return frame, nil
}

// splitResult reads the key and stamp off the head of a result payload
// whose total length is size; head holds at least its first
// resultFixed+maxKeyBytes bytes, or all of them. ok is false when the
// payload is not a result: too short, an invalid key, or no body.
func splitResult(head []byte, size int64) (key []byte, unix int64, ok bool) {
	if len(head) < 2 {
		return nil, 0, false
	}
	kl := int(binary.LittleEndian.Uint16(head))
	if kl > maxKeyBytes || int64(resultFixed+kl) >= size || len(head) < resultFixed+kl {
		return nil, 0, false
	}
	key = head[2 : 2+kl]
	if !validKey(string(key)) {
		return nil, 0, false
	}
	return key, int64(binary.LittleEndian.Uint64(head[2+kl:])), true
}

// read returns the body of the frame at l if it still checks out: the
// frame's length and CRC, and its key.
func (l resultLoc) read(key string) ([]byte, bool) {
	frame := make([]byte, l.size)
	if _, err := l.seg.f.ReadAt(frame, l.off); err != nil {
		return nil, false
	}
	size, bad := frameSize(frame)
	if bad != "" || frameHeader+size != l.size || frameCRC(frame, frame[frameHeader:]) != "" {
		return nil, false
	}
	k, _, ok := splitResult(frame[frameHeader:], size)
	if !ok || string(k) != key {
		return nil, false
	}
	return frame[frameHeader+resultFixed+len(k):], true
}

// openResults indexes the results log: every segment in order, each
// to its longest valid frame prefix, a later frame of a key replacing
// an earlier one. A torn tail on the last segment is truncated away,
// and puts continue there; damage in an earlier segment is reported
// and its suffix left as dead bytes for the next sweep. Keys are
// idempotent (one key, one deterministic result), so frames after such
// damage can never reorder anything and stay indexed. Result files of
// the one-file-per-key layout that predates the log are imported.
func (s *FileStore) openResults() error {
	r := &s.results
	r.dir, r.next, r.index = s.resultsDir(), 1, make(map[string]resultLoc)
	names, err := sortedNames(r.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var logs []int
	var legacy []string
	for _, name := range names {
		var idx int
		switch {
		case strings.HasSuffix(name, ".tmp"):
			os.Remove(filepath.Join(r.dir, name)) // a sweep (or a legacy put) that never renamed
		case strings.HasSuffix(name, ".json"):
			legacy = append(legacy, name)
		case parseName(name, resPrefix, resSuffix, &idx):
			logs = append(logs, idx)
			r.next = idx + 1
		}
	}
	for i, idx := range logs {
		if err := s.scanSegment(idx, i == len(logs)-1); err != nil {
			return err
		}
	}
	if n := len(r.segs); n > 0 {
		r.active = r.segs[n-1]
	}
	return s.importLegacy(legacy)
}

// scanSegment opens and indexes one results-log segment for
// openResults.
func (s *FileStore) scanSegment(idx int, last bool) error {
	r := &s.results
	name := resName(idx)
	f, err := os.OpenFile(filepath.Join(r.dir, name), os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("store: opening %s: %w", name, err)
	}
	seg := &resultSeg{idx: idx, f: f}
	r.segs = append(r.segs, seg)
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("store: reading %s: %w", name, err)
	}
	consumed, reason, err := scanResults(f, func(key []byte, unix, off, size int64) {
		r.put(string(key), resultLoc{seg: seg, off: off, size: size, unix: unix})
	})
	if err != nil {
		return fmt.Errorf("store: reading %s: %w", name, err)
	}
	seg.size = fi.Size()
	if reason == "" {
		return nil
	}
	s.report.Torn = append(s.report.Torn, TornTail{
		Segment: name,
		Offset:  consumed,
		Dropped: seg.size - consumed,
		Reason:  reason,
	})
	if !last {
		r.deadBytes += seg.size - consumed
		return nil
	}
	if err := f.Truncate(consumed); err != nil {
		return fmt.Errorf("store: truncating torn tail of %s: %w", name, err)
	}
	seg.size = consumed
	return nil
}

// importLegacy moves results/<key>.json files, the one-file-per-key
// layout that predates the log, into it with their original stamps,
// then removes them. A key the log already holds is not imported
// again, so a crash before the removals only repeats them on the next
// Open. Files that are not results are left alone.
func (s *FileStore) importLegacy(names []string) error {
	r := &s.results
	var imported []string
	for _, name := range names {
		path := filepath.Join(r.dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		var legacy struct {
			Key    string          `json:"key"`
			Unix   int64           `json:"unix"`
			Result json.RawMessage `json:"result"`
		}
		if json.Unmarshal(data, &legacy) != nil || legacy.Key+".json" != name || !validKey(legacy.Key) || len(legacy.Result) == 0 {
			continue
		}
		if _, ok := r.index[legacy.Key]; !ok {
			frame, err := encodeResult(legacy.Key, legacy.Unix, legacy.Result)
			if err != nil {
				continue
			}
			loc, err := s.appendResultLocked(frame, legacy.Unix)
			if err != nil {
				return err
			}
			r.put(legacy.Key, loc)
		}
		imported = append(imported, path)
	}
	if r.unsynced {
		if err := s.sync(r.active.f); err != nil {
			return fmt.Errorf("store: syncing imported results: %w", err)
		}
		r.unsynced = false
	}
	for _, path := range imported {
		os.Remove(path)
	}
	return nil
}

// appendResultLocked writes one frame at the end of the active
// segment, first opening a new segment when there is none or the frame
// would take it past the size bound, and returns where the frame went.
// The frame is not durable yet and not indexed. Callers hold s.rmu (or
// run inside Open).
func (s *FileStore) appendResultLocked(frame []byte, unix int64) (resultLoc, error) {
	r := &s.results
	if a := r.active; a != nil && a.size > 0 && a.size+int64(len(frame)) > s.opts.SegmentBytes {
		if r.unsynced {
			if err := s.sync(a.f); err != nil {
				return resultLoc{}, fmt.Errorf("store: syncing results segment: %w", err)
			}
			r.unsynced = false
		}
		r.active = nil
	}
	if r.active == nil {
		path := filepath.Join(r.dir, resName(r.next))
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
		if err != nil {
			return resultLoc{}, fmt.Errorf("store: opening results segment: %w", err)
		}
		// The new name must be durable before any result in it is.
		if err := s.syncDir(r.dir); err != nil {
			f.Close()
			os.Remove(path)
			return resultLoc{}, fmt.Errorf("store: syncing results directory: %w", err)
		}
		r.active = &resultSeg{idx: r.next, f: f}
		r.segs = append(r.segs, r.active)
		r.next++
	}
	a := r.active
	if _, err := a.f.WriteAt(frame, a.size); err != nil {
		return resultLoc{}, fmt.Errorf("store: appending result: %w", err)
	}
	loc := resultLoc{seg: a, off: a.size, size: int64(len(frame)), unix: unix}
	a.size += loc.size
	r.unsynced = true
	return loc, nil
}

// PutResult persists the canonical result bytes for a request key: one
// frame appended to the results log and fsynced before it returns, so
// a result is durable before the finish record that names it. The
// frame is indexed only once it is durable, so no lookup can serve a
// result a crash could still take back.
func (s *FileStore) PutResult(key string, result []byte) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid result key %q", key)
	}
	unix := s.opts.Clock.Now().Unix()
	frame, err := encodeResult(key, unix, result)
	if err != nil {
		return err
	}
	s.rmu.Lock()
	defer s.rmu.Unlock()
	if s.closed.Load() {
		return fmt.Errorf("store: put on closed store")
	}
	r := &s.results
	loc, err := s.appendResultLocked(frame, unix)
	if err != nil {
		return err
	}
	if err := s.sync(loc.seg.f); err != nil {
		r.deadBytes += loc.size
		return fmt.Errorf("store: syncing result: %w", err)
	}
	r.unsynced = false
	r.put(key, loc)
	r.stored++
	return nil
}

// GetResult returns the unexpired result bytes for a key. Expired
// entries are evicted on the way out; a frame that no longer checks out
// is evicted too. Both are misses, never errors: the caller recomputes
// and puts again.
func (s *FileStore) GetResult(key string) ([]byte, bool) {
	s.rmu.Lock()
	defer s.rmu.Unlock()
	r := &s.results
	loc, ok := r.index[key]
	if s.closed.Load() || !ok {
		r.misses++
		return nil, false
	}
	if s.expired(loc.unix) {
		r.evict(key, loc)
		r.expired++
		r.misses++
		return nil, false
	}
	body, ok := loc.read(key)
	if !ok {
		r.evict(key, loc)
		r.misses++
		return nil, false
	}
	r.hits++
	return body, true
}

// expired applies the TTL to a stored-at timestamp.
func (s *FileStore) expired(unix int64) bool {
	if s.opts.ResultTTL <= 0 {
		return false
	}
	return s.opts.Clock.Now().Sub(time.Unix(unix, 0)) > s.opts.ResultTTL
}

// sweepResults evicts every expired result and, once the bytes no
// lookup can reach exceed the live ones, rewrites the log down to its
// live frames, so its footprint is bounded by the TTL and the live
// results even for keys never looked up again. Runs after each journal
// compaction.
func (s *FileStore) sweepResults() error {
	s.rmu.Lock()
	defer s.rmu.Unlock()
	if s.closed.Load() {
		return nil
	}
	r := &s.results
	for key, loc := range r.index {
		if s.expired(loc.unix) {
			r.evict(key, loc)
			r.expired++
		}
	}
	if r.deadBytes <= r.liveBytes {
		return nil
	}
	return s.rewriteResultsLocked()
}

// rewriteResultsLocked copies the live frames, byte for byte and in log
// order, into a new segment C: write res-C.log.tmp, fsync, rename,
// fsync the directory, and only then delete the old segments. C is
// numbered above every old segment, so a crash after the rename and
// before the deletions indexes C's frames over the old ones: the same
// index. Puts continue in C. Callers hold s.rmu.
func (s *FileStore) rewriteResultsLocked() error {
	r := &s.results
	keys := make([]string, 0, len(r.index))
	for key := range r.index {
		keys = append(keys, key)
	}
	slices.SortFunc(keys, func(a, b string) int {
		la, lb := r.index[a], r.index[b]
		return cmp.Or(cmp.Compare(la.seg.idx, lb.seg.idx), cmp.Compare(la.off, lb.off))
	})
	seg := &resultSeg{idx: r.next}
	r.next++
	path := filepath.Join(r.dir, resName(seg.idx))
	f, err := os.OpenFile(path+".tmp", os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: rewriting results log: %w", err)
	}
	seg.f = f
	locs := make([]resultLoc, len(keys))
	err = func() error {
		w := bufio.NewWriterSize(f, 64<<10)
		for i, key := range keys {
			old := r.index[key]
			if _, err := io.Copy(w, io.NewSectionReader(old.seg.f, old.off, old.size)); err != nil {
				return err
			}
			locs[i] = resultLoc{seg: seg, off: seg.size, size: old.size, unix: old.unix}
			seg.size += old.size
		}
		if err := w.Flush(); err != nil {
			return err
		}
		if err := s.sync(f); err != nil {
			return err
		}
		if err := os.Rename(path+".tmp", path); err != nil {
			return err
		}
		if err := s.syncDir(r.dir); err != nil {
			// Without a durable rename the old segments must stay the
			// log, so C must not outlive this call.
			os.Remove(path)
			return err
		}
		return nil
	}()
	if err != nil {
		f.Close()
		os.Remove(path + ".tmp")
		return fmt.Errorf("store: rewriting results log: %w", err)
	}
	for _, old := range r.segs {
		old.f.Close()
		os.Remove(filepath.Join(r.dir, resName(old.idx)))
	}
	for i, key := range keys {
		r.index[key] = locs[i]
	}
	r.segs, r.active, r.unsynced = []*resultSeg{seg}, seg, false
	r.liveBytes, r.deadBytes = seg.size, 0
	return nil
}

// scanResults reads result frames from r until the first invalid one,
// the journal's longest-valid-prefix rule, and calls visit for each
// valid frame with its offset and whole size. It returns the bytes the
// valid frames span and, when it stopped before the end, why. Only a
// failed read (not a short one) is an error. Bodies are checksummed as
// they stream past, never held: memory stays at one frame head. The
// FuzzResultsLog target pins that it never panics and that its prefix
// is self-consistent.
func scanResults(r io.Reader, visit func(key []byte, unix, off, size int64)) (consumed int64, reason string, err error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var hdr [frameHeader]byte
	var head [resultFixed + maxKeyBytes]byte
	sum := crc32.New(castagnoli)
	for {
		n, err := io.ReadFull(br, hdr[:])
		switch {
		case err == io.EOF:
			return consumed, "", nil
		case err == io.ErrUnexpectedEOF:
			return consumed, fmt.Sprintf("torn frame header: %d trailing bytes", n), nil
		case err != nil:
			return consumed, "", err
		}
		size, bad := frameSize(hdr[:])
		if bad != "" {
			return consumed, bad, nil
		}
		h := head[:min(size, int64(len(head)))]
		sum.Reset()
		got, err := io.ReadFull(br, h)
		if err == nil {
			sum.Write(h)
			var rest int64
			rest, err = io.CopyN(sum, br, size-int64(len(h)))
			got += int(rest)
		}
		switch {
		case err == io.EOF || err == io.ErrUnexpectedEOF:
			return consumed, fmt.Sprintf("torn frame payload: %d of %d bytes", got, size), nil
		case err != nil:
			return consumed, "", err
		}
		if crc, want := sum.Sum32(), binary.LittleEndian.Uint32(hdr[4:8]); crc != want {
			return consumed, fmt.Sprintf("CRC mismatch: %08x != %08x", crc, want), nil
		}
		key, unix, ok := splitResult(h, size)
		if !ok {
			return consumed, "frame payload is not a result", nil
		}
		visit(key, unix, consumed, frameHeader+size)
		consumed += frameHeader + size
	}
}
