package store

// The results log: persisted results as frames appended to numbered
// segments under <dir>/results, indexed in memory by request key. A
// put is one write and one fsync of an already-open file; a lookup is
// one read at a known offset. Bodies stay on disk, so memory grows with
// the number of keys, not with the size of their results.

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"slices"
	"time"
)

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
	// log's segments stay open for lookups.
	log segLog

	index                         map[string]resultLoc
	liveBytes, deadBytes          int64
	stored, hits, misses, expired int64
}

// resultLoc is where the latest frame of a key lives: its segment,
// offset and whole frame size, and the frame's put stamp for the TTL.
type resultLoc struct {
	seg       *segment
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
// resultFixed+maxKeyBytes bytes, or all of them. The reason is
// non-empty when the payload is not a result: too short, an invalid
// key, or no body.
func splitResult(head []byte, size int64) (key []byte, unix int64, reason string) {
	const notResult = "frame payload is not a result"
	if len(head) < 2 {
		return nil, 0, notResult
	}
	kl := int(binary.LittleEndian.Uint16(head))
	if kl > maxKeyBytes || int64(resultFixed+kl) >= size || len(head) < resultFixed+kl {
		return nil, 0, notResult
	}
	key = head[2 : 2+kl]
	if !validKey(string(key)) {
		return nil, 0, notResult
	}
	return key, int64(binary.LittleEndian.Uint64(head[2+kl:])), ""
}

// read returns the body of the frame at l if it still checks out: the
// frame's length and CRC, and its key.
func (l resultLoc) read(key string) ([]byte, bool) {
	frame := make([]byte, l.size)
	if _, err := l.seg.f.ReadAt(frame, l.off); err != nil {
		return nil, false
	}
	size, bad := frameSize(frame)
	if bad != "" || frameHeader+size != l.size || crc32.Checksum(frame[frameHeader:], castagnoli) != binary.LittleEndian.Uint32(frame[4:8]) {
		return nil, false
	}
	k, _, bad := splitResult(frame[frameHeader:], size)
	if bad != "" || string(k) != key {
		return nil, false
	}
	return frame[frameHeader+resultFixed+len(k):], true
}

// openResults indexes the results log under dir: the frames of its
// longest valid prefix in log order, a later frame of a key replacing
// an earlier one. Puts continue after the last valid frame.
func (s *FileStore) openResults(dir string) error {
	r := &s.results
	r.index = make(map[string]resultLoc)
	r.log = segLog{dir: filepath.Join(dir, "results"), prefix: resPrefix, suffix: resSuffix, max: s.opts.SegmentBytes, fsyncs: &s.fsyncs}
	return r.log.open(resultFixed+maxKeyBytes, func(seg *segment, head []byte, off, size int64) string {
		key, unix, bad := splitResult(head, size-frameHeader)
		if bad == "" {
			r.put(string(key), resultLoc{seg: seg, off: off, size: size, unix: unix})
		}
		return bad
	}, &s.report)
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
	r := &s.results
	seg, off, err := r.log.append(frame, true)
	if err != nil {
		return fmt.Errorf("store: appending result: %w", err)
	}
	r.put(key, resultLoc{seg: seg, off: off, size: int64(len(frame)), unix: unix})
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
	if r.log.closed || !ok {
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
	r := &s.results
	if r.log.closed {
		return nil
	}
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
// order, into a new segment C installed over the old ones (segLog's
// writeTmp and install). C is numbered above every old segment, so a
// crash after its rename and before the deletions indexes C's frames
// over the old ones: the same index. Puts continue in C. Callers hold
// s.rmu.
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
	locs := make([]resultLoc, len(keys))
	seg, err := r.log.writeTmp(r.log.reserve(), func(w io.Writer) error {
		var off int64
		for i, key := range keys {
			old := r.index[key]
			if _, err := io.Copy(w, io.NewSectionReader(old.seg.f, old.off, old.size)); err != nil {
				return err
			}
			locs[i] = resultLoc{off: off, size: old.size, unix: old.unix}
			off += old.size
		}
		return nil
	})
	if err == nil {
		err = r.log.install(seg)
	}
	if err != nil {
		return fmt.Errorf("store: rewriting results log: %w", err)
	}
	for i, key := range keys {
		locs[i].seg = seg
		r.index[key] = locs[i]
	}
	r.liveBytes, r.deadBytes = seg.size, 0
	return nil
}
