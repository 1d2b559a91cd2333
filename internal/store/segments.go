package store

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
)

const (
	segPrefix = "seg-" // journal segments: journal/seg-NNNNNNNN.wal
	segSuffix = ".wal"
	resPrefix = "res-" // results-log segments: results/res-NNNNNNNN.log
	resSuffix = ".log"
)

var errClosed = errors.New("store is closed")

// segLog is one log's segments: the journal and the results log are
// its two users. It holds no lock; each user serializes its calls with
// a lock of its own, so a result's fsync never holds up a journal
// append. The user sets the fields up to fsyncs before open.
type segLog struct {
	dir, prefix, suffix string
	max                 int64         // rotation bound, Options.SegmentBytes
	fsyncs              *atomic.Int64 // the store's fsync counter

	// segs are the segments on disk, ascending; each stays open until it
	// is deleted or the log is closed. Appends go to active, the last
	// one, or open a new segment when active is nil.
	segs   []*segment
	active *segment
	next   int // index of the next segment to create
	// unsynced reports frames on active that no fsync covers yet;
	// sealing the segment syncs them.
	unsynced bool
	closed   bool
}

// segment is one segment file and the file it stays open as; size is
// the end of its valid frames, where the next append writes.
type segment struct {
	idx  int
	f    *os.File
	size int64
}

func (l *segLog) name(idx int) string { return fmt.Sprintf("%s%08d%s", l.prefix, idx, l.suffix) }
func (l *segLog) path(idx int) string { return filepath.Join(l.dir, l.name(idx)) }

// open opens the log, creating its directory on first use, and
// scans every segment in order with scanFrames, calling visit for each
// valid frame; see scanFrames for keep and visit. It keeps the longest
// valid prefix of the whole log: at the first invalid frame, the later
// segments, whose frames were written after the lost ones, are removed
// and the directory fsynced before the damaged segment is truncated to
// its valid frames, so a crash between the two steps can never leave a
// whole-looking prefix followed by them. The damage goes into rep.
// Leftover .tmp files of a rewrite that never renamed are removed;
// other foreign files are left alone. Appends continue at the end of
// the last segment.
func (l *segLog) open(keep int64, visit func(seg *segment, head []byte, off, size int64) string, rep *ReplayReport) (err error) {
	defer func() {
		if err != nil {
			l.close()
			err = fmt.Errorf("store: recovering %s: %w", l.dir, err)
		}
	}()
	l.next = 1
	if err := os.MkdirAll(l.dir, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(l.dir) // sorted by name, so by index
	if err != nil {
		return err
	}
	var idxs []int
	for _, e := range entries {
		var idx int
		switch name := e.Name(); {
		case !e.Type().IsRegular():
		case strings.HasSuffix(name, ".tmp"):
			os.Remove(filepath.Join(l.dir, name))
		case l.parse(name, &idx):
			idxs = append(idxs, idx)
			l.next = idx + 1
		}
	}
	for i, idx := range idxs {
		f, err := os.OpenFile(l.path(idx), os.O_RDWR, 0)
		if err != nil {
			return err
		}
		seg := &segment{idx: idx, f: f}
		l.segs = append(l.segs, seg)
		consumed, reason, err := scanFrames(f, keep, func(head []byte, off, size int64) string {
			return visit(seg, head, off, size)
		})
		if err != nil {
			return err
		}
		seg.size = consumed
		if reason == "" {
			continue
		}
		fi, err := f.Stat()
		if err != nil {
			return err
		}
		rep.Torn = append(rep.Torn, TornTail{
			Segment: l.name(idx),
			Offset:  consumed,
			Dropped: fi.Size() - consumed,
			Reason:  reason,
		})
		if later := idxs[i+1:]; len(later) > 0 {
			for _, idx := range later {
				if err := os.Remove(l.path(idx)); err != nil {
					return err
				}
			}
			if err := l.syncDir(); err != nil {
				return err
			}
			rep.SegmentsDropped += len(later)
		}
		if err := f.Truncate(consumed); err != nil {
			return err
		}
		break
	}
	if n := len(l.segs); n > 0 {
		l.active = l.segs[n-1]
	}
	return nil
}

// parse reads the index out of a segment file name, prefix + eight
// digits + suffix; false for any other name.
func (l *segLog) parse(name string, idx *int) bool {
	_, err := fmt.Sscanf(name, l.prefix+"%d"+l.suffix, idx)
	return err == nil && l.name(*idx) == name
}

// append writes frame at the end of the active segment, first opening
// a new segment when there is none or the frame would take it past the
// size bound, and fsyncs it when durable; it returns where the frame
// went. The end advances only once the write and fsync succeeded, so a
// frame that failed is overwritten by the next append.
func (l *segLog) append(frame []byte, durable bool) (*segment, int64, error) {
	if l.closed {
		return nil, 0, errClosed
	}
	if a := l.active; a != nil && a.size > 0 && a.size+int64(len(frame)) > l.max {
		l.seal()
	}
	if l.active == nil {
		if err := l.create(); err != nil {
			return nil, 0, err
		}
	}
	a := l.active
	if _, err := a.f.WriteAt(frame, a.size); err != nil {
		return nil, 0, err
	}
	if durable {
		if err := l.sync(a.f); err != nil {
			return nil, 0, err
		}
	}
	l.unsynced = !durable
	off := a.size
	a.size += int64(len(frame))
	return a, off, nil
}

// create opens a new, empty active segment.
func (l *segLog) create() error {
	path := l.path(l.next)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	// The new name must be durable before any frame in it is
	// acknowledged.
	if err := l.syncDir(); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	l.active = &segment{idx: l.next, f: f}
	l.segs = append(l.segs, l.active)
	l.next++
	return nil
}

// seal syncs any unsynced frames and ends the active segment; the next
// append opens a new one. A failed sync can lose only frames appended
// as not durable, which replay does not need.
func (l *segLog) seal() {
	if l.active != nil && l.unsynced {
		l.sync(l.active.f)
	}
	l.active, l.unsynced = nil, false
}

// reserve seals the active segment and numbers a segment C above every
// existing one for a rewrite (writeTmp, then install): appends from
// here on go to segments above C.
func (l *segLog) reserve() int {
	l.seal()
	l.next++
	return l.next - 1
}

// writeTmp writes the content fill produces to segment idx's .tmp file
// and fsyncs it. It reads only the fields fixed before open, so the
// journal runs it outside its lock while appends go on.
func (l *segLog) writeTmp(idx int, fill func(w io.Writer) error) (*segment, error) {
	path := l.path(idx) + ".tmp"
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	seg := &segment{idx: idx, f: f}
	w := bufio.NewWriterSize(f, 64<<10)
	if err = fill(w); err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = l.sync(f)
	}
	if err == nil {
		seg.size, err = f.Seek(0, io.SeekCurrent)
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return seg, nil
}

// install makes a segment C from writeTmp part of the log: rename its
// .tmp file into place, fsync the directory so the rename is durable
// before anything it replaces is gone, and only then close and delete
// every segment below C. Segments above C (appended while C was
// written) stay, and appends continue in the last segment. On any
// error C does not outlive the call and the old segments stay the log.
func (l *segLog) install(c *segment) error {
	path := l.path(c.idx)
	err := errClosed
	if !l.closed {
		err = os.Rename(path+".tmp", path)
	}
	if err == nil {
		if err = l.syncDir(); err != nil {
			os.Remove(path)
		}
	}
	if err != nil {
		c.f.Close()
		os.Remove(path + ".tmp")
		return err
	}
	segs := []*segment{c}
	for _, seg := range l.segs {
		if seg.idx > c.idx {
			segs = append(segs, seg)
			continue
		}
		seg.f.Close()
		os.Remove(l.path(seg.idx))
	}
	l.segs = segs
	l.active = segs[len(segs)-1]
	return nil
}

// bytes sums the segment sizes.
func (l *segLog) bytes() int64 {
	var n int64
	for _, seg := range l.segs {
		n += seg.size
	}
	return n
}

// close seals the log and closes every segment file; appends and
// installs fail from then on. Idempotent.
func (l *segLog) close() {
	if l.closed {
		return
	}
	l.seal()
	for _, seg := range l.segs {
		seg.f.Close()
	}
	l.closed = true
}

// sync fsyncs f and counts it.
func (l *segLog) sync(f *os.File) error {
	l.fsyncs.Add(1)
	return f.Sync()
}

// syncDir fsyncs the log's directory, making the names created,
// renamed or removed in it durable.
func (l *segLog) syncDir() error {
	d, err := os.Open(l.dir)
	if err != nil {
		return err
	}
	err = l.sync(d)
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
