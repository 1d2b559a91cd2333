package core

import (
	"encoding/binary"
	"slices"
	"sync"

	"repro/internal/gateway"
	"repro/internal/model"
	"repro/internal/rta"
	"repro/internal/tsched"
)

// Memo caches the intermediate results of AnalyzeWith across the many
// near-identical configurations that synthesis loops evaluate. One Memo
// serves exactly one (application, architecture) pair — the keys cover
// only the configuration-dependent inputs — and is safe for concurrent
// use by an evaluation pool.
//
// Every cache is keyed by an exact binary encoding of the stage's full
// input, so a hit returns a result that is bit-identical to recomputing
// it; stale reuse is impossible by construction and "invalidation" is
// implicit — a move that touches a cluster changes that cluster's key
// and misses, while untouched clusters keep hitting. The three stages
// are:
//
//   - the static TTC schedule (tsched.Build), keyed by round, pins and
//     the current ET->TT release offsets;
//   - the per-resource response-time fixed points (rta.AnalyzeStable),
//     keyed per CPU/bus by that resource's task vector — tasks on
//     different resources never interfere and the lingering-window
//     feedback stays within one resource, so the global fixed point
//     decomposes exactly (the one coupling, the all-unconverged marking
//     when the pass budget is exhausted, is reapplied by the caller);
//   - the gateway OutTTP queue analysis (gateway.AnalyzeOutTTP), keyed
//     by the message vector and the queue parameters.
type Memo struct {
	mu    sync.Mutex
	sched map[string]*tsched.Schedule
	rta   map[string]rtaMemoEntry
	queue map[string][]gateway.TTPResult
	stats MemoStats
}

// rtaMemoEntry is the cached outcome of one resource's fixed point.
type rtaMemoEntry struct {
	res    []rta.Result
	stable bool
}

// MemoStats counts stage-cache traffic. Hits mean the stage was served
// without recomputation.
type MemoStats struct {
	ScheduleHits, ScheduleMisses int64
	RTAHits, RTAMisses           int64
	QueueHits, QueueMisses       int64
}

// Hits sums the stage hits.
func (s MemoStats) Hits() int64 { return s.ScheduleHits + s.RTAHits + s.QueueHits }

// Misses sums the stage misses.
func (s MemoStats) Misses() int64 { return s.ScheduleMisses + s.RTAMisses + s.QueueMisses }

// memo cache bounds: when a map reaches its cap it is dropped whole —
// the caches only affect speed, never results, so the simplest policy
// wins (no LRU bookkeeping on the hot path).
const (
	memoSchedCap = 4096
	memoRTACap   = 16384
	memoQueueCap = 8192
)

// NewMemo builds an empty stage cache for one (application,
// architecture) pair.
func NewMemo() *Memo {
	return &Memo{
		sched: make(map[string]*tsched.Schedule),
		rta:   make(map[string]rtaMemoEntry),
		queue: make(map[string][]gateway.TTPResult),
	}
}

// Stats returns a snapshot of the stage-cache counters.
func (m *Memo) Stats() MemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// --- key encoding -----------------------------------------------------
//
// Keys are exact binary encodings of the stage inputs. Map-typed inputs
// are serialized in sorted key order; diagnostic-only fields (names)
// are excluded because results do not depend on them.
//
// Each analysis encodes its keys into one reusable keyScratch. Lookups
// index the caches with m[string(key)], which the compiler performs
// without allocating; a key becomes a string only when its entry is
// inserted.

// keyScratch is one analysis's key-encoding buffer, plus the scratch
// slices that sort map-typed inputs.
type keyScratch struct {
	buf   []byte
	procs []model.ProcID
	edges []model.EdgeID
}

func appendTime(b []byte, t model.Time) []byte { return binary.AppendVarint(b, t) }
func appendInt(b []byte, v int) []byte         { return binary.AppendVarint(b, int64(v)) }

// schedKey encodes a tsched.Build input (round + pins + releases).
func (ks *keyScratch) schedKey(in *tsched.Input) []byte {
	b := ks.buf[:0]
	b = appendInt(b, len(in.Round.Slots))
	for _, s := range in.Round.Slots {
		b = appendInt(b, int(s.Node))
		b = appendTime(b, s.Length)
	}
	b = appendTime(b, in.Round.Padding)
	b = ks.appendProcTimes(b, in.ReleaseOffset)
	b = ks.appendProcTimes(b, in.PinnedProc)
	b = ks.appendEdgeTimes(b, in.PinnedEdge)
	ks.buf = b
	return b
}

func (ks *keyScratch) appendProcTimes(b []byte, m map[model.ProcID]model.Time) []byte {
	ids := ks.procs[:0]
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	ks.procs = ids
	b = appendInt(b, len(ids))
	for _, id := range ids {
		b = appendInt(b, int(id))
		b = appendTime(b, m[id])
	}
	return b
}

func (ks *keyScratch) appendEdgeTimes(b []byte, m map[model.EdgeID]model.Time) []byte {
	ids := ks.edges[:0]
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	ks.edges = ids
	b = appendInt(b, len(ids))
	for _, id := range ids {
		b = appendInt(b, int(id))
		b = appendTime(b, m[id])
	}
	return b
}

// rtaKey encodes one resource's task vector (all analysis inputs).
func (ks *keyScratch) rtaKey(resource int, tasks []rta.Task, horizon model.Time) []byte {
	b := ks.buf[:0]
	b = appendInt(b, resource)
	b = appendTime(b, horizon)
	b = appendInt(b, len(tasks))
	for i := range tasks {
		t := &tasks[i]
		b = appendInt(b, t.Priority)
		b = appendTime(b, t.C)
		b = appendTime(b, t.T)
		b = appendTime(b, t.O)
		b = appendTime(b, t.J)
		b = appendTime(b, t.B)
		b = appendInt(b, t.Trans)
		if t.NonPreemptive {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	ks.buf = b
	return b
}

// queueKey encodes an OutTTP analysis input.
func (ks *keyScratch) queueKey(msgs []gateway.QueueMsg, p *gateway.TTPQueueParams) []byte {
	b := ks.buf[:0]
	b = appendInt(b, len(p.Round.Slots))
	for _, s := range p.Round.Slots {
		b = appendInt(b, int(s.Node))
		b = appendTime(b, s.Length)
	}
	b = appendTime(b, p.Round.Padding)
	b = appendInt(b, p.GatewaySlot)
	b = appendTime(b, p.TickPerByte)
	b = appendTime(b, p.Horizon)
	b = appendInt(b, len(msgs))
	for i := range msgs {
		m := &msgs[i]
		b = appendInt(b, m.Size)
		b = appendTime(b, m.T)
		b = appendTime(b, m.O)
		b = appendTime(b, m.J)
		b = appendInt(b, m.Priority)
		b = appendInt(b, m.Trans)
	}
	ks.buf = b
	return b
}

// --- stage lookups ----------------------------------------------------

// buildSchedule serves tsched.Build through the schedule cache. Build
// errors are structural (invalid round, oversized message) and are not
// cached; they abort the analysis exactly like the uncached path.
func (m *Memo) buildSchedule(in tsched.Input, ks *keyScratch) (*tsched.Schedule, error) {
	key := ks.schedKey(&in)
	m.mu.Lock()
	if s, ok := m.sched[string(key)]; ok {
		m.stats.ScheduleHits++
		m.mu.Unlock()
		return s, nil
	}
	m.stats.ScheduleMisses++
	m.mu.Unlock()
	s, err := tsched.Build(in)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	if len(m.sched) >= memoSchedCap {
		m.sched = make(map[string]*tsched.Schedule)
	}
	m.sched[string(key)] = s
	m.mu.Unlock()
	return s, nil
}

// analyzeResource runs (or recalls) one resource's fixed point. group
// must already carry its blocking factors. The returned slice may be
// shared with the cache and must not be modified; the bool mirrors
// rta.AnalyzeStable's stability, which the caller turns into the global
// all-unconverged marking exactly like the monolithic rta.Analyze.
func (m *Memo) analyzeResource(resource int, group []rta.Task, horizon model.Time, ks *keyScratch) ([]rta.Result, bool, error) {
	key := ks.rtaKey(resource, group, horizon)
	m.mu.Lock()
	if e, ok := m.rta[string(key)]; ok {
		m.stats.RTAHits++
		m.mu.Unlock()
		return e.res, e.stable, nil
	}
	m.stats.RTAMisses++
	m.mu.Unlock()
	res, stable, err := rta.AnalyzeStable(group, rta.Options{Horizon: horizon})
	if err != nil {
		return nil, false, err
	}
	m.mu.Lock()
	if len(m.rta) >= memoRTACap {
		m.rta = make(map[string]rtaMemoEntry)
	}
	m.rta[string(key)] = rtaMemoEntry{res: res, stable: stable}
	m.mu.Unlock()
	return res, stable, nil
}

// analyzeQueue serves gateway.AnalyzeOutTTP through the queue cache.
func (m *Memo) analyzeQueue(msgs []gateway.QueueMsg, p *gateway.TTPQueueParams, ks *keyScratch) ([]gateway.TTPResult, error) {
	key := ks.queueKey(msgs, p)
	m.mu.Lock()
	if r, ok := m.queue[string(key)]; ok {
		m.stats.QueueHits++
		m.mu.Unlock()
		return r, nil
	}
	m.stats.QueueMisses++
	m.mu.Unlock()
	res, err := gateway.AnalyzeOutTTP(msgs, *p)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	if len(m.queue) >= memoQueueCap {
		m.queue = make(map[string][]gateway.TTPResult)
	}
	m.queue[string(key)] = res
	m.mu.Unlock()
	return res, nil
}
