package core

import (
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/gateway"
	"repro/internal/model"
	"repro/internal/rta"
	"repro/internal/tsched"
	"repro/internal/ttp"
)

// Memo caches analysis results across the many near-identical
// configurations that synthesis loops evaluate. One Memo serves exactly
// one (application, architecture) pair, the one NewMemo binds it to. It
// is safe for concurrent use by the workers of an evaluation batch.
//
// Every analysis runs through a Memo. AnalyzeWith builds one per call
// whose tables have no cap and so store nothing: it recomputes every
// stage, and shares nothing with any other call.
//
// Every table is keyed by an exact binary encoding of its full input, so
// a hit returns a result that is bit-identical to recomputing it; stale
// reuse is impossible by construction and "invalidation" is implicit — a
// move that touches a cluster changes that cluster's keys and misses,
// while untouched clusters keep hitting. The four tables are:
//
//   - whole analyses (Memo.Analyze), keyed by ConfigKey: optimizers
//     revisit configurations, and a revisit costs one lookup;
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
//
// Within one analysis only the activation offsets O and jitters J of
// the RTA and queue inputs move between holistic passes. Each analysis
// therefore interns the rest of every resource's input (and of the
// queue's) once, to an id drawn from a Memo-wide counter, and the
// per-pass keys are that id plus the O/J words. The intern tables drop
// whole at their caps like the stage tables; the counter never resets,
// so an id is never reused and a dropped input can never alias another
// input's stage entries.
//
// The Memo also holds what an analysis of its pair needs but no
// configuration changes (the etFrame: routes, CAN times, the task and
// queue templates, the release destinations and the CAN queues), built
// on the first analysis, and a free list of per-analysis layouts. The
// list holds at most as many layouts as analyses ever ran at once, and
// no returned Analysis refers to one.
//
// An owner that knows when no run is using the Memo (the service, once
// a session's last job finishes) calls ReleaseStages: the stage and
// intern tables and the free layouts go, the whole analyses, the frame
// and the counters stay.
type Memo struct {
	app  *model.Application
	arch *model.Architecture

	config table[*Analysis]
	sched  table[*tsched.Schedule]
	rta    table[rtaMemoEntry]
	queue  table[[]gateway.TTPResult]

	rtaIDs   table[*rtaStatic]
	queueIDs table[uint64]
	lastID   atomic.Uint64

	mu    sync.Mutex // guards frame and free
	frame *etFrame
	free  []*etLayout
}

// rtaStatic is one interned static RTA input: its id and the span's
// higher-priority index. An id is new exactly when the first stage
// lookup under it must miss, so the index is built at interning, once
// per id, and never wasted.
type rtaStatic struct {
	id uint64
	hp [][]int
}

// rtaMemoEntry is the cached outcome of one resource's fixed point.
type rtaMemoEntry struct {
	res    []rta.Result
	stable bool
}

// table is one exact-keyed cache with its own lock and counters. When
// the map reaches its cap it is dropped whole: the tables only affect
// speed, never results, so the simplest policy wins (no LRU bookkeeping
// on the hot path). A table of cap 0 stores nothing: every lookup
// misses, and no map is ever made.
type table[V any] struct {
	mu           sync.Mutex
	m            map[string]V
	cap          int
	hits, misses int64
}

// get looks key up and counts the hit or the miss. Indexing with
// string(key) does not allocate.
func (t *table[V]) get(key []byte) (V, bool) {
	t.mu.Lock()
	v, ok := t.m[string(key)]
	if ok {
		t.hits++
	} else {
		t.misses++
	}
	t.mu.Unlock()
	return v, ok
}

// put inserts v under key, first dropping the map whole at its cap. The
// key becomes a string only here. A table of cap 0 ignores it.
func (t *table[V]) put(key []byte, v V) {
	t.mu.Lock()
	t.putLocked(key, v)
	t.mu.Unlock()
}

func (t *table[V]) putLocked(key []byte, v V) {
	if t.cap == 0 {
		return
	}
	if t.m == nil || len(t.m) >= t.cap {
		t.m = make(map[string]V)
	}
	t.m[string(key)] = v
}

// drop empties the table, keeping its counters.
func (t *table[V]) drop() {
	t.mu.Lock()
	t.m = nil
	t.mu.Unlock()
}

// size returns the number of entries held.
func (t *table[V]) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// counts returns the hit and miss counters.
func (t *table[V]) counts() (hits, misses int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.hits, t.misses
}

// MemoStats counts a Memo's traffic per table. Hits mean the result was
// served without recomputation.
type MemoStats struct {
	ConfigHits, ConfigMisses     int64
	ScheduleHits, ScheduleMisses int64
	RTAHits, RTAMisses           int64
	QueueHits, QueueMisses       int64
}

// Add adds o's counters to s.
func (s *MemoStats) Add(o MemoStats) {
	s.ConfigHits += o.ConfigHits
	s.ConfigMisses += o.ConfigMisses
	s.ScheduleHits += o.ScheduleHits
	s.ScheduleMisses += o.ScheduleMisses
	s.RTAHits += o.RTAHits
	s.RTAMisses += o.RTAMisses
	s.QueueHits += o.QueueHits
	s.QueueMisses += o.QueueMisses
}

// Hits sums the stage hits (schedule, RTA, queue).
func (s MemoStats) Hits() int64 { return s.ScheduleHits + s.RTAHits + s.QueueHits }

// Misses sums the stage misses (schedule, RTA, queue).
func (s MemoStats) Misses() int64 { return s.ScheduleMisses + s.RTAMisses + s.QueueMisses }

// HitRate is the fraction of whole analyses served from the config
// table (0 when nothing ran yet).
func (s MemoStats) HitRate() float64 { return hitRate(s.ConfigHits, s.ConfigMisses) }

// StageHitRate is the fraction of stage lookups served from the stage
// tables (0 when nothing ran yet).
func (s MemoStats) StageHitRate() float64 { return hitRate(s.Hits(), s.Misses()) }

func hitRate(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// NewMemo builds an empty Memo for app on arch. Each intern table has
// the cap of the stage table its ids key: an id with no stage entry left
// saves nothing.
func NewMemo(app *model.Application, arch *model.Architecture) *Memo {
	return &Memo{
		app: app, arch: arch,
		config:   table[*Analysis]{cap: 8192},
		sched:    table[*tsched.Schedule]{cap: 4096},
		rta:      table[rtaMemoEntry]{cap: 16384},
		queue:    table[[]gateway.TTPResult]{cap: 8192},
		rtaIDs:   table[*rtaStatic]{cap: 16384},
		queueIDs: table[uint64]{cap: 8192},
	}
}

// layout takes a layout off the free list, or builds one (and, on the
// first analysis, the frame).
func (m *Memo) layout() *etLayout {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := len(m.free); n > 0 {
		l := m.free[n-1]
		m.free = m.free[:n-1]
		return l
	}
	if m.frame == nil {
		m.frame = newETFrame(m.app, m.arch)
	}
	return newETLayout(m.frame, m)
}

// recycle returns l to the free list once its analysis has finished.
func (m *Memo) recycle(l *etLayout) {
	l.cfg = nil
	l.queueParams = gateway.TTPQueueParams{}
	m.mu.Lock()
	m.free = append(m.free, l)
	m.mu.Unlock()
}

// Stats returns a snapshot of the counters, consistent per table.
func (m *Memo) Stats() MemoStats {
	var s MemoStats
	s.ConfigHits, s.ConfigMisses = m.config.counts()
	s.ScheduleHits, s.ScheduleMisses = m.sched.counts()
	s.RTAHits, s.RTAMisses = m.rta.counts()
	s.QueueHits, s.QueueMisses = m.queue.counts()
	return s
}

// MemoEntries counts the entries a Memo's tables hold.
type MemoEntries struct {
	Config, Schedule, RTA, Queue int
}

// Add adds o's counts to e.
func (e *MemoEntries) Add(o MemoEntries) {
	e.Config += o.Config
	e.Schedule += o.Schedule
	e.RTA += o.RTA
	e.Queue += o.Queue
}

// Entries returns the table sizes, consistent per table.
func (m *Memo) Entries() MemoEntries {
	return MemoEntries{Config: m.config.size(), Schedule: m.sched.size(), RTA: m.rta.size(), Queue: m.queue.size()}
}

// ReleaseStages drops what only a running analysis loop reuses: the
// schedule, RTA and queue tables, the intern tables and the free
// layouts. The whole-analysis table, the frame and every counter stay,
// so a repeat of a finished run is served whole. Ids keep counting from
// where they were, so an input interned again gets a fresh id. Calling
// it during an analysis costs that analysis only speed.
func (m *Memo) ReleaseStages() {
	m.sched.drop()
	m.rta.drop()
	m.queue.drop()
	m.rtaIDs.drop()
	m.queueIDs.drop()
	m.mu.Lock()
	m.free = nil
	m.mu.Unlock()
}

// Analyze runs (or recalls) the multi-cluster analysis of cfg on the
// Memo's pair. The result is bit-identical to Analyze and is shared
// across callers, so it must be treated as read-only. Errors are never
// cached.
func (m *Memo) Analyze(cfg *Config) (*Analysis, error) {
	key := configKey(cfg)
	if a, ok := m.config.get(key); ok {
		return a, nil
	}
	a, err := m.analyzeStages(cfg, false)
	if err != nil {
		return nil, err
	}
	m.config.put(key, a)
	return a, nil
}

// --- key encoding -----------------------------------------------------
//
// Keys are exact binary encodings of the inputs. Priority vectors are
// serialized in ID order and maps in sorted key order; diagnostic-only
// fields (names) are excluded because results do not depend on them.
//
// Each analysis encodes its stage keys into one reusable keyScratch.

// keyScratch is one analysis's key-encoding buffer, the schedule key's
// fixed prefix, and the scratch slice that sorts map-typed inputs.
type keyScratch struct {
	buf   []byte
	sched []byte
	ids   []int
}

// keyBufSize presizes the key buffer of a layout over f: a static RTA
// input spends at most six varints per task, the queue's four per
// message, and a schedule key one per release destination. 64 bytes
// cover the headers; a round or pin set that needs more grows the
// buffer once, and the layout keeps it.
func keyBufSize(f *etFrame) int {
	return 64 + binary.MaxVarintLen64*max(6*len(f.taskTmpl), 4*len(f.queueTmpl), len(f.releaseDst))
}

func appendTime(b []byte, t model.Time) []byte { return binary.AppendVarint(b, t) }
func appendInt(b []byte, v int) []byte         { return binary.AppendVarint(b, int64(v)) }

// appendRound appends a TDMA round: the slot count, each slot's owner
// and length, then the padding.
func appendRound(b []byte, r *ttp.Round) []byte {
	b = appendInt(b, len(r.Slots))
	for _, s := range r.Slots {
		b = appendInt(b, int(s.Node))
		b = appendTime(b, s.Length)
	}
	return appendTime(b, r.Padding)
}

// appendSorted appends the length of the pin map m and its entries in
// ascending key order, sorting the keys in ids, a scratch buffer it
// returns with its growth.
func appendSorted[K ~int](b []byte, ids []int, m map[K]model.Time) ([]byte, []int) {
	ids = ids[:0]
	for id := range m {
		ids = append(ids, int(id))
	}
	slices.Sort(ids)
	b = appendInt(b, len(ids))
	for _, id := range ids {
		b = appendInt(b, id)
		b = appendTime(b, m[K(id)])
	}
	return b, ids
}

// appendPriorities appends the number of entries of prio that hold a
// priority, then each such entry's ID and priority in ID order: the
// bytes appendSorted writes for the map of the same entries.
func appendPriorities(b []byte, prio []int) []byte {
	n := 0
	for _, p := range prio {
		if p != NoPriority {
			n++
		}
	}
	b = appendInt(b, n)
	for id, p := range prio {
		if p != NoPriority {
			b = appendInt(b, id)
			b = appendInt(b, p)
		}
	}
	return b
}

// ConfigKey returns the canonical binary encoding of a configuration:
// the TDMA round, then the priority vectors and the pin maps in ID
// order. Two configurations get the same key exactly when AnalyzeWith
// cannot tell them apart.
func ConfigKey(cfg *Config) string { return string(configKey(cfg)) }

// configKey encodes ConfigKey into one buffer: four bytes per vector
// entry hold IDs and priorities below 8192, so it seldom grows. A few
// pins sort on the stack.
func configKey(cfg *Config) []byte {
	var stack [8]int
	ids := stack[:0]
	b := make([]byte, 0, 64+4*(len(cfg.ProcPriority)+len(cfg.MsgPriority)))
	b = appendRound(b, &cfg.Round)
	b = appendPriorities(b, cfg.ProcPriority)
	b = appendPriorities(b, cfg.MsgPriority)
	b, ids = appendSorted(b, ids, cfg.PinnedProc)
	b, _ = appendSorted(b, ids, cfg.PinnedEdge)
	return b
}

// startSched encodes the part of the schedule keys that one analysis of
// cfg never changes: the round and the pins.
func (ks *keyScratch) startSched(cfg *Config) {
	b := appendRound(ks.sched[:0], &cfg.Round)
	b, ks.ids = appendSorted(b, ks.ids, cfg.PinnedProc)
	ks.sched, ks.ids = appendSorted(b, ks.ids, cfg.PinnedEdge)
}

// schedKey encodes a tsched.Build input: the prefix of startSched, then
// the release offset of every destination in the frame's order. An
// absent offset and 0 are the same input to tsched.Build, and
// AnalyzeWith stores only positive offsets, so the vector holds exactly
// the information of the release map.
func (ks *keyScratch) schedKey(releaseAt []model.Time) []byte {
	b := append(ks.buf[:0], ks.sched...)
	for _, r := range releaseAt {
		b = appendTime(b, r)
	}
	ks.buf = b
	return b
}

// rtaStaticKey encodes what one analysis never changes of a resource's
// RTA input: the resource, the horizon and each task's priority, C, T,
// B, transaction and preemptibility.
func (ks *keyScratch) rtaStaticKey(resource int, tasks []rta.Task, horizon model.Time) []byte {
	b := ks.buf[:0]
	b = appendInt(b, resource)
	b = appendTime(b, horizon)
	b = appendInt(b, len(tasks))
	for i := range tasks {
		t := &tasks[i]
		b = appendInt(b, t.Priority)
		b = appendTime(b, t.C)
		b = appendTime(b, t.T)
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

// rtaKey encodes one pass's RTA input of the resource interned as id:
// the id, then each task's O and J.
func (ks *keyScratch) rtaKey(id uint64, tasks []rta.Task) []byte {
	b := binary.AppendUvarint(ks.buf[:0], id)
	for i := range tasks {
		b = appendTime(b, tasks[i].O)
		b = appendTime(b, tasks[i].J)
	}
	ks.buf = b
	return b
}

// queueStaticKey encodes what one analysis never changes of an OutTTP
// input: the queue parameters and each message's size, period, priority
// and transaction.
func (ks *keyScratch) queueStaticKey(msgs []gateway.QueueMsg, p *gateway.TTPQueueParams) []byte {
	b := appendRound(ks.buf[:0], &p.Round)
	b = appendInt(b, p.GatewaySlot)
	b = appendTime(b, p.TickPerByte)
	b = appendTime(b, p.Horizon)
	b = appendInt(b, len(msgs))
	for i := range msgs {
		m := &msgs[i]
		b = appendInt(b, m.Size)
		b = appendTime(b, m.T)
		b = appendInt(b, m.Priority)
		b = appendInt(b, m.Trans)
	}
	ks.buf = b
	return b
}

// queueKey encodes one pass's OutTTP input of the queue interned as id:
// the id, then each message's O and J.
func (ks *keyScratch) queueKey(id uint64, msgs []gateway.QueueMsg) []byte {
	b := binary.AppendUvarint(ks.buf[:0], id)
	for i := range msgs {
		b = appendTime(b, msgs[i].O)
		b = appendTime(b, msgs[i].J)
	}
	ks.buf = b
	return b
}

// --- interning --------------------------------------------------------

// internRTA returns the record of the static RTA input encoded in key,
// interning it under a new id on a miss.
func (m *Memo) internRTA(key []byte, group []rta.Task) *rtaStatic {
	t := &m.rtaIDs
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.m[string(key)]
	if !ok {
		s = &rtaStatic{id: m.lastID.Add(1), hp: rta.HigherPriorityIndex(group)}
		t.putLocked(key, s)
	}
	return s
}

// internQueue returns the id of the static OutTTP input encoded in key,
// interning it under a new id on a miss.
func (m *Memo) internQueue(key []byte) uint64 {
	t := &m.queueIDs
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.m[string(key)]
	if !ok {
		id = m.lastID.Add(1)
		t.putLocked(key, id)
	}
	return id
}

// --- stage lookups ----------------------------------------------------

// buildSchedule serves tsched.Build through the schedule table, keyed
// by l's release offsets. Build errors are structural (invalid round,
// oversized message) and are not cached; they abort the analysis
// exactly like the uncached path.
func (m *Memo) buildSchedule(in tsched.Input, l *etLayout) (*tsched.Schedule, error) {
	key := l.keys.schedKey(l.releaseAt)
	if s, ok := m.sched.get(key); ok {
		return s, nil
	}
	s, err := tsched.Build(in)
	if err != nil {
		return nil, err
	}
	m.sched.put(key, s)
	return s, nil
}

// analyzeResource runs (or recalls) the fixed point of one resource,
// whose tasks are group and whose static input is interned as s, into
// res with resp as scratch (both parallel to group and owned by the
// caller). The bool mirrors rta.AnalyzeStable's stability, which the
// caller turns into the global all-unconverged marking exactly like the
// monolithic analysis. The table keeps a copy of res, made only when it
// stores one.
func (m *Memo) analyzeResource(s *rtaStatic, group []rta.Task, horizon model.Time, ks *keyScratch, res []rta.Result, resp []model.Time) (bool, error) {
	key := ks.rtaKey(s.id, group)
	if e, ok := m.rta.get(key); ok {
		copy(res, e.res)
		return e.stable, nil
	}
	stable, err := rta.AnalyzeStable(group, s.hp, rta.Options{Horizon: horizon}, res, resp)
	if err != nil {
		return false, err
	}
	if m.rta.cap > 0 {
		m.rta.put(key, rtaMemoEntry{res: slices.Clone(res), stable: stable})
	}
	return stable, nil
}

// analyzeQueue serves gateway.AnalyzeOutTTP through the queue table;
// the static part of msgs and p is interned as id.
func (m *Memo) analyzeQueue(id uint64, msgs []gateway.QueueMsg, p *gateway.TTPQueueParams, ks *keyScratch) ([]gateway.TTPResult, error) {
	key := ks.queueKey(id, msgs)
	if r, ok := m.queue.get(key); ok {
		return r, nil
	}
	res, err := gateway.AnalyzeOutTTP(msgs, *p)
	if err != nil {
		return nil, err
	}
	m.queue.put(key, res)
	return res, nil
}
