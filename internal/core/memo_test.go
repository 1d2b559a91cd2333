package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/model"
)

// configKeyDigest is the SHA-256 prefix of the ConfigKey bytes of every
// configuration TestConfigKeyGolden builds. It was recorded on the
// reflection-sorted encoder; any change to the key bytes fails here.
const configKeyDigest = "946c1d8358653138"

// TestConfigKeyGolden pins ConfigKey byte for byte over the corpus of
// the tsched Build digest: for every member of gen.Corpus(48, 1, 4) and
// gen.Corpus(16, 1, 10), the SF configuration alone, with one pinned TT
// process and with one pinned TTP message.
func TestConfigKeyGolden(t *testing.T) {
	h := sha256.New()
	specs := append(gen.Corpus(48, 1, 4), gen.Corpus(16, 1, 10)...)
	for i, spec := range specs {
		sys, err := gen.Generate(spec)
		if err != nil {
			t.Fatalf("corpus member %d: %v", i, err)
		}
		app, arch := sys.Application, sys.Architecture
		cfg := DefaultConfig(app, arch)
		if err := cfg.Normalize(app); err != nil {
			t.Fatalf("member %d: Normalize: %v", i, err)
		}
		h.Write([]byte(ConfigKey(cfg)))
		for _, p := range app.Procs {
			if arch.Kind(p.Node) == model.TimeTriggered {
				h.Write([]byte(ConfigKey(cfg.PinProc(p.ID, app.PeriodOf(p.ID)/4))))
				break
			}
		}
		for _, e := range app.Edges {
			if app.RouteOf(e.ID, arch).UsesTTP() {
				h.Write([]byte(ConfigKey(cfg.PinEdge(e.ID, app.EdgePeriod(e.ID)/3))))
				break
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil))[:16]; got != configKeyDigest {
		t.Errorf("ConfigKey corpus digest %s, want %s", got, configKeyDigest)
	}
}

// TestTableCapDrop pins the cap-and-drop policy on a table of cap 2: the
// third insert drops the map whole, the counters keep growing across the
// drop, and a dropped key misses and then refills. A table of cap 0
// stores nothing.
func TestTableCapDrop(t *testing.T) {
	tb := table[int]{cap: 2}
	lookup := func(key string, want int, wantOK bool) {
		t.Helper()
		if v, ok := tb.get([]byte(key)); ok != wantOK || v != want {
			t.Fatalf("get(%q) = %d, %t; want %d, %t", key, v, ok, want, wantOK)
		}
	}
	lookup("a", 0, false)
	key := []byte("a")
	tb.put(key, 1)
	key[0] = 'z' // the table must own a copy of the key
	tb.put([]byte("b"), 2)
	lookup("a", 1, true)
	lookup("b", 2, true)
	lookup("z", 0, false)

	tb.put([]byte("c"), 3)
	if len(tb.m) != 1 {
		t.Fatalf("after the insert at cap the map holds %d entries, want 1", len(tb.m))
	}
	lookup("a", 0, false)
	lookup("b", 0, false)
	lookup("c", 3, true)
	tb.put([]byte("a"), 1)
	lookup("a", 1, true)
	lookup("c", 3, true)

	if hits, misses := tb.counts(); hits != 5 || misses != 4 {
		t.Errorf("counts = %d hits, %d misses; want 5, 4", hits, misses)
	}

	// At cap 0 the table stores nothing: put makes no map, and every
	// get, also of a key just put, counts a miss.
	var none table[int]
	none.put([]byte("a"), 1)
	if v, ok := none.get([]byte("a")); ok || v != 0 {
		t.Errorf("cap 0: get after put = %d, %t; want 0, false", v, ok)
	}
	if none.m != nil {
		t.Errorf("cap 0: put made a map of %d entries", len(none.m))
	}
	if hits, misses := none.counts(); hits != 0 || misses != 1 {
		t.Errorf("cap 0: counts = %d hits, %d misses; want 0, 1", hits, misses)
	}
}

// TestMemoSmallCapsMatchCold walks configurations through a Memo whose
// tables hold one or two entries, so nearly every insert drops a table:
// every Memo.Analyze — config hit, stage hit, refill after a drop or
// cold miss — must deep-equal Analyze. Each step swaps the priorities of
// two ET processes or two CAN messages on a clone. The genConfig systems
// have two ET CPUs and a CAN bus, so an RTA table of cap 1 or 2 is
// dropped before a resource's next holistic pass can hit it; a second
// walk gives the RTA table cap 4, so the passes of one analysis hit too.
// The intern tables hold one entry, so every analysis re-interns its
// resources after a drop and keys its passes by ids never used before.
func TestMemoSmallCapsMatchCold(t *testing.T) {
	for _, rtaCap := range []int{1, 4} {
		for _, seed := range []int64{3, 7} {
			walkSmallCaps(t, rtaCap, seed)
		}
	}
}

// walkSmallCaps is one TestMemoSmallCapsMatchCold walk on the genConfig
// system of seed.
func walkSmallCaps(t *testing.T, rtaCap int, seed int64) {
	app, arch, cfg := genConfig(t, seed, 4)
	m := NewMemo(app, arch)
	m.config.cap, m.sched.cap, m.rta.cap, m.queue.cap = 1, 2, rtaCap, 2
	m.rtaIDs.cap, m.queueIDs.cap = 1, 1
	rng := rand.New(rand.NewSource(seed))
	procs := prioritized(cfg.ProcPriority)
	msgs := prioritized(cfg.MsgPriority)
	walk := []*Config{cfg}
	for step := 0; step < 16; step++ {
		next := walk[len(walk)-1].Clone()
		if step%2 == 0 && len(procs) >= 2 {
			swapPriorities(rng, next.ProcPriority, procs)
		} else if len(msgs) >= 2 {
			swapPriorities(rng, next.MsgPriority, msgs)
		}
		walk = append(walk, next)
		// The new configuration twice (a config hit at cap 1), then an
		// earlier one that the drops have evicted.
		for _, c := range []*Config{next, next, walk[rng.Intn(len(walk))]} {
			want, err := Analyze(app, arch, c)
			if err != nil {
				t.Fatalf("RTA cap %d, seed %d, step %d: cold: %v", rtaCap, seed, step, err)
			}
			got, err := m.Analyze(c)
			if err != nil {
				t.Fatalf("RTA cap %d, seed %d, step %d: memo: %v", rtaCap, seed, step, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("RTA cap %d, seed %d, step %d: memoised analysis differs from cold", rtaCap, seed, step)
			}
		}
	}
	s := m.Stats()
	if s.ConfigHits == 0 || s.ConfigMisses == 0 || s.Hits() == 0 || s.Misses() == 0 {
		t.Fatalf("RTA cap %d, seed %d: degenerate traffic: %+v", rtaCap, seed, s)
	}
}

// TestMemoOffsetBlindMatchesCold interleaves offset-blind and
// offset-aware analyses of a priority walk through one Memo. Each must
// deep-equal its cold counterpart: the two settings intern different
// static inputs, so they never share a stage entry.
func TestMemoOffsetBlindMatchesCold(t *testing.T) {
	for _, seed := range []int64{3, 7} {
		app, arch, cfg := genConfig(t, seed, 4)
		m := NewMemo(app, arch)
		rng := rand.New(rand.NewSource(seed))
		procs := prioritized(cfg.ProcPriority)
		for step := 0; step < 6; step++ {
			for _, blind := range []bool{true, false} {
				got, err := m.analyzeStages(cfg, blind)
				if err != nil {
					t.Fatal(err)
				}
				cold := Analyze
				if blind {
					cold = AnalyzeOffsetBlind
				}
				want, err := cold(app, arch, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d, step %d, offset-blind %t: memoised analysis differs from cold", seed, step, blind)
				}
			}
			cfg = cfg.Clone()
			swapPriorities(rng, cfg.ProcPriority, procs)
		}
	}
}

// TestMemoConcurrentLayouts runs four workers' analyses through one Memo
// at once, bypassing the whole-analysis table, so concurrent
// analyses take layouts off the free list, share the frame and the
// interned inputs, and return their layouts. Every result must
// deep-equal the cold analysis, an analysis returned before the workers
// started must not change while its layout is reused, and the free list
// must end with no more layouts than analyses ever ran at once. Run
// under -race this covers the free list and the intern tables.
func TestMemoConcurrentLayouts(t *testing.T) {
	const workers = 4
	app, arch, cfg := genConfig(t, 7, 4)
	rng := rand.New(rand.NewSource(7))
	procs := prioritized(cfg.ProcPriority)
	msgs := prioritized(cfg.MsgPriority)
	walk := []*Config{cfg}
	for step := 0; step < 8; step++ {
		next := walk[len(walk)-1].Clone()
		swapPriorities(rng, next.ProcPriority, procs)
		if len(msgs) >= 2 {
			swapPriorities(rng, next.MsgPriority, msgs)
		}
		walk = append(walk, next)
	}
	want := make([]*Analysis, len(walk))
	for i, c := range walk {
		a, err := Analyze(app, arch, c)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = a
	}
	m := NewMemo(app, arch)
	first, err := m.analyzeStages(walk[0], false)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for rep := 0; rep < 3; rep++ {
				for k := range walk {
					i := (k + w) % len(walk)
					a, err := m.analyzeStages(walk[i], false)
					if err != nil {
						done <- err
						return
					}
					if !reflect.DeepEqual(a, want[i]) {
						done <- fmt.Errorf("worker %d: analysis %d differs from cold", w, i)
						return
					}
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
	if !reflect.DeepEqual(first, want[0]) {
		t.Error("an analysis returned before the workers ran changed while the Memo recycled its layout")
	}
	if n := len(m.free); n < 1 || n > workers {
		t.Errorf("free list holds %d layouts after %d concurrent workers", n, workers)
	}
}

// TestMemoReleaseStages: ReleaseStages empties the stage and intern
// tables and the free list, keeps the whole analyses and every counter,
// serves a repeat of the released walk whole, and after it analyzes new
// configurations exactly like Analyze, under ids never used before.
func TestMemoReleaseStages(t *testing.T) {
	app, arch, cfg := genConfig(t, 7, 4)
	m := NewMemo(app, arch)
	rng := rand.New(rand.NewSource(7))
	msgs := prioritized(cfg.MsgPriority)
	walk := []*Config{cfg}
	for len(walk) < 6 {
		next := walk[len(walk)-1].Clone()
		swapPriorities(rng, next.MsgPriority, msgs)
		walk = append(walk, next)
	}
	first := make([]*Analysis, len(walk))
	for i, c := range walk[:5] {
		a, err := m.Analyze(c)
		if err != nil {
			t.Fatal(err)
		}
		first[i] = a
	}
	held := m.Entries()
	if held.Config != 5 || held.Schedule == 0 || held.RTA == 0 || held.Queue == 0 {
		t.Fatalf("degenerate walk: %+v", held)
	}
	stats, lastID := m.Stats(), m.lastID.Load()

	m.ReleaseStages()
	if got, want := m.Entries(), (MemoEntries{Config: held.Config}); got != want {
		t.Errorf("after the release the tables hold %+v, want %+v", got, want)
	}
	if n := m.rtaIDs.size() + m.queueIDs.size() + len(m.free); n != 0 {
		t.Errorf("after the release the intern tables and free list hold %d entries", n)
	}
	if got := m.Stats(); got != stats {
		t.Errorf("the release moved the counters: %+v, want %+v", got, stats)
	}

	for i, c := range walk[:5] {
		if a, err := m.Analyze(c); err != nil || a != first[i] {
			t.Fatalf("repeat %d after the release was not served whole (err %v)", i, err)
		}
	}
	repeat := m.Stats()
	if repeat.ConfigHits != stats.ConfigHits+5 || repeat.Hits() != stats.Hits() || repeat.Misses() != stats.Misses() {
		t.Errorf("the repeat made stage lookups: %+v, before %+v", repeat, stats)
	}

	want, err := Analyze(app, arch, walk[5])
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Analyze(walk[5])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("an analysis after the release differs from cold")
	}
	if m.rtaIDs.size() == 0 || m.lastID.Load() <= lastID {
		t.Errorf("no input was interned afresh after the release: %d ids, last id %d (was %d)", m.rtaIDs.size(), m.lastID.Load(), lastID)
	}
	for _, s := range m.rtaIDs.m {
		if s.id <= lastID {
			t.Errorf("id %d reused after the release (last id before it %d)", s.id, lastID)
		}
	}
}

// prioritized returns the IDs that hold a priority in prio, ascending.
func prioritized(prio []int) []int {
	var ids []int
	for id, p := range prio {
		if p != NoPriority {
			ids = append(ids, id)
		}
	}
	return ids
}

// swapPriorities swaps the priorities of two distinct ids drawn from
// ids, the prioritized IDs of prio.
func swapPriorities(rng *rand.Rand, prio []int, ids []int) {
	i := rng.Intn(len(ids))
	j := (i + 1 + rng.Intn(len(ids)-1)) % len(ids)
	prio[ids[i]], prio[ids[j]] = prio[ids[j]], prio[ids[i]]
}

// BenchmarkMemoLayers measures what each memo layer saves on one
// analysis of the genConfig systems: a whole-analysis hit on a warm
// memo (config-hit), an analysis whose stages all hit (stage-hit),
// Memo.Analyze on a new Memo per op (fresh: every table misses and pays
// its keys and inserts), and a Memo that stores nothing (cold).
func BenchmarkMemoLayers(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("ppn=%d", n), func(b *testing.B) {
			app, arch, cfg := genConfig(b, 7, n)
			warm := NewMemo(app, arch)
			if _, err := warm.Analyze(cfg); err != nil {
				b.Fatal(err)
			}
			for _, layer := range []struct {
				name string
				run  func() (*Analysis, error)
			}{
				{"config-hit", func() (*Analysis, error) { return warm.Analyze(cfg) }},
				{"stage-hit", func() (*Analysis, error) { return warm.analyzeStages(cfg, false) }},
				{"fresh", func() (*Analysis, error) { return NewMemo(app, arch).Analyze(cfg) }},
				{"cold", func() (*Analysis, error) { return Analyze(app, arch, cfg) }},
			} {
				b.Run(layer.name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := layer.run(); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}
