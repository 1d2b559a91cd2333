package core

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/model"
)

// genConfig builds a gen system with 2 TT + 2 ET nodes and 8 forced
// inter-cluster messages, with its normalized default configuration.
func genConfig(tb testing.TB, seed int64, procsPerNode int) (*model.Application, *model.Architecture, *Config) {
	tb.Helper()
	sys, err := gen.Generate(gen.Spec{
		Seed: seed, TTNodes: 2, ETNodes: 2,
		ProcsPerNode: procsPerNode, InterClusterMsgs: 8,
	})
	if err != nil {
		tb.Fatalf("Generate: %v", err)
	}
	app, arch := sys.Application, sys.Architecture
	cfg := DefaultConfig(app, arch)
	if err := cfg.Normalize(app); err != nil {
		tb.Fatalf("Normalize: %v", err)
	}
	return app, arch, cfg
}

// Allocation ceilings of one analysis of the genConfig(7, 10) system.
// Allocation counts are deterministic, so the ceilings are the measured
// counts: a change that adds an allocation to the Fig. 5 loop fails
// here, and a change that removes some should lower them.
const (
	analyzeColdAllocs = 143
	analyzeMemoAllocs = 230
	analyzeWarmAllocs = 114
)

// TestAnalyzeAllocs pins the allocations of a cold Analyze (through a
// Memo that stores nothing), of an analysis through a fresh Memo's stage
// tables (the cost of a memo miss on a never-seen system, which builds
// the Memo's frame and first layout),
// and of a Memo.Analyze of a new configuration on a Memo that has
// already analyzed others (the miss path of a running synthesis loop,
// which reuses the frame and a recycled layout).
func TestAnalyzeAllocs(t *testing.T) {
	app, arch, cfg := genConfig(t, 7, 10)
	cold := testing.AllocsPerRun(10, func() {
		if _, err := Analyze(app, arch, cfg); err != nil {
			t.Fatal(err)
		}
	})
	memo := testing.AllocsPerRun(10, func() {
		if _, err := NewMemo(app, arch).analyzeStages(cfg, false); err != nil {
			t.Fatal(err)
		}
	})
	// A walk of adjacent priority swaps: every configuration is new to
	// the Memo, and each shares some stage inputs with its predecessor.
	procs := prioritized(cfg.ProcPriority)
	walk := []*Config{cfg}
	for i := 0; i < 11; i++ {
		next := walk[i].Clone()
		a, b := procs[i%len(procs)], procs[(i+1)%len(procs)]
		next.ProcPriority[a], next.ProcPriority[b] = next.ProcPriority[b], next.ProcPriority[a]
		walk = append(walk, next)
	}
	m := NewMemo(app, arch)
	step := 0
	warm := testing.AllocsPerRun(10, func() {
		if _, err := m.Analyze(walk[step]); err != nil {
			t.Fatal(err)
		}
		step++
	})
	if s := m.Stats(); s.ConfigHits != 0 || s.ConfigMisses != 11 {
		t.Fatalf("the walk hit the config table: %+v", s)
	}
	t.Logf("cold %v allocs/op, fresh memo %v allocs/op, warm memo %v allocs/op", cold, memo, warm)
	if cold > analyzeColdAllocs {
		t.Errorf("cold Analyze: %v allocs/op, ceiling %d", cold, analyzeColdAllocs)
	}
	if memo > analyzeMemoAllocs {
		t.Errorf("fresh Memo: %v allocs/op, ceiling %d", memo, analyzeMemoAllocs)
	}
	if warm > analyzeWarmAllocs {
		t.Errorf("Memo.Analyze(new configuration): %v allocs/op, ceiling %d", warm, analyzeWarmAllocs)
	}
}

// unpaddedConfig returns cfg with its first slot grown until the round
// no longer divides the hyper-period, so Normalize has to search the
// divisors for the padding.
func unpaddedConfig(tb testing.TB, app *model.Application, cfg *Config) *Config {
	tb.Helper()
	hyper, err := app.Hyperperiod()
	if err != nil {
		tb.Fatal(err)
	}
	c := cfg.Clone()
	c.Round.Padding = 0
	c.Round.Slots[0].Length++
	for hyper%c.Round.Period() == 0 {
		c.Round.Slots[0].Length++
	}
	return c
}

// TestNormalizeAllocs: on a finalized application Config.Normalize
// searches the cached divisors of the hyper-period and allocates
// nothing, on the divide fast path and on the padding search alike.
func TestNormalizeAllocs(t *testing.T) {
	app, _, cfg := genConfig(t, 7, 10)
	for name, c := range map[string]*Config{"divides": cfg.Clone(), "padded": unpaddedConfig(t, app, cfg)} {
		got := testing.AllocsPerRun(10, func() {
			if err := c.Normalize(app); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Errorf("%s: Normalize %v allocs/op, want 0", name, got)
		}
	}
	if c := unpaddedConfig(t, app, cfg); c.Normalize(app) != nil || c.Round.Padding == 0 {
		t.Errorf("padded round got no padding: %v", c.Round)
	}
}

// fig9Nodes are the node counts of the paper's Fig. 9 systems, 40
// processes per node: 80 to 400 processes.
var fig9Nodes = []int{2, 4, 6, 8, 10}

// BenchmarkNormalize times Config.Normalize of a move that changed a
// slot length (the padding search) on the Fig. 9 systems.
func BenchmarkNormalize(b *testing.B) {
	for _, nodes := range fig9Nodes {
		b.Run(fmt.Sprintf("procs=%d", 40*nodes), func(b *testing.B) {
			sys, err := gen.Paper(nodes, 1)
			if err != nil {
				b.Fatal(err)
			}
			app, arch := sys.Application, sys.Architecture
			c := unpaddedConfig(b, app, DefaultConfig(app, arch))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Normalize(app); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchSizes are the processes-per-node counts of the per-layer
// benchmarks: the benchmark corpus's small systems, the allocation pin's
// system, and the paper's 40.
var benchSizes = []int{4, 10, 40}

// BenchmarkAnalyzeCold times one cold MultiClusterScheduling run.
func BenchmarkAnalyzeCold(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("ppn=%d", n), func(b *testing.B) {
			app, arch, cfg := genConfig(b, 7, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Analyze(app, arch, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAnalyzeMemo times one analysis through a fresh stage memo:
// every stage misses and pays its key encoding and insert.
func BenchmarkAnalyzeMemo(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("ppn=%d", n), func(b *testing.B) {
			app, arch, cfg := genConfig(b, 7, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := NewMemo(app, arch).analyzeStages(cfg, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// keySink keeps the benchmarked key alive.
var keySink string

// BenchmarkConfigKey times the full-configuration memo key of the SF
// configuration of the paper's Fig. 9 systems (2 to 10 nodes, 40
// processes per node), with one pinned process and message so that all
// four maps are encoded.
func BenchmarkConfigKey(b *testing.B) {
	for _, nodes := range fig9Nodes {
		b.Run(fmt.Sprintf("procs=%d", 40*nodes), func(b *testing.B) {
			sys, err := gen.Paper(nodes, 1)
			if err != nil {
				b.Fatal(err)
			}
			app, arch := sys.Application, sys.Architecture
			cfg := DefaultConfig(app, arch)
			if err := cfg.Normalize(app); err != nil {
				b.Fatal(err)
			}
			cfg = cfg.PinProc(app.Procs[0].ID, 1).PinEdge(app.Edges[0].ID, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				keySink = ConfigKey(cfg)
			}
		})
	}
}

// cloneSink keeps the benchmarked copy alive.
var cloneSink *Config

// BenchmarkConfigClone times one pin-free copy of the SF configuration
// of the paper's Fig. 9 systems, the copy every move and every OS
// candidate makes.
func BenchmarkConfigClone(b *testing.B) {
	for _, nodes := range fig9Nodes {
		b.Run(fmt.Sprintf("procs=%d", 40*nodes), func(b *testing.B) {
			sys, err := gen.Paper(nodes, 1)
			if err != nil {
				b.Fatal(err)
			}
			app, arch := sys.Application, sys.Architecture
			cfg := DefaultConfig(app, arch)
			if err := cfg.Normalize(app); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cloneSink = cfg.Clone()
			}
		})
	}
}

// TestConfigCloneAllocs caps a pin-free Clone at its measured count on
// every Fig. 9 system: the Config, the round's slots and one backing
// array for both priority vectors.
func TestConfigCloneAllocs(t *testing.T) {
	const ceiling = 3
	for _, nodes := range fig9Nodes {
		sys, err := gen.Paper(nodes, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(sys.Application, sys.Architecture)
		if got := testing.AllocsPerRun(20, func() { cloneSink = cfg.Clone() }); got > ceiling {
			t.Errorf("%d nodes: Clone makes %v allocations, want at most %d", nodes, got, ceiling)
		}
	}
}
