package tsched

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/ttp"
)

// benchInput is the first tsched.Build input of every
// MultiClusterScheduling run on a gen system (2 TT + 2 ET nodes, 8
// forced inter-cluster messages): its default round, no releases, no
// pins.
func benchInput(tb testing.TB, ppn int) Input {
	tb.Helper()
	sys, err := gen.Generate(gen.Spec{Seed: 7, TTNodes: 2, ETNodes: 2, ProcsPerNode: ppn, InterClusterMsgs: 8})
	if err != nil {
		tb.Fatal(err)
	}
	app, arch := sys.Application, sys.Architecture
	round := ttp.NewRound(arch.SlotOwners(), func(n model.NodeID) model.Time {
		return MinSlotLength(app, arch, n)
	})
	hyper, divs, err := app.HyperDivisors()
	if err != nil {
		tb.Fatal(err)
	}
	if err := round.PadToDivide(hyper, divs); err != nil {
		tb.Fatal(err)
	}
	return Input{App: app, Arch: arch, Round: round}
}

// buildAllocs are the exact allocation counts of one Build of the
// benchInput systems by processes per node. A Build allocates its dense
// state and the schedule it returns, independent of the job count
// except for the maps' bucket arrays.
var buildAllocs = map[int]float64{4: 13, 10: 20, 40: 20}

// TestBuildAllocs pins the allocations of one Build.
func TestBuildAllocs(t *testing.T) {
	for _, ppn := range []int{4, 10, 40} {
		in := benchInput(t, ppn)
		got := testing.AllocsPerRun(10, func() {
			if _, err := Build(in); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("ppn=%d: %v allocs/op", ppn, got)
		if got > buildAllocs[ppn] {
			t.Errorf("ppn=%d: Build %v allocs/op, ceiling %v", ppn, got, buildAllocs[ppn])
		}
	}
}

// BenchmarkBuild times one static schedule of the benchInput systems.
func BenchmarkBuild(b *testing.B) {
	for _, ppn := range []int{4, 10, 40} {
		b.Run(fmt.Sprintf("ppn=%d", ppn), func(b *testing.B) {
			in := benchInput(b, ppn)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Build(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
