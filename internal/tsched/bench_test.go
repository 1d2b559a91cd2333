package tsched

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/ttp"
)

// BenchmarkBuild times one static schedule of a gen system (2 TT + 2 ET
// nodes, 8 forced inter-cluster messages) under its default round, the
// first tsched.Build of every MultiClusterScheduling run.
func BenchmarkBuild(b *testing.B) {
	for _, ppn := range []int{4, 10, 40} {
		b.Run(fmt.Sprintf("ppn=%d", ppn), func(b *testing.B) {
			sys, err := gen.Generate(gen.Spec{Seed: 7, TTNodes: 2, ETNodes: 2, ProcsPerNode: ppn, InterClusterMsgs: 8})
			if err != nil {
				b.Fatal(err)
			}
			app, arch := sys.Application, sys.Architecture
			round := ttp.NewRound(arch.SlotOwners(), func(n model.NodeID) model.Time {
				return MinSlotLength(app, arch, n)
			})
			hyper, err := app.Hyperperiod()
			if err != nil {
				b.Fatal(err)
			}
			if err := round.PadToDivide(hyper); err != nil {
				b.Fatal(err)
			}
			in := Input{App: app, Arch: arch, Round: round}
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
