package delta

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// keySink keeps the benchmarked key alive.
var keySink string

// BenchmarkConfigKey times the full-configuration memo key of the SF
// configuration of the paper's Fig. 9 systems (2 to 10 nodes, 40
// processes per node), with one pinned process and message so that all
// four maps are encoded.
func BenchmarkConfigKey(b *testing.B) {
	for _, nodes := range []int{2, 4, 6, 8, 10} {
		b.Run(fmt.Sprintf("procs=%d", 40*nodes), func(b *testing.B) {
			sys, err := gen.Paper(nodes, 1)
			if err != nil {
				b.Fatal(err)
			}
			app, arch := sys.Application, sys.Architecture
			cfg := core.DefaultConfig(app, arch)
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
