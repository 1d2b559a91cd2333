package gateway_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/gen"
	"repro/internal/model"
)

// BenchmarkAnalyzeOutTTP times one OutTTP queue analysis on the paper's
// Fig. 9 systems (2 to 10 nodes, 40 processes per node): the ET->TT
// messages of the SF configuration, entering the queue at the offsets
// and jitters of its converged analysis.
func BenchmarkAnalyzeOutTTP(b *testing.B) {
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
			a, err := core.Analyze(app, arch, cfg)
			if err != nil {
				b.Fatal(err)
			}
			hyper, err := app.Hyperperiod()
			if err != nil {
				b.Fatal(err)
			}
			var msgs []gateway.QueueMsg
			for _, e := range app.Edges {
				er := a.Edge[e.ID]
				if er.Route != model.RouteETtoTT {
					continue
				}
				msgs = append(msgs, gateway.QueueMsg{
					Name: e.Name, Size: e.Size, T: app.EdgePeriod(e.ID),
					O: er.CANO, J: er.QueueJ, Priority: cfg.MsgPriority[e.ID], Trans: e.Graph,
				})
			}
			p := gateway.TTPQueueParams{
				Round: cfg.Round, GatewaySlot: cfg.Round.SlotIndexOf(arch.Gateway),
				TickPerByte: arch.TTP.TickPerByte, Horizon: 8 * hyper,
			}
			b.ReportMetric(float64(len(msgs)), "msgs")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := gateway.AnalyzeOutTTP(msgs, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
