package can

import (
	"testing"

	"repro/internal/model"
)

// timeSink keeps the benchmarked frame times alive.
var timeSink model.Time

// BenchmarkTimeOf times the worst-case CAN frame time of a message, the
// C of every bus task the analysis lays out: derived from the size
// (0 to 64 bytes, so one to eight frames with stuffing) and served from
// an explicit override.
func BenchmarkTimeOf(b *testing.B) {
	bus := model.CANConfig{BitTime: 2}
	derived := make([]model.Edge, 65)
	for i := range derived {
		derived[i] = model.Edge{Size: i}
	}
	override := []model.Edge{{Size: 8, CANTime: 20}}
	for _, bc := range []struct {
		name  string
		edges []model.Edge
	}{{"derived", derived}, {"override", override}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				timeSink = TimeOf(&bc.edges[i%len(bc.edges)], bus)
			}
		})
	}
}
