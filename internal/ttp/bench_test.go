package ttp

import (
	"fmt"
	"testing"

	"repro/internal/model"
)

// benchCycle is a hyper-period with many divisors (2^6 * 3^3 * 5^2
// ticks), the shape of the generated applications' period sets.
const benchCycle model.Time = 43200

// benchRound returns a round of n slots owned by nodes 0..n-1 whose
// lengths sum to a value that does not divide benchCycle, so
// PadToDivide has to search the divisors.
func benchRound(n int) Round {
	r := Round{Slots: make([]Slot, n)}
	for i := range r.Slots {
		r.Slots[i] = Slot{Node: model.NodeID(i), Length: model.Time(36 + 4*i)}
	}
	r.Slots[0].Length++
	return r
}

// roundSink keeps the benchmarked round alive.
var roundSink Round

// BenchmarkRoundPadToDivide times the padding search that follows every
// slot move (Config.Normalize) on rounds of 3, 6 and 11 slots.
func BenchmarkRoundPadToDivide(b *testing.B) {
	divs := model.Divisors(benchCycle)
	for _, n := range []int{3, 6, 11} {
		b.Run(fmt.Sprintf("slots=%d", n), func(b *testing.B) {
			r := benchRound(n)
			if err := r.PadToDivide(benchCycle, divs); err != nil || r.Padding == 0 {
				b.Fatalf("padding %d, error %v: the round must need padding", r.Padding, err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := r.PadToDivide(benchCycle, divs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRoundClone times the round copy every Config.Clone makes, on
// rounds of 3, 6 and 11 slots.
func BenchmarkRoundClone(b *testing.B) {
	for _, n := range []int{3, 6, 11} {
		b.Run(fmt.Sprintf("slots=%d", n), func(b *testing.B) {
			r := benchRound(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				roundSink = r.Clone()
			}
		})
	}
}
