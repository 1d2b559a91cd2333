package solve

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/gen"
)

// progressStreamDigest pins the progress stream bit for bit; see
// TestProgressStreamDigest.
const progressStreamDigest = "067bd3deccd03c4e"

// appendProgress renders every field of p explicitly, in declaration
// order, so the digest depends on the values and not on how the event
// type is laid out or encoded.
func appendProgress(b []byte, p Progress) []byte {
	b = append(b, p.Strategy.String()...)
	b = append(b, 0)
	b = append(b, p.Phase...)
	b = append(b, 0)
	b = binary.AppendVarint(b, int64(p.Chain))
	b = binary.AppendVarint(b, int64(p.Step))
	b = binary.AppendVarint(b, int64(p.Evaluations))
	b = binary.AppendVarint(b, int64(p.BestDelta))
	b = binary.AppendVarint(b, int64(p.BestBuffers))
	if p.Schedulable {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendVarint(b, int64(p.FrontSize))
	return binary.AppendUvarint(b, math.Float64bits(p.Hypervolume))
}

// TestProgressStreamDigest pins the observer stream of every strategy
// and of an exploration over gen.Corpus(4, 1, 4): one worker, two
// annealing chains, each event hashed in delivery order. A change to
// which events are emitted, their order or any field's value shows.
func TestProgressStreamDigest(t *testing.T) {
	h := sha256.New()
	var b []byte
	var events []Progress
	record := func(p Progress) { events = append(events, p) }
	for i, spec := range gen.Corpus(4, 1, 4) {
		sys, err := gen.Generate(spec)
		if err != nil {
			t.Fatalf("corpus member %d: %v", i, err)
		}
		s, err := New(sys.Application, sys.Architecture,
			WithWorkers(1), WithSARestarts(2), WithObserver(record))
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for _, strat := range []Strategy{Straightforward, OptimizeSchedule, OptimizeResources, SAS, SAR} {
			if _, err := s.SynthesizeWith(ctx, strat); err != nil {
				t.Fatalf("member %d, %v: %v", i, strat, err)
			}
		}
		if _, err := s.Explore(ctx, WithPopulation(6), WithGenerations(2)); err != nil {
			t.Fatalf("member %d, explore: %v", i, err)
		}
		b = binary.AppendUvarint(b[:0], uint64(len(events)))
		for _, p := range events {
			b = appendProgress(b, p)
		}
		h.Write(b)
		events = events[:0]
	}
	if got := hex.EncodeToString(h.Sum(nil))[:16]; got != progressStreamDigest {
		t.Errorf("progress stream digest %s, want %s", got, progressStreamDigest)
	}
}
