package tsched_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/tsched"
)

// buildCorpusDigest is the SHA-256 prefix of every schedule that
// TestBuildCorpusDigest builds. It was recorded on the map-based
// scheduler, before its state became dense, so a rewrite that changes
// any start time, arrival, MEDL entry or cyclicity flag fails here.
const buildCorpusDigest = "fc97e220d4e8b98c"

// corpusInputs returns, for every member of gen.Corpus(48, 1, 4) and
// gen.Corpus(16, 1, 10), the four scheduler inputs of the straightforward
// (SF) configuration: its round alone, plus the ET->TT release offsets of
// its first analysis, plus one pinned TT process, plus one pinned TTP
// message.
func corpusInputs(t *testing.T) []tsched.Input {
	t.Helper()
	specs := append(gen.Corpus(48, 1, 4), gen.Corpus(16, 1, 10)...)
	var ins []tsched.Input
	for i, spec := range specs {
		sys, err := gen.Generate(spec)
		if err != nil {
			t.Fatalf("corpus member %d: %v", i, err)
		}
		app, arch := sys.Application, sys.Architecture
		cfg := core.DefaultConfig(app, arch)
		if err := cfg.Normalize(app); err != nil {
			t.Fatalf("member %d: Normalize: %v", i, err)
		}
		a, err := core.Analyze(app, arch, cfg)
		if err != nil {
			t.Fatalf("member %d: Analyze: %v", i, err)
		}
		release := make(map[model.ProcID]model.Time)
		for _, e := range app.Edges {
			if a.Edge[e.ID].Route != model.RouteETtoTT {
				continue
			}
			if d := a.Edge[e.ID].Delivery; d > release[e.Dst] {
				release[e.Dst] = d
			}
		}
		base := tsched.Input{App: app, Arch: arch, Round: cfg.Round}
		withRelease := base
		withRelease.ReleaseOffset = release
		pinProc, pinEdge := base, base
		for _, p := range app.Procs {
			if arch.Kind(p.Node) == model.TimeTriggered {
				pinProc.PinnedProc = map[model.ProcID]model.Time{p.ID: app.PeriodOf(p.ID) / 4}
				break
			}
		}
		for _, e := range app.Edges {
			if app.RouteOf(e.ID, arch).UsesTTP() {
				pinEdge.PinnedEdge = map[model.EdgeID]model.Time{e.ID: app.EdgePeriod(e.ID) / 3}
				break
			}
		}
		ins = append(ins, base, withRelease, pinProc, pinEdge)
	}
	return ins
}

// appendSchedule encodes a schedule's observable content: start times
// by ProcID, arrivals by EdgeID, the MEDL entries in table order and the
// cyclicity flag.
func appendSchedule(b []byte, app *model.Application, s *tsched.Schedule) []byte {
	for p := range app.Procs {
		starts := s.ProcStart[model.ProcID(p)]
		b = binary.AppendVarint(b, int64(len(starts)))
		for _, v := range starts {
			b = binary.AppendVarint(b, v)
		}
	}
	for e := range app.Edges {
		arr := s.EdgeArrival[model.EdgeID(e)]
		b = binary.AppendVarint(b, int64(len(arr)))
		for _, v := range arr {
			b = binary.AppendVarint(b, v)
		}
	}
	b = binary.AppendVarint(b, int64(len(s.MEDL.Entries)))
	for _, m := range s.MEDL.Entries {
		for _, v := range []int64{int64(m.Edge), int64(m.Instance), int64(m.Slot), int64(m.Round), int64(m.Bytes), m.Start, m.End} {
			b = binary.AppendVarint(b, v)
		}
	}
	if s.WithinCycle {
		return append(b, 1)
	}
	return append(b, 0)
}

// TestBuildCorpusDigest pins tsched.Build bit for bit over a corpus of
// generated systems under the SF round, release offsets and pins.
func TestBuildCorpusDigest(t *testing.T) {
	h := sha256.New()
	var b []byte
	for i, in := range corpusInputs(t) {
		s, err := tsched.Build(in)
		if err != nil {
			t.Fatalf("input %d: Build: %v", i, err)
		}
		b = appendSchedule(b[:0], in.App, s)
		h.Write(b)
	}
	if got := hex.EncodeToString(h.Sum(nil))[:16]; got != buildCorpusDigest {
		t.Errorf("Build corpus digest %s, want %s", got, buildCorpusDigest)
	}
}
