package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/gen"
	"repro/internal/model"
)

// analyzeCorpusDigest is the SHA-256 prefix of every analysis that
// TestAnalyzeCorpusDigest runs. It was recorded while Analysis, Buffers
// and the schedule still held their per-ID results in maps, so a change
// of representation that moves any result field fails here.
const analyzeCorpusDigest = "f43289b0776f885b"

// pinnedConfig returns cfg with its first TT process and its first TTP
// message pinned.
func pinnedConfig(app *model.Application, arch *model.Architecture, cfg *Config) *Config {
	pinned := cfg.Clone()
	pinned.PinnedProc = map[model.ProcID]model.Time{}
	pinned.PinnedEdge = map[model.EdgeID]model.Time{}
	for _, p := range app.Procs {
		if arch.Kind(p.Node) == model.TimeTriggered {
			pinned.PinnedProc[p.ID] = app.PeriodOf(p.ID) / 4
			break
		}
	}
	for _, e := range app.Edges {
		if app.RouteOf(e.ID, arch).UsesTTP() {
			pinned.PinnedEdge[e.ID] = app.EdgePeriod(e.ID) / 3
			break
		}
	}
	return pinned
}

// appendAnalysis encodes every result field of an analysis in ID order:
// the process and edge results, the graph responses, the scalar verdicts
// and the queue bounds with their critical messages, OutN per node in
// node order (0 and -1 for a node without an OutN queue).
func appendAnalysis(t *testing.T, b []byte, app *model.Application, arch *model.Architecture, a *Analysis) []byte {
	t.Helper()
	putBool := func(v bool) {
		if v {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	put := func(vs ...int64) {
		for _, v := range vs {
			b = binary.AppendVarint(b, v)
		}
	}
	if len(a.Proc) != len(app.Procs) || len(a.Edge) != len(app.Edges) {
		t.Fatalf("%d process and %d edge results for %d processes and %d edges",
			len(a.Proc), len(a.Edge), len(app.Procs), len(app.Edges))
	}
	for _, pr := range a.Proc {
		put(pr.O, pr.J, pr.W, pr.R)
		putBool(pr.Converged)
	}
	for _, er := range a.Edge {
		put(int64(er.Route), er.TTPArrival, er.CANO, er.CANJ, er.CANW, er.CANR,
			er.QueueJ, er.QueueW, int64(er.QueueI), er.Delivery)
		putBool(er.Converged)
	}
	put(int64(len(a.GraphResp)))
	put(a.GraphResp...)
	put(a.Delta, int64(a.Iterations))
	putBool(a.Schedulable)
	putBool(a.Converged)
	bf := &a.Buffers
	put(int64(bf.OutCAN), int64(bf.CriticalOutCAN), int64(bf.OutTTP), int64(bf.CriticalOutTTP), int64(bf.Total))
	if len(bf.OutNode) != len(arch.Nodes) || len(bf.CriticalOutNode) != len(arch.Nodes) {
		t.Fatalf("OutN bounds for %d and %d nodes, want %d", len(bf.OutNode), len(bf.CriticalOutNode), len(arch.Nodes))
	}
	for n, bound := range bf.OutNode {
		put(int64(bound), int64(bf.CriticalOutNode[n]))
	}
	return b
}

// TestAnalyzeCorpusDigest pins the analysis bit for bit over every
// member of gen.Corpus(48, 1, 4) and gen.Corpus(16, 1, 10): the
// normalized default configuration and its pinnedConfig, each analyzed
// cold and through a Memo the two share.
func TestAnalyzeCorpusDigest(t *testing.T) {
	h := sha256.New()
	var b []byte
	for i, spec := range append(gen.Corpus(48, 1, 4), gen.Corpus(16, 1, 10)...) {
		sys, err := gen.Generate(spec)
		if err != nil {
			t.Fatalf("corpus member %d: %v", i, err)
		}
		app, arch := sys.Application, sys.Architecture
		cfg := DefaultConfig(app, arch)
		if err := cfg.Normalize(app); err != nil {
			t.Fatalf("member %d: Normalize: %v", i, err)
		}
		memo := NewMemo(app, arch)
		for k, cfg := range []*Config{cfg, pinnedConfig(app, arch, cfg)} {
			cold, err := Analyze(app, arch, cfg)
			if err != nil {
				t.Fatalf("member %d config %d: Analyze: %v", i, k, err)
			}
			warm, err := memo.Analyze(cfg)
			if err != nil {
				t.Fatalf("member %d config %d: Memo.Analyze: %v", i, k, err)
			}
			for _, a := range []*Analysis{cold, warm} {
				b = appendAnalysis(t, b[:0], app, arch, a)
				h.Write(b)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil))[:16]; got != analyzeCorpusDigest {
		t.Errorf("Analyze corpus digest %s, want %s", got, analyzeCorpusDigest)
	}
}
