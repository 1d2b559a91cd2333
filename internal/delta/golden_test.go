package delta

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/model"
)

// configKeyDigest is the SHA-256 prefix of the ConfigKey bytes of every
// configuration TestConfigKeyGolden builds. It was recorded on the
// reflection-sorted encoder; any change to the key bytes fails here.
const configKeyDigest = "946c1d8358653138"

// TestConfigKeyGolden pins ConfigKey byte for byte over the corpus of
// the tsched Build digest: for every member of gen.Corpus(48, 1, 4) and
// gen.Corpus(16, 1, 10), the SF configuration alone, with one pinned TT
// process and with one pinned TTP message.
func TestConfigKeyGolden(t *testing.T) {
	h := sha256.New()
	specs := append(gen.Corpus(48, 1, 4), gen.Corpus(16, 1, 10)...)
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
		h.Write([]byte(ConfigKey(cfg)))
		for _, p := range app.Procs {
			if arch.Kind(p.Node) == model.TimeTriggered {
				h.Write([]byte(ConfigKey(cfg.PinProc(p.ID, app.PeriodOf(p.ID)/4))))
				break
			}
		}
		for _, e := range app.Edges {
			if app.RouteOf(e.ID, arch).UsesTTP() {
				h.Write([]byte(ConfigKey(cfg.PinEdge(e.ID, app.EdgePeriod(e.ID)/3))))
				break
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil))[:16]; got != configKeyDigest {
		t.Errorf("ConfigKey corpus digest %s, want %s", got, configKeyDigest)
	}
}
