package core_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/opt"
)

// configSaveDigest is the SHA-256 prefix of every Save output that
// TestConfigSaveDigest writes. It was recorded while Config held its
// priorities in maps, so a change of representation that moves one
// byte of the file encoding fails here.
const configSaveDigest = "73b773f568147c3b"

// TestConfigSaveDigest pins Config.Save byte for byte over every member
// of gen.Corpus(48, 1, 4) and gen.Corpus(16, 1, 10): the normalized
// default configuration, the OptimizeSchedule result (HOPA's
// priorities on the best round) and the PinnedConfig of each.
func TestConfigSaveDigest(t *testing.T) {
	h := sha256.New()
	var buf bytes.Buffer
	for i, spec := range append(gen.Corpus(48, 1, 4), gen.Corpus(16, 1, 10)...) {
		sys, err := gen.Generate(spec)
		if err != nil {
			t.Fatalf("corpus member %d: %v", i, err)
		}
		app, arch := sys.Application, sys.Architecture
		cfg := core.DefaultConfig(app, arch)
		if err := cfg.Normalize(app); err != nil {
			t.Fatalf("member %d: Normalize: %v", i, err)
		}
		memo := core.NewMemo(app, arch)
		osr, err := opt.OptimizeSchedule(context.Background(), app, arch, opt.OSOptions{Hooks: opt.Hooks{Eval: memo.Analyze}})
		if err != nil {
			t.Fatalf("member %d: OptimizeSchedule: %v", i, err)
		}
		for k, c := range []*core.Config{cfg, osr.Best.Config, core.PinnedConfig(app, arch, cfg), core.PinnedConfig(app, arch, osr.Best.Config)} {
			buf.Reset()
			if err := c.Save(&buf); err != nil {
				t.Fatalf("member %d config %d: Save: %v", i, k, err)
			}
			h.Write(buf.Bytes())
		}
	}
	if got := hex.EncodeToString(h.Sum(nil))[:16]; got != configSaveDigest {
		t.Errorf("Save digest %s, want %s", got, configSaveDigest)
	}
}
