package solve

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// TestConfigSaveLoadRoundTrip checks that core.LoadConfig accepts every
// configuration a strategy or an exploration returns, and that Save →
// LoadConfig → Save reproduces the file byte for byte, over
// gen.Corpus(8, 1, 4).
func TestConfigSaveLoadRoundTrip(t *testing.T) {
	ctx := context.Background()
	for i, spec := range gen.Corpus(8, 1, 4) {
		sys, err := gen.Generate(spec)
		if err != nil {
			t.Fatalf("corpus member %d: %v", i, err)
		}
		app, arch := sys.Application, sys.Architecture
		s, err := New(app, arch, WithWorkers(1), WithSAIterations(60), WithSARestarts(1))
		if err != nil {
			t.Fatal(err)
		}
		var cfgs []*core.Config
		for _, strat := range Strategies() {
			r, err := s.SynthesizeWith(ctx, strat)
			if err != nil {
				t.Fatalf("member %d %v: %v", i, strat, err)
			}
			cfgs = append(cfgs, r.Config)
		}
		front, err := s.Explore(ctx, WithPopulation(6), WithGenerations(2))
		if err != nil {
			t.Fatalf("member %d explore: %v", i, err)
		}
		for _, p := range front.Front {
			cfgs = append(cfgs, p.Config)
		}
		for k, cfg := range cfgs {
			var first, second bytes.Buffer
			if err := cfg.Save(&first); err != nil {
				t.Fatalf("member %d config %d: Save: %v", i, k, err)
			}
			loaded, err := core.LoadConfig(bytes.NewReader(first.Bytes()), app, arch)
			if err != nil {
				t.Fatalf("member %d config %d: LoadConfig: %v", i, k, err)
			}
			if err := loaded.Save(&second); err != nil {
				t.Fatalf("member %d config %d: Save after LoadConfig: %v", i, k, err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Errorf("member %d config %d: Save → LoadConfig → Save differs:\n%s\n---\n%s", i, k, first.Bytes(), second.Bytes())
			}
		}
	}
}
