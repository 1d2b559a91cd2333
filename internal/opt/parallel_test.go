package opt

import (
	"context"
	"reflect"
	"testing"
)

// TestOptimizeScheduleParallelEqualsSerial checks the engine contract
// on the OS heuristic: the full result (best, seeds, evaluation count)
// of a parallel run is identical to the serial run's.
func TestOptimizeScheduleParallelEqualsSerial(t *testing.T) {
	app, arch := small(t, 7)
	serial, err := OptimizeSchedule(context.Background(), app, arch, OSOptions{Workers: 1, Hooks: cold(app, arch)})
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	for _, workers := range []int{2, 8} {
		par, err := OptimizeSchedule(context.Background(), app, arch, OSOptions{Workers: workers, Hooks: cold(app, arch)})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if par.Evaluations != serial.Evaluations {
			t.Errorf("workers=%d: %d evaluations, serial did %d", workers, par.Evaluations, serial.Evaluations)
		}
		if !reflect.DeepEqual(par.Best.Config, serial.Best.Config) {
			t.Errorf("workers=%d: best config differs from serial", workers)
		}
		if !reflect.DeepEqual(par.Best.Analysis, serial.Best.Analysis) {
			t.Errorf("workers=%d: best analysis differs from serial", workers)
		}
		if len(par.Seeds) != len(serial.Seeds) {
			t.Fatalf("workers=%d: %d seeds, serial found %d", workers, len(par.Seeds), len(serial.Seeds))
		}
		for i := range par.Seeds {
			if !reflect.DeepEqual(par.Seeds[i].Config, serial.Seeds[i].Config) {
				t.Errorf("workers=%d: seed %d differs from serial", workers, i)
			}
		}
	}
}

// TestOptimizeResourcesParallelEqualsSerial checks that the
// hill-climbing outcome (including the rng-driven neighbourhood walk)
// does not depend on the worker count.
func TestOptimizeResourcesParallelEqualsSerial(t *testing.T) {
	app, arch := small(t, 3)
	opts := OROptions{MaxIterations: 6, NeighborBudget: 12, RandSeed: 5, Hooks: cold(app, arch)}
	serialOpts := opts
	serialOpts.Workers = 1
	serial, err := OptimizeResources(context.Background(), app, arch, serialOpts)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	for _, workers := range []int{2, 8} {
		parOpts := opts
		parOpts.Workers = workers
		par, err := OptimizeResources(context.Background(), app, arch, parOpts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if par.Evaluations != serial.Evaluations || par.Improved != serial.Improved {
			t.Errorf("workers=%d: evals=%d improved=%v, serial evals=%d improved=%v",
				workers, par.Evaluations, par.Improved, serial.Evaluations, serial.Improved)
		}
		if !reflect.DeepEqual(par.Best.Config, serial.Best.Config) {
			t.Errorf("workers=%d: best config differs from serial", workers)
		}
		if par.Best.STotal() != serial.Best.STotal() || par.Best.Delta() != serial.Best.Delta() {
			t.Errorf("workers=%d: best (s_total=%d, delta=%d), serial (%d, %d)",
				workers, par.Best.STotal(), par.Best.Delta(), serial.Best.STotal(), serial.Best.Delta())
		}
	}
}
