package engine

import (
	"sync/atomic"

	"repro/internal/obs"
)

// Metrics is the engine's instrumentation hook: counters and histograms
// the batch primitives feed while running. Only counting instruments
// are used — no clocks, randomness, or map iteration — so attaching
// metrics never perturbs batch results or worker scheduling.
type Metrics struct {
	// Batches counts Map invocations that ran at least one item.
	Batches *obs.Counter
	// Tasks counts individual items executed across all batches.
	Tasks *obs.Counter
	// BatchSize observes the item count of each batch.
	BatchSize *obs.Histogram
	// Workers observes the effective worker count of each batch (after
	// clamping to the item count), exposing how much of the worker
	// bound a workload actually uses.
	Workers *obs.Histogram
}

// metrics is the process-wide hook, swapped atomically so Map can load
// it with one atomic read per batch. A nil pointer (the default) or a
// Metrics full of nil instruments both cost nothing beyond that load.
var metrics atomic.Pointer[Metrics]

// SetMetrics installs the process-wide engine metrics (nil uninstalls).
// Call once at service start-up, before batches run.
func SetMetrics(m *Metrics) { metrics.Store(m) }

// observeBatch records one Map invocation of n items on workers
// goroutines.
func observeBatch(n, workers int) {
	m := metrics.Load()
	if m == nil {
		return
	}
	m.Batches.Inc()
	m.Tasks.Add(uint64(n))
	m.BatchSize.Observe(float64(n))
	m.Workers.Observe(float64(workers))
}
