package service

import (
	"errors"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/solve"
	"repro/internal/store"
)

// ErrNoTrace reports a job submitted while tracing was disabled, or one
// replayed from the journal (the trace died with the process that
// recorded it).
var ErrNoTrace = errors.New("service: no trace recorded for this job")

// Trace returns the span tree recorded for a job: queue wait, solver
// acquisition (and where the session came from), the run phases
// surfaced by the Solver's progress stream, and result persistence.
// Snapshots are safe at any time; a finished job's tree is fully
// closed.
func (s *Service) Trace(id string) (*obs.TraceSnapshot, error) {
	j, err := s.job(id)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	tr := j.trace
	j.mu.Unlock()
	if tr == nil {
		return nil, ErrNoTrace
	}
	return tr.Snapshot(), nil
}

// registerMetrics wires the service onto the metrics registry. Two
// instrument styles: scrape-time funcs adapt counters the service
// already maintains (cache stats, store stats, queue depth) without
// double bookkeeping; event-driven instruments (job totals, latency
// histograms, SSE drops) are fed at the transition sites. All timing
// flows from the injected clock, so the deterministic layers stay
// wallclock-free and tests drive latency histograms with fake clocks.
func (s *Service) registerMetrics() {
	r := s.obsReg
	if r == nil {
		return
	}

	// Queue and job population.
	r.GaugeFunc("mcs_queue_depth", "Jobs accepted but not yet claimed by a runner.",
		func() float64 { return float64(len(s.queue)) })
	r.GaugeFunc("mcs_queue_capacity", "Bounded job queue capacity.",
		func() float64 { return float64(cap(s.queue)) })
	for _, state := range []JobState{StateQueued, StateRunning, StateDone, StateCanceled, StateFailed} {
		r.GaugeFunc("mcs_jobs", "Tracked jobs by current state.",
			func() float64 { return float64(s.jobCounts()[state]) },
			obs.L("state", string(state)))
	}

	// Solver LRU cache.
	r.CounterFunc("mcs_solver_cache_hits_total", "Solver sessions served from the LRU cache.",
		func() float64 { h, _, _ := s.cache.stats(); return float64(h) })
	r.CounterFunc("mcs_solver_cache_misses_total", "Solver sessions built cold.",
		func() float64 { _, m, _ := s.cache.stats(); return float64(m) })
	r.GaugeFunc("mcs_solver_cache_size", "Base Solver sessions currently cached.",
		func() float64 { _, _, n := s.cache.stats(); return float64(n) })

	// Incremental-evaluation caches, aggregated across cached sessions.
	deltaStat := func(sel func(core.MemoStats) int64) func() float64 {
		return func() float64 { return float64(sel(s.cache.deltaStats())) }
	}
	r.CounterFunc("mcs_delta_config_hits_total", "Full-configuration memo hits across cached sessions.",
		deltaStat(func(d core.MemoStats) int64 { return d.ConfigHits }))
	r.CounterFunc("mcs_delta_config_misses_total", "Full-configuration memo misses across cached sessions.",
		deltaStat(func(d core.MemoStats) int64 { return d.ConfigMisses }))
	for _, stage := range []struct {
		name string
		hit  func(core.MemoStats) int64
		miss func(core.MemoStats) int64
	}{
		{"schedule", func(d core.MemoStats) int64 { return d.ScheduleHits }, func(d core.MemoStats) int64 { return d.ScheduleMisses }},
		{"rta", func(d core.MemoStats) int64 { return d.RTAHits }, func(d core.MemoStats) int64 { return d.RTAMisses }},
		{"queue", func(d core.MemoStats) int64 { return d.QueueHits }, func(d core.MemoStats) int64 { return d.QueueMisses }},
	} {
		r.CounterFunc("mcs_memo_hits_total", "Stage-cache hits across cached sessions.",
			deltaStat(stage.hit), obs.L("cache", stage.name))
		r.CounterFunc("mcs_memo_misses_total", "Stage-cache misses across cached sessions.",
			deltaStat(stage.miss), obs.L("cache", stage.name))
	}
	// What the cached sessions hold: a session no job runs on keeps its
	// whole analyses (config) only.
	for _, t := range []struct {
		name string
		n    func(core.MemoEntries) int
	}{
		{"config", func(e core.MemoEntries) int { return e.Config }},
		{"schedule", func(e core.MemoEntries) int { return e.Schedule }},
		{"rta", func(e core.MemoEntries) int { return e.RTA }},
		{"queue", func(e core.MemoEntries) int { return e.Queue }},
	} {
		r.GaugeFunc("mcs_memo_entries", "Memo table entries held across cached sessions.",
			func() float64 { return float64(t.n(s.cache.memoEntries())) }, obs.L("table", t.name))
	}

	// Durability layer (zero-valued while running purely in memory).
	storeStat := func(sel func(store.Stats) float64) func() float64 {
		return func() float64 {
			if s.st == nil {
				return 0
			}
			return sel(s.st.Stats())
		}
	}
	r.CounterFunc("mcs_store_appends_total", "Journal records appended since open.",
		storeStat(func(x store.Stats) float64 { return float64(x.Appends) }))
	r.CounterFunc("mcs_store_fsyncs_total", "File and directory fsyncs since open (journal and results log).",
		storeStat(func(x store.Stats) float64 { return float64(x.Fsyncs) }))
	r.CounterFunc("mcs_store_compactions_total", "Journal rewrites since open.",
		storeStat(func(x store.Stats) float64 { return float64(x.Compactions) }))
	r.CounterFunc("mcs_store_torn_tails_total", "Torn journal and results-log tails found at open.",
		storeStat(func(x store.Stats) float64 { return float64(x.TornTails) }))
	r.CounterFunc("mcs_store_results_stored_total", "Results persisted to the durable store.",
		storeStat(func(x store.Stats) float64 { return float64(x.ResultsStored) }))
	r.CounterFunc("mcs_store_results_expired_total", "Persisted results evicted by TTL.",
		storeStat(func(x store.Stats) float64 { return float64(x.ResultsExpired) }))
	r.CounterFunc("mcs_solver_persistent_hits_total", "Jobs served byte-identical from the persistent result store.",
		storeStat(func(x store.Stats) float64 { return float64(x.PersistentHits) }))
	r.CounterFunc("mcs_solver_persistent_misses_total", "Persistent result store lookups that missed.",
		storeStat(func(x store.Stats) float64 { return float64(x.PersistentMisses) }))
	r.GaugeFunc("mcs_store_segments", "Journal segments on disk.",
		storeStat(func(x store.Stats) float64 { return float64(x.Segments) }))
	r.GaugeFunc("mcs_store_journal_bytes", "Journal footprint in bytes.",
		storeStat(func(x store.Stats) float64 { return float64(x.JournalBytes) }))
	r.GaugeFunc("mcs_store_result_bytes", "Results-log footprint in bytes: the latest unexpired result per key (live) and the rest (dead).",
		storeStat(func(x store.Stats) float64 { return float64(x.ResultsLiveBytes) }), obs.L("state", "live"))
	r.GaugeFunc("mcs_store_result_bytes", "Results-log footprint in bytes: the latest unexpired result per key (live) and the rest (dead).",
		storeStat(func(x store.Stats) float64 { return float64(x.ResultsDeadBytes) }), obs.L("state", "dead"))
	r.CounterFunc("mcs_store_errors_total", "Non-fatal journal/result-store write failures.",
		func() float64 { return float64(s.storeErrs.Load()) })

	// Progress fan-out.
	r.GaugeFunc("mcs_sse_subscribers", "Live progress subscribers across all jobs.",
		func() float64 { return float64(s.subscriberCount()) })
	s.sseDropped = r.Counter("mcs_sse_dropped_total",
		"Progress events dropped on slow subscriber channels (the seq field exposes the gap).")

	// Evaluation engine. The hook is process-wide (the engine has no
	// per-call handle to thread a registry through), so the last service
	// to register wins — in the one-service-per-process daemon that is
	// exactly the running service.
	r.GaugeFunc("mcs_engine_pool_workers", "Configured per-batch evaluation worker bound.",
		func() float64 { return float64(s.opts.Workers) })
	engine.SetMetrics(&engine.Metrics{
		Batches:   r.Counter("mcs_engine_batches_total", "Evaluation batches executed."),
		Tasks:     r.Counter("mcs_engine_tasks_total", "Individual evaluation tasks executed."),
		BatchSize: r.Histogram("mcs_engine_batch_size", "Items per evaluation batch.", obs.SizeBuckets),
		Workers:   r.Histogram("mcs_engine_batch_workers", "Effective workers per batch after clamping to the item count.", obs.SizeBuckets),
	})
}

// subscriberCount counts live progress subscribers across all jobs.
func (s *Service) subscriberCount() int {
	n := 0
	for _, j := range s.snapshot() {
		j.mu.Lock()
		n += len(j.subs)
		j.mu.Unlock()
	}
	return n
}

// startTrace opens the job's trace with the queue span; called from
// enqueue under s.mu once the ID exists. No-op unless tracing is on.
func (s *Service) startTrace(j *job) {
	if !s.tracing {
		return
	}
	j.trace = obs.NewTrace(s.obsClock, "job")
	root := j.trace.Root()
	root.SetAttr("id", j.id)
	root.SetAttr("kind", string(j.kind))
	root.SetAttr("fingerprint", j.fingerprint)
	root.SetAttr("strategy", j.strategy)
	j.queueSpan = root.Start("queue")
}

// jobStarted marks the queued→running transition on the observability
// planes: the queue span closes, the queue-wait histogram observes, and
// the start is logged. Returns the run-phase parent span (nil when
// tracing is off — the nil span is a no-op).
func (s *Service) jobStarted(j *job) {
	j.queueSpan.End()
	if !j.enqueuedAt.IsZero() {
		s.obsHist("mcs_job_queue_wait_seconds", "Time from acceptance to a runner claiming the job.",
			obs.L("kind", string(j.kind))).Observe(j.startedAt.Sub(j.enqueuedAt).Seconds())
	}
	s.log.Debug("job started", "job", j.id, "kind", string(j.kind), "fingerprint", j.fingerprint)
}

// jobFinished marks a terminal transition: the trace closes (ending any
// still-open spans), the per-kind job counters and latency histogram
// record, and the outcome is logged with the job's identity attributes.
func (s *Service) jobFinished(j *job, state JobState, errMsg string) {
	j.trace.End()
	var dur time.Duration
	if !j.startedAt.IsZero() {
		dur = s.clock.Now().Sub(j.startedAt)
	}
	if r := s.obsReg; r != nil {
		r.Counter("mcs_jobs_total", "Terminal job transitions by kind and state.",
			obs.L("kind", string(j.kind)), obs.L("state", string(state))).Inc()
		if !j.startedAt.IsZero() {
			s.obsHist("mcs_job_duration_seconds", "Running time of finished jobs.",
				obs.L("kind", string(j.kind))).Observe(dur.Seconds())
		}
	}
	log := s.log.Info
	if state == StateFailed {
		log = s.log.Warn
	}
	log("job finished",
		"job", j.id, "kind", string(j.kind), "fingerprint", j.fingerprint,
		"state", string(state), "duration", dur, "error", errMsg)
}

// obsHist is shorthand for a histogram lookup on the service registry
// (nil instrument — a no-op — when metrics are off).
func (s *Service) obsHist(name, help string, labels ...obs.Label) *obs.Histogram {
	return s.obsReg.Histogram(name, help, obs.DurationBuckets, labels...)
}

// phaseTracker sits between the Solver's progress stream and the job's
// subscriber fan-out: it forwards every event unchanged and, on phase
// transitions, closes the previous phase span, opens the next one under
// the run span, and feeds the per-phase duration histogram. All timing
// comes from the injected clock at this boundary — the Solver itself
// stays wallclock-free.
type phaseTracker struct {
	svc  *Service
	job  *job
	span *obs.Span // the run span phases nest under

	mu    sync.Mutex
	name  string
	start time.Time
	cur   *obs.Span
}

// observe is the job's solve.Observer. Without metrics or tracing its
// span and histogram are nil, and nil instruments are no-ops.
func (t *phaseTracker) observe(p solve.Progress) {
	t.mu.Lock()
	if p.Phase != t.name {
		now := t.svc.clock.Now()
		t.closeLocked(now)
		t.name, t.start = p.Phase, now
		t.cur = t.span.Start("phase:" + p.Phase)
	}
	t.mu.Unlock()
	t.job.publish(p)
}

// close ends the final phase once the run returns.
func (t *phaseTracker) close() {
	t.mu.Lock()
	t.closeLocked(t.svc.clock.Now())
	t.mu.Unlock()
}

func (t *phaseTracker) closeLocked(now time.Time) {
	if t.name == "" {
		return
	}
	t.svc.obsHist("mcs_solve_phase_seconds", "Duration of solver run phases, measured at the observer boundary.",
		obs.L("phase", t.name)).Observe(now.Sub(t.start).Seconds())
	t.cur.End()
	t.name = ""
	t.cur = nil
}
