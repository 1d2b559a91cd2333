package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/solve"
	"repro/internal/store"
)

// Errors returned by Submit.
var (
	// ErrQueueFull rejects a submit when the bounded job queue is at
	// capacity; clients retry with backoff (HTTP 429).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDraining rejects a submit during shutdown (HTTP 503).
	ErrDraining = errors.New("service: draining, not accepting jobs")
	// ErrUnknownJob reports a job ID the service has never issued.
	ErrUnknownJob = errors.New("service: unknown job")
)

// errJournal wraps a failed submit journal append: the fault is the
// server's, not the request's (HTTP 500).
var errJournal = errors.New("service: journaling submit")

// errDrainCanceled is the cancel cause handed to in-flight jobs when
// the drain grace period expires; they return best-so-far results.
var errDrainCanceled = errors.New("service: drain grace period expired")

// Options tunes a Service. Zero values select the documented defaults.
type Options struct {
	// Workers bounds each evaluation batch of a job: no batch runs more
	// than Workers analyses at once (default runtime.NumCPU()). The
	// bound is per batch, so JobWorkers concurrent jobs may together
	// run up to JobWorkers × Workers. Results are identical for every
	// value.
	Workers int
	// JobWorkers is the number of jobs synthesized concurrently
	// (default 2).
	JobWorkers int
	// QueueDepth bounds the backlog of accepted-but-not-running jobs
	// (default 64); Submit returns ErrQueueFull beyond it.
	QueueDepth int
	// CacheSize bounds the Solver LRU (default 128 sessions).
	CacheSize int
	// Retention bounds how many terminal jobs stay pollable (default
	// 1024): beyond it the oldest-finished jobs are forgotten, so a
	// long-lived daemon's memory is bounded by its configuration, not
	// by its traffic history.
	Retention int
	// Store is the durability layer: every job state transition is
	// journaled to it before being acknowledged on the wire, finished
	// results are persisted under the request key, and New replays its
	// journal — unfinished jobs are re-enqueued, finished ones become
	// pollable again with their durable results. Nil (the default)
	// keeps today's purely in-memory behavior.
	Store store.Store
	// Clock stamps journal records and drives result TTL expiry
	// (default store.SystemClock). Tests inject a fake clock;
	// synthesis results never depend on it. The same clock feeds every
	// observability timestamp (trace spans, latency histograms), so the
	// service adds no wall-clock read of its own.
	Clock store.Clock
	// Metrics is the registry the service registers its instruments on;
	// nil (the default) disables metrics at zero cost — the nil
	// instruments compile to no-ops on the hot paths.
	Metrics *obs.Registry
	// Tracing records a per-job span tree (queue wait, solver
	// acquisition, run phases, persistence) served on
	// GET /v1/jobs/{id}/trace.
	Tracing bool
	// Logger receives structured job lifecycle logs with job, kind and
	// fingerprint attributes; nil discards them.
	Logger *slog.Logger
}

func (o *Options) normalize() {
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.JobWorkers <= 0 {
		o.JobWorkers = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.CacheSize <= 0 {
		o.CacheSize = 128
	}
	if o.Retention <= 0 {
		o.Retention = 1024
	}
}

// Service owns the job queue, the runner goroutines and the Solver
// cache. Create one with New, serve it over HTTP with NewHandler, stop
// it with Drain (graceful) or Close (immediate best-so-far).
type Service struct {
	opts    Options
	cache   *solverCache
	clock   store.Clock
	st      store.Store // nil = in-memory only; set once, in New
	queue   chan *job
	runners sync.WaitGroup

	baseCtx    context.Context
	cancelBase context.CancelFunc

	// Observability plane: obsReg is nil when metrics are off (every
	// derived instrument is then a no-op), obsClock adapts the injected
	// store clock for trace timestamps, sseDropped is the pre-registered
	// fan-out drop counter shared by every job.
	obsReg     *obs.Registry
	obsClock   obs.Clock
	tracing    bool
	log        *slog.Logger
	sseDropped *obs.Counter

	storeErrs atomic.Int64 // non-fatal journal/result-store write failures

	mu       sync.Mutex
	jobs     map[string]*job
	terminal []string // finished job IDs, oldest first, for retention
	nextID   int
	draining bool
	replayed int // jobs reconstructed from the journal at startup
	requeued int // replayed jobs that were re-enqueued to run again
}

// New starts a Service: JobWorkers runner goroutines draw from the
// bounded queue until Drain/Close. With a Store configured, New first
// replays the journal: terminal jobs become pollable again (done
// results load from the persistent result store), unfinished jobs are
// re-enqueued ahead of new traffic, and the journal is compacted down
// to the surviving state before the runners start.
func New(opts Options) *Service {
	opts.normalize()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		opts:       opts,
		cache:      newSolverCache(opts.CacheSize),
		clock:      opts.Clock,
		st:         opts.Store,
		baseCtx:    ctx,
		cancelBase: cancel,
		jobs:       make(map[string]*job),
	}
	if s.clock == nil {
		s.clock = store.SystemClock()
	}
	// Observability timestamps ride the same injected clock as the
	// journal, so enabling metrics or tracing introduces no new
	// wall-clock read site.
	s.obsReg = opts.Metrics
	s.obsClock = obs.ClockFunc(s.clock.Now)
	s.tracing = opts.Tracing
	s.log = opts.Logger
	if s.log == nil {
		s.log = slog.New(slog.DiscardHandler)
	}
	pending := s.restore()
	depth := opts.QueueDepth
	if len(pending) > depth {
		depth = len(pending) // every replayed job must be accepted back
	}
	s.queue = make(chan *job, depth)
	for _, j := range pending {
		s.queue <- j
	}
	if s.st != nil {
		if _, rep := s.st.Replay(); rep.Records > 0 || rep.Segments > 1 || len(rep.Torn) > 0 {
			s.compact() // rewrite replayed history down to live state
		}
	}
	if s.replayed > 0 {
		s.log.Info("journal replayed", "jobs", s.replayed, "requeued", s.requeued)
	}
	s.registerMetrics()
	s.runners.Add(opts.JobWorkers)
	for i := 0; i < opts.JobWorkers; i++ {
		// Job runners are the service's long-lived queue consumers, not
		// per-request fan-out; the per-job parallelism inside a runner
		// rides the engine's batch primitives via the Solver sessions.
		//mcs:allow poolonly long-lived job-queue runners; per-job fan-out rides engine.Map/EvaluateAll inside the Solver
		go func() {
			defer s.runners.Done()
			for j := range s.queue {
				s.run(j)
			}
		}()
	}
	return s
}

// job is the service-side state of one asynchronous request of either
// kind.
type job struct {
	id   string
	kind JobKind
	// req is the normalized wire request; nil once the job is retired
	// and for jobs replayed as terminal.
	req         request
	fingerprint string
	// strategy is the display name of the strategy (what replayed
	// terminal jobs recover from the journal).
	strategy string
	// key is the persistent result cache key (fingerprint + option
	// digest); rawReq is the journaled wire request, kept until the job
	// is terminal so compaction can re-emit it.
	key    string
	rawReq json.RawMessage

	ctx    context.Context
	cancel context.CancelCauseFunc

	// Observability state, written before the job is visible to runners
	// (enqueue) or under mu (startedAt): trace/queueSpan are nil unless
	// tracing is on, sseDropped is nil unless metrics are on — nil
	// instruments are no-ops, so publish and run never branch on
	// configuration. enqueuedAt/startedAt feed the latency histograms
	// from the injected clock; replayed jobs carry zero times and are
	// skipped.
	trace      *obs.Trace
	queueSpan  *obs.Span
	sseDropped *obs.Counter
	enqueuedAt time.Time
	startedAt  time.Time

	mu       sync.Mutex
	state    JobState
	errMsg   string
	events   []ProgressEvent
	subs     map[chan ProgressEvent]struct{}
	result   *JobResult
	progress *ProgressEvent
	done     chan struct{}
}

// Submit validates and enqueues an asynchronous synthesis job. The
// request's system is finalized in place; the job is rejected when the
// service is draining or the queue is full.
func (s *Service) Submit(req SynthesisRequest) (*SubmitResponse, error) { return s.submit(&req) }

// SubmitExplore validates and enqueues an asynchronous design-space
// exploration job. It shares Submit's queue, backpressure, Solver
// cache and lifecycle; only the executed operation (Solver.Explore)
// and the result shape (a Pareto front) differ.
func (s *Service) SubmitExplore(req ExploreRequest) (*SubmitResponse, error) { return s.submit(&req) }

// submit normalizes a request of either kind into a job and enqueues
// it. With a store, the wire request is captured for the journal: the
// encoding is what a crash-restarted service decodes to re-run the job.
func (s *Service) submit(req request) (*SubmitResponse, error) {
	strategy, fp, key, err := req.normalize()
	if err != nil {
		return nil, err
	}
	j := &job{kind: req.kind(), req: req, strategy: strategy, fingerprint: fp, key: key}
	if s.st != nil {
		if j.rawReq, err = json.Marshal(req); err != nil {
			return nil, fmt.Errorf("service: encoding request for the journal: %w", err)
		}
	}
	return s.enqueue(j)
}

// enqueue assigns an ID and a context to a validated job, journals the
// submission, and offers it to the bounded queue under the intake
// lock. The journal append happens after the capacity check but before
// the acknowledgement: a rejected job leaves no record, an accepted
// one is durable before its 202 exists.
func (s *Service) enqueue(j *job) (*SubmitResponse, error) {
	j.state = StateQueued
	j.subs = make(map[chan ProgressEvent]struct{})
	j.done = make(chan struct{})

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	s.nextID++
	j.id = fmt.Sprintf("j%06d-%s", s.nextID, j.fingerprint[:8])
	j.ctx, j.cancel = context.WithCancelCause(s.baseCtx)
	// Every send happens under s.mu and runners only drain, so a
	// length check cannot race another producer.
	if len(s.queue) == cap(s.queue) {
		j.cancel(ErrQueueFull) // release the context before rejecting
		return nil, ErrQueueFull
	}
	if err := s.appendRecord(j.submitRecord(j.rawReq)); err != nil {
		j.cancel(err)
		return nil, fmt.Errorf("%w: %w", errJournal, err)
	}
	// Observability fields must be in place before the queue send: a
	// runner may claim the job the instant it lands.
	j.enqueuedAt = s.clock.Now()
	j.sseDropped = s.sseDropped
	s.startTrace(j)
	s.queue <- j
	s.jobs[j.id] = j
	s.log.Info("job accepted",
		"job", j.id, "kind", string(j.kind), "fingerprint", j.fingerprint, "strategy", j.strategy)
	return &SubmitResponse{
		ID:          j.id,
		Kind:        j.kind,
		Fingerprint: j.fingerprint,
		StatusURL:   "/v1/jobs/" + j.id,
		EventsURL:   "/v1/jobs/" + j.id + "/events",
	}, nil
}

// run executes one job on a cached (or freshly built) Solver session.
func (s *Service) run(j *job) {
	j.mu.Lock()
	if j.state != StateQueued { // canceled while queued
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.startedAt = s.clock.Now()
	req := j.req
	j.mu.Unlock()

	s.jobStarted(j)
	s.appendRecord(store.Record{Op: store.OpStart, Job: j.id})
	// Idempotent execution: an identical request that already finished
	// — a duplicate client submission, or this very job replayed after
	// a crash that hit between its completion and the finish record —
	// is served from the persistent result store, byte-identical to
	// the cold run that produced it.
	acquire := j.trace.Root().Start("solver")
	if s.st != nil && j.key != "" {
		if data, ok := s.st.GetResult(j.key); ok {
			if res, err := decodeStoredResult(data); err == nil {
				acquire.SetAttr("source", "persistent")
				acquire.End()
				s.finishJob(j, res, nil)
				return
			}
		}
	}

	sys := req.system()
	session, hit, err := s.cache.acquire(j.fingerprint, func() (*solve.Solver, error) {
		return solve.New(sys.Application, sys.Architecture,
			solve.WithWorkers(s.opts.Workers))
	})
	if err != nil {
		acquire.End()
		s.finishJob(j, nil, err)
		return
	}
	if hit {
		acquire.SetAttr("source", "lru")
	} else {
		acquire.SetAttr("source", "build")
	}
	acquire.End()
	// One base session per system serves every option variant and both
	// job kinds: Derive re-normalizes the request options from scratch
	// while sharing the seed-independent caches, so a whole
	// seed/strategy/exploration sweep over one system rides a single
	// cache entry. The phase tracker forwards progress to the fan-out
	// and times the run phases at this (non-deterministic-layer)
	// boundary.
	// The hold ends before the job does, so once Done fires the last
	// job's session keeps only whole analyses.
	tracker := &phaseTracker{svc: s, job: j, span: j.trace.Root().Start("run")}
	result, err := req.run(j.ctx, session.solver, s.opts.Workers, solve.WithObserver(tracker.observe), hit)
	s.cache.release(session)
	tracker.close()
	tracker.span.End()
	s.finishJob(j, result, err)
}

// finishJob flips a running job to its terminal state and completes the
// transition; it is a no-op when the job already was terminal.
func (s *Service) finishJob(j *job, result *JobResult, err error) {
	if j.finish(result, err) {
		s.complete(j)
	}
}

// complete is the one terminal tail, run once a job's state has flipped
// (by its runner, or by Cancel while queued): the persisted result
// (full, non-partial outcomes only — a canceled job's best-so-far is
// not byte-identical to a cold run and must never be served as one),
// the journal finish record, the closed trace and the job counters, and
// retirement, which releases the job last. The result is stored before
// the finish record so a crash between the two replays the job as
// unfinished and re-runs (or persistent-hits) it, instead of leaving a
// done job with no loadable result.
func (s *Service) complete(j *job) {
	j.mu.Lock()
	state, errMsg, res := j.state, j.errMsg, j.result
	j.mu.Unlock()
	if s.st != nil {
		persist := j.trace.Root().Start("persist")
		if state == StateDone && res != nil && !res.Partial && !res.PersistentHit && j.key != "" {
			if blob, encErr := canonicalResult(res); encErr == nil {
				if putErr := s.st.PutResult(j.key, blob); putErr != nil {
					s.storeErrs.Add(1)
					s.log.Warn("result persist failed", "job", j.id, "error", putErr)
				}
			} else {
				s.storeErrs.Add(1)
				s.log.Warn("result encoding failed", "job", j.id, "error", encErr)
			}
		}
		s.appendRecord(j.finishRecord(state, errMsg))
		persist.End()
	}
	s.jobFinished(j, state, errMsg)
	s.retire(j)
}

// canonicalResult encodes a result for the persistent store with the
// per-run flags cleared, so cached serves do not depend on how the
// first run happened to execute (Solver-LRU hit or not).
func canonicalResult(res *JobResult) ([]byte, error) {
	c := *res
	c.CacheHit = false
	c.PersistentHit = false
	return json.Marshal(&c)
}

// retire completes a terminal transition once its effects are visible
// (result stored, finish record journaled, trace closed, job counted).
// It frees the request payload (the decoded system is the bulk of its
// footprint; the Solver cache keeps its own reference), evicts the
// oldest-finished jobs beyond the retention bound, and then releases
// the job: Done fires and the SSE streams end. With a store, it finally
// triggers journal compaction once the segment count reaches its
// bound, so the journal footprint tracks live state rather than
// traffic history.
func (s *Service) retire(j *job) {
	j.mu.Lock()
	j.req = nil
	j.rawReq = nil // terminal jobs compact to slim records; the payload is dead weight
	j.mu.Unlock()
	s.mu.Lock()
	s.terminal = append(s.terminal, j.id)
	for len(s.terminal) > s.opts.Retention {
		delete(s.jobs, s.terminal[0])
		s.terminal = s.terminal[1:]
	}
	s.mu.Unlock()
	j.release()
	if s.st != nil && s.st.Stats().Segments >= compactAtSegments {
		s.compact()
	}
}

// publish fans a progress event out to the job's subscribers. Sends are
// non-blocking: a slow subscriber misses events (the Seq field reveals
// the gap) rather than stalling the synthesis.
func (j *job) publish(p solve.Progress) {
	ev := ProgressEvent{
		Strategy:    p.Strategy.String(),
		Phase:       p.Phase,
		Chain:       p.Chain,
		Step:        p.Step,
		Evaluations: p.Evaluations,
		BestDelta:   p.BestDelta,
		BestBuffers: p.BestBuffers,
		Schedulable: p.Schedulable,
		FrontSize:   p.FrontSize,
		Hypervolume: p.Hypervolume,
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	ev.Seq = len(j.events) + 1
	j.events = append(j.events, ev)
	j.progress = &ev
	//mcs:allow maporder every subscriber receives the same event and channels are independent, so delivery order across subscribers cannot affect any output
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
			j.sseDropped.Inc() // the subscriber sees the gap via Seq
		}
	}
}

// finish flips the job to its terminal state, after which no progress
// event is published; it reports false when the job already was
// terminal. A non-nil result arriving with an error is a best-so-far
// outcome and is marked Partial. Subscribers, Done and the context are
// released separately, by release, once the terminal work is visible.
func (j *job) finish(result *JobResult, err error) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	if result != nil {
		result.Partial = err != nil
		j.result = result
	}
	switch {
	case err == nil:
		j.state = StateDone
	case errors.Is(err, context.Canceled):
		// Only genuine cancellations (client cancel or drain) land
		// here; a real failure racing the drain deadline stays failed.
		j.state = StateCanceled
		j.errMsg = cancelMessage(j.ctx, err)
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
	}
	return true
}

// release ends a terminal job's observable transition: the SSE streams
// close, Done fires and the context is released. It runs last, so
// "done" is a barrier: whoever sees it also sees every effect of the
// terminal transition.
func (j *job) release() {
	j.mu.Lock()
	for ch := range j.subs {
		close(ch)
	}
	j.subs = make(map[chan ProgressEvent]struct{})
	close(j.done)
	j.mu.Unlock()
	j.cancel(nil)
}

// releasedLocked reports whether release has run; j.mu must be held.
func (j *job) releasedLocked() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

// cancelMessage prefers the cancellation cause (client cancel vs drain)
// over the bare context error.
func cancelMessage(ctx context.Context, err error) string {
	if cause := context.Cause(ctx); cause != nil && !errors.Is(cause, context.Canceled) {
		return cause.Error()
	}
	return err.Error()
}

// Status returns the polling view of a job.
func (s *Service) Status(id string) (*JobStatus, error) {
	j, err := s.job(id)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	if j.state.Terminal() && !j.releasedLocked() {
		// A terminal state is reported only once its effects are
		// visible: wait out the (brief) terminal work.
		j.mu.Unlock()
		<-j.done
		j.mu.Lock()
	}
	defer j.mu.Unlock()
	return &JobStatus{
		ID:          j.id,
		Kind:        j.kind,
		State:       j.state,
		Fingerprint: j.fingerprint,
		Strategy:    j.strategy,
		Progress:    j.progress,
		Result:      j.result,
		Error:       j.errMsg,
	}, nil
}

// Subscribe returns a channel of the job's progress events: the history
// so far is replayed first, live events follow, and the channel closes
// when the job reaches a terminal state. The returned cancel function
// detaches the subscriber early.
func (s *Service) Subscribe(id string) (<-chan ProgressEvent, func(), error) {
	j, err := s.job(id)
	if err != nil {
		return nil, nil, err
	}
	j.mu.Lock()
	// Size for the whole history plus a live tail; live sends beyond
	// the buffer are dropped, not blocked on.
	ch := make(chan ProgressEvent, len(j.events)+256)
	for _, ev := range j.events {
		ch <- ev
	}
	if j.releasedLocked() {
		close(ch)
		j.mu.Unlock()
		return ch, func() {}, nil
	}
	j.subs[ch] = struct{}{}
	j.mu.Unlock()

	unsubscribe := func() {
		j.mu.Lock()
		if _, live := j.subs[ch]; live {
			delete(j.subs, ch)
			close(ch)
		}
		j.mu.Unlock()
	}
	return ch, unsubscribe, nil
}

// Done returns a channel closed when the job reaches a terminal state
// and every effect of the transition is visible: the result is stored,
// the finish record journaled, the trace closed and the job counted.
func (s *Service) Done(id string) (<-chan struct{}, error) {
	j, err := s.job(id)
	if err != nil {
		return nil, err
	}
	return j.done, nil
}

// Cancel cancels a job: queued jobs terminate immediately, running jobs
// stop at the next evaluation granule and keep their best-so-far
// configuration.
func (s *Service) Cancel(id string) error {
	j, err := s.job(id)
	if err != nil {
		return err
	}
	j.mu.Lock()
	if j.state == StateQueued {
		j.state = StateCanceled
		j.errMsg = "canceled before running"
		j.mu.Unlock()
		// The runner skips terminal jobs, so the terminal tail runs
		// here.
		s.complete(j)
		return nil
	}
	terminal := j.state.Terminal()
	j.mu.Unlock()
	if !terminal {
		// Journal the cancellation intent before delivering it: if the
		// process dies before the job winds down, replay resolves the
		// job to canceled instead of re-running work nobody wants.
		s.appendRecord(store.Record{Op: store.OpCancel, Job: j.id})
		s.log.Info("job cancel requested", "job", j.id, "kind", string(j.kind))
	}
	j.cancel(context.Canceled)
	return nil
}

func (s *Service) job(id string) (*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return j, nil
}

// Analyze runs a synchronous batch analysis on a cached Solver session.
// Per-configuration decode and analysis failures land in the matching
// outcome; the call fails only for an invalid system or a canceled ctx.
func (s *Service) Analyze(ctx context.Context, req AnalysisRequest) (*AnalysisResponse, error) {
	fp, err := normalizeSystem(req.System)
	if err != nil {
		return nil, err
	}
	session, hit, err := s.cache.get(fp, func() (*solve.Solver, error) {
		return solve.New(req.System.Application, req.System.Architecture, solve.WithWorkers(s.opts.Workers))
	})
	if err != nil {
		return nil, err
	}
	solver := session.solver
	app, arch := solver.Application(), solver.Architecture()

	resp := &AnalysisResponse{Fingerprint: fp, CacheHit: hit}
	if len(req.Configs) == 0 {
		r, err := solver.Straightforward(ctx)
		if err != nil {
			return nil, err
		}
		resp.Results = []AnalysisOutcome{{Analysis: summarize(r.Analysis)}}
		return resp, nil
	}

	resp.Results = make([]AnalysisOutcome, len(req.Configs))
	var cfgs []*core.Config
	var idx []int
	for i, raw := range req.Configs {
		cfg, err := core.LoadConfig(bytes.NewReader(raw), app, arch)
		if err != nil {
			resp.Results[i].Error = err.Error()
			continue
		}
		cfgs = append(cfgs, cfg)
		idx = append(idx, i)
	}
	evals, err := solver.AnalyzeAll(ctx, cfgs)
	if err != nil {
		return nil, err
	}
	for k, ev := range evals {
		if ev.Err != nil {
			resp.Results[idx[k]].Error = ev.Err.Error()
			continue
		}
		resp.Results[idx[k]].Analysis = summarize(ev.Analysis)
	}
	return resp, nil
}

// Drain gracefully shuts the service down: intake stops (Submit returns
// ErrDraining), queued and running jobs are given until ctx expires to
// finish, then the stragglers are canceled so they terminate with their
// best-so-far configurations. Drain returns once every runner has
// exited; it is safe to call more than once.
func (s *Service) Drain(ctx context.Context) {
	s.mu.Lock()
	first := !s.draining
	s.draining = true
	if first {
		close(s.queue) // Submit sends under s.mu with draining false, so this cannot race
	}
	s.mu.Unlock()

	finished := make(chan struct{})
	//mcs:allow poolonly drain bridges the runners WaitGroup into a select against the grace ctx
	go func() {
		s.runners.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-ctx.Done():
		s.cancelJobs(errDrainCanceled)
		<-finished
	}
	if first {
		s.cancelJobs(errDrainCanceled) // flush jobs canceled while queued
		s.cancelBase()
	}
}

// cancelJobs cancels every non-terminal job with the given cause.
func (s *Service) cancelJobs(cause error) {
	for _, j := range s.snapshot() {
		j.mu.Lock()
		terminal := j.state.Terminal()
		j.mu.Unlock()
		if !terminal {
			j.cancel(cause)
		}
	}
}

// Close shuts down immediately: like Drain with an expired grace
// period, so in-flight jobs return best-so-far results.
func (s *Service) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Drain(ctx)
}

// Stats is a point-in-time snapshot for health endpoints.
type Stats struct {
	Jobs        map[JobState]int `json:"jobs"`
	CacheHits   int              `json:"cacheHits"`
	CacheMisses int              `json:"cacheMisses"`
	CacheSize   int              `json:"cacheSize"`
	Draining    bool             `json:"draining"`
	// Store reports the durability layer's counters; nil when the
	// service runs purely in memory.
	Store *StoreStats `json:"store,omitempty"`
}

// StoreStats merges the store's own counters with the service-level
// replay outcome for /healthz.
type StoreStats struct {
	store.Stats
	// ReplayedJobs counts jobs reconstructed from the journal at
	// startup; RequeuedJobs of those were unfinished and re-enqueued.
	ReplayedJobs int `json:"replayedJobs"`
	RequeuedJobs int `json:"requeuedJobs"`
	// Errors counts non-fatal store write failures since startup.
	Errors int64 `json:"errors,omitempty"`
}

// Stats snapshots the job, cache and durability counters.
func (s *Service) Stats() Stats {
	st := Stats{Jobs: s.jobCounts()}
	st.CacheHits, st.CacheMisses, st.CacheSize = s.cache.stats()
	s.mu.Lock()
	st.Draining = s.draining
	replayed, requeued := s.replayed, s.requeued
	s.mu.Unlock()
	if s.st != nil {
		st.Store = &StoreStats{
			Stats:        s.st.Stats(),
			ReplayedJobs: replayed,
			RequeuedJobs: requeued,
			Errors:       s.storeErrs.Load(),
		}
	}
	return st
}

// snapshot returns the tracked jobs in ID order, taken under the intake
// lock; callers then lock each job on its own.
func (s *Service) snapshot() []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, id := range slices.Sorted(maps.Keys(s.jobs)) {
		jobs = append(jobs, s.jobs[id])
	}
	return jobs
}

// jobCounts counts the tracked jobs by state: /healthz and the mcs_jobs
// gauges read the same count.
func (s *Service) jobCounts() map[JobState]int {
	counts := make(map[JobState]int)
	for _, j := range s.snapshot() {
		j.mu.Lock()
		counts[j.state]++
		j.mu.Unlock()
	}
	return counts
}
