package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/model"
	"repro/internal/solve"
)

// SynthesisRequest asks the service to synthesize a configuration for
// one system. System uses the same JSON encoding as SaveSystem/mcs-gen,
// so a generated system file can be pasted into the request verbatim.
// The remaining fields mirror the Solver options; zero values select
// the Solver defaults (strategy "sf", seed 1, 300 annealing iterations,
// 1 restart chain).
type SynthesisRequest struct {
	System *model.System `json:"system"`
	// Strategy is the paper's algorithm name: sf, os, or, sas or sar
	// (case-insensitive; empty selects sf, the straightforward
	// baseline).
	Strategy     string `json:"strategy,omitempty"`
	Seed         int64  `json:"seed,omitempty"`
	SAIterations int    `json:"saIterations,omitempty"`
	SARestarts   int    `json:"saRestarts,omitempty"`
}

// request is the seam between the job lifecycle and the job kinds: the
// service submits, journals, queues, runs, replays and retires every
// job the same way, and only these methods differ per kind.
// *SynthesisRequest and *ExploreRequest implement it.
type request interface {
	kind() JobKind
	// system is the embedded system; valid after normalize.
	system() *model.System
	// normalize validates the request, finalizes the embedded system
	// in place (JSON decoding bypasses the model builders) and resolves
	// the strategy display name, the cache fingerprint and the
	// persistent result key.
	normalize() (strategy, fingerprint, key string, err error)
	// run executes the request on a session derived from base and
	// projects the outcome onto the wire result. A non-nil result with
	// an error is a best-so-far outcome; a result encoding failure
	// surfaces as the error when the run itself succeeded.
	run(ctx context.Context, base *solve.Solver, workers int, observe solve.Option, cacheHit bool) (*JobResult, error)
}

// newRequest returns an empty request of the given kind for a
// journaled request body to decode into. Any kind but explore decodes
// as a synthesis, so a submit record without a kind still replays.
func newRequest(kind JobKind) request {
	if kind == KindExplore {
		return &ExploreRequest{}
	}
	return &SynthesisRequest{}
}

// normalizeSystem validates a wire system, finalizes it in place and
// returns its fingerprint.
func normalizeSystem(sys *model.System) (string, error) {
	if sys == nil || sys.Application == nil || sys.Architecture == nil {
		return "", fmt.Errorf("service: request must carry a system with both application and architecture")
	}
	if err := sys.Application.Finalize(sys.Architecture); err != nil {
		return "", err
	}
	return sys.Fingerprint()
}

func (r *SynthesisRequest) kind() JobKind         { return KindSynthesize }
func (r *SynthesisRequest) system() *model.System { return r.System }

// parseStrategy resolves the requested strategy (empty selects sf).
func (r *SynthesisRequest) parseStrategy() (solve.Strategy, error) {
	if r.Strategy == "" {
		return solve.Straightforward, nil
	}
	return solve.ParseStrategy(r.Strategy)
}

func (r *SynthesisRequest) normalize() (string, string, string, error) {
	fp, err := normalizeSystem(r.System)
	if err != nil {
		return "", "", "", err
	}
	strat, err := r.parseStrategy()
	if err != nil {
		return "", "", "", err
	}
	return strat.String(), fp, r.key(strat, fp), nil
}

// key derives the persistent result cache key of a normalized request:
// the system fingerprint plus a digest of every option that affects the
// result. Two submissions share a key when their normalized options are
// equal ({seed: 0} and {seed: 1} run the same synthesis), so every
// spelling of the defaults hits the same stored result.
func (r *SynthesisRequest) key(strat solve.Strategy, fp string) string {
	o := solve.Options{Seed: r.Seed, SAIterations: r.SAIterations, SARestarts: r.SARestarts}
	o.Normalize()
	return requestKey(KindSynthesize, fp, struct {
		Strategy     string
		Seed         int64
		SAIterations int
		SARestarts   int
	}{strat.String(), o.Seed, o.SAIterations, o.SARestarts})
}

// run synthesizes one configuration; Derive normalizes the zero option
// values.
func (r *SynthesisRequest) run(ctx context.Context, base *solve.Solver, workers int, observe solve.Option, cacheHit bool) (*JobResult, error) {
	strat, err := r.parseStrategy()
	if err != nil {
		return nil, err
	}
	res, err := base.Derive(
		solve.WithStrategy(strat),
		solve.WithSeed(r.Seed),
		solve.WithSAIterations(r.SAIterations),
		solve.WithSARestarts(r.SARestarts),
		solve.WithWorkers(workers),
		observe,
	).Synthesize(ctx)
	if res == nil || res.Config == nil {
		return nil, err
	}
	cfgJSON, encErr := encodeConfig(res.Config)
	if encErr != nil && err == nil {
		err = encErr
	}
	return &JobResult{
		Config:      cfgJSON,
		Analysis:    summarize(res.Analysis),
		Evaluations: res.Evaluations,
		CacheHit:    cacheHit,
	}, err
}

// ExploreRequest asks the service for an asynchronous multi-objective
// design-space exploration (the dse job kind): instead of a single
// configuration the job returns a Pareto front over (degree of
// schedulability, total buffer need, reserved TTP bus bandwidth).
// System uses the SaveSystem JSON encoding; zero option values select
// the solve.DSEOptions defaults (population 16, 12 generations, warm
// start enabled, seed 1).
type ExploreRequest struct {
	System *model.System `json:"system"`
	// Seed drives the exploration randomness (the front is identical
	// for every worker count under a fixed seed).
	Seed int64 `json:"seed,omitempty"`
	// Population and Generations bound the NSGA-II loop.
	Population  int `json:"population,omitempty"`
	Generations int `json:"generations,omitempty"`
	// MoveBudget is the §5.1 moves sampled per mutation (at most 256);
	// MaxMutations caps the moves stacked per offspring; ArchiveCap
	// bounds the non-dominated archive.
	MoveBudget   int `json:"moveBudget,omitempty"`
	MaxMutations int `json:"maxMutations,omitempty"`
	ArchiveCap   int `json:"archiveCap,omitempty"`
	// NoWarmStart skips the OS/OR warm start (by default the front
	// weakly dominates the single-objective results).
	NoWarmStart bool `json:"noWarmStart,omitempty"`
}

// maxMoveBudget bounds ExploreRequest.MoveBudget. GenerateMoves checks
// each candidate against the moves it kept so far, so a mutation costs
// quadratically in the budget.
const maxMoveBudget = 256

func (r *ExploreRequest) kind() JobKind         { return KindExplore }
func (r *ExploreRequest) system() *model.System { return r.System }

func (r *ExploreRequest) normalize() (string, string, string, error) {
	if r.MoveBudget > maxMoveBudget {
		return "", "", "", fmt.Errorf("service: moveBudget %d exceeds the maximum %d", r.MoveBudget, maxMoveBudget)
	}
	fp, err := normalizeSystem(r.System)
	if err != nil {
		return "", "", "", err
	}
	return solve.Explore.String(), fp, r.key(fp), nil
}

// key derives the persistent result cache key of a normalized
// exploration request from the options the exploration actually runs
// with (see SynthesisRequest.key). Seed 0 normalizes to 1, which is
// also the service sessions' seed that Solver.Explore falls back to.
func (r *ExploreRequest) key(fp string) string {
	o := dse.Options{Seed: r.Seed, Population: r.Population, Generations: r.Generations,
		MoveBudget: r.MoveBudget, MaxMutations: r.MaxMutations, ArchiveCap: r.ArchiveCap}
	o.Normalize()
	return requestKey(KindExplore, fp, struct {
		Seed         int64
		Population   int
		Generations  int
		MoveBudget   int
		MaxMutations int
		ArchiveCap   int
		NoWarmStart  bool
	}{o.Seed, o.Population, o.Generations, o.MoveBudget, o.MaxMutations, o.ArchiveCap, r.NoWarmStart})
}

// requestKey composes a result cache key: the full system fingerprint
// (already a hex SHA-256) plus the first 8 bytes of a SHA-256 over the
// job kind and the result-affecting options. The key doubles as the
// result file name, so it sticks to fingerprint-alphabet characters.
func requestKey(kind JobKind, fp string, opts any) string {
	raw, err := json.Marshal(opts)
	if err != nil {
		// Options are plain value structs; Marshal cannot fail on them.
		panic(fmt.Sprintf("service: encoding request key options: %v", err))
	}
	sum := sha256.Sum256(append(append([]byte(kind), 0), raw...))
	return fp + "." + hex.EncodeToString(sum[:8])
}

// run explores the Pareto front (possibly a canceled job's best-so-far
// front); solve.Explore defaults the zero option values.
func (r *ExploreRequest) run(ctx context.Context, base *solve.Solver, workers int, observe solve.Option, cacheHit bool) (*JobResult, error) {
	opts := []solve.DSEOption{
		solve.WithExploreSeed(r.Seed),
		solve.WithPopulation(r.Population),
		solve.WithGenerations(r.Generations),
		solve.WithMoveBudget(r.MoveBudget),
		solve.WithMaxMutations(r.MaxMutations),
		solve.WithArchiveCap(r.ArchiveCap),
	}
	if r.NoWarmStart {
		opts = append(opts, solve.WithWarmStart(false))
	}
	res, err := base.Derive(solve.WithWorkers(workers), observe).Explore(ctx, opts...)
	if res == nil || len(res.Front) == 0 {
		return nil, err
	}
	front, encErr := summarizeFront(res.Front)
	if encErr != nil && err == nil {
		err = encErr
	}
	return &JobResult{
		Front:       front,
		Hypervolume: res.Hypervolume,
		Evaluations: res.Evaluations,
		CacheHit:    cacheHit,
	}, err
}

// AnalysisRequest asks for a synchronous batch schedulability analysis:
// every configuration (core.Config.Save encoding) is analyzed against
// the system; an empty batch analyzes the system's default (SF)
// configuration.
type AnalysisRequest struct {
	System  *model.System     `json:"system"`
	Configs []json.RawMessage `json:"configs,omitempty"`
}

// AnalysisOutcome is the per-configuration result of an analysis batch:
// exactly one of Analysis and Error is set.
type AnalysisOutcome struct {
	Analysis *AnalysisSummary `json:"analysis,omitempty"`
	Error    string           `json:"error,omitempty"`
}

// AnalysisResponse answers an AnalysisRequest, in request order.
type AnalysisResponse struct {
	Fingerprint string            `json:"fingerprint"`
	CacheHit    bool              `json:"cacheHit"`
	Results     []AnalysisOutcome `json:"results"`
}

// AnalysisSummary is the wire form of a schedulability analysis: the
// verdict, the optimization objectives and the per-graph worst-case
// responses (full per-process detail stays in-process; see
// core.Analysis).
type AnalysisSummary struct {
	Schedulable bool `json:"schedulable"`
	// Delta is the degree of schedulability delta_Gamma (§5 of the
	// paper): positive = sum of deadline overruns, negative = aggregate
	// slack.
	Delta model.Time `json:"delta"`
	// BuffersTotal is s_total, the total buffer need the OR strategy
	// minimizes; OutCAN/OutTTP break out the shared gateway queues.
	BuffersTotal   int          `json:"buffersTotal"`
	OutCAN         int          `json:"outCAN"`
	OutTTP         int          `json:"outTTP"`
	GraphResponses []model.Time `json:"graphResponses"`
	Iterations     int          `json:"iterations"`
	Converged      bool         `json:"converged"`
}

// summarize projects an analysis onto its wire form.
func summarize(a *core.Analysis) *AnalysisSummary {
	if a == nil {
		return nil
	}
	return &AnalysisSummary{
		Schedulable:    a.Schedulable,
		Delta:          a.Delta,
		BuffersTotal:   a.Buffers.Total,
		OutCAN:         a.Buffers.OutCAN,
		OutTTP:         a.Buffers.OutTTP,
		GraphResponses: append([]model.Time(nil), a.GraphResp...),
		Iterations:     a.Iterations,
		Converged:      a.Converged,
	}
}

// JobKind distinguishes the asynchronous job kinds sharing the queue.
type JobKind string

const (
	// KindSynthesize: single-configuration synthesis (SynthesisRequest).
	KindSynthesize JobKind = "synthesize"
	// KindExplore: multi-objective design-space exploration
	// (ExploreRequest); the result carries a Pareto front.
	KindExplore JobKind = "explore"
)

// JobState is the lifecycle of an asynchronous synthesis job.
type JobState string

const (
	// StateQueued: accepted, waiting for a job runner.
	StateQueued JobState = "queued"
	// StateRunning: a runner is synthesizing.
	StateRunning JobState = "running"
	// StateDone: finished; Result carries the configuration.
	StateDone JobState = "done"
	// StateCanceled: canceled (client or drain); Result carries the
	// best-so-far configuration when one was found.
	StateCanceled JobState = "canceled"
	// StateFailed: the synthesis errored before producing anything.
	StateFailed JobState = "failed"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateCanceled || s == StateFailed
}

// JobStatus is the polling view of a job.
type JobStatus struct {
	ID          string   `json:"id"`
	Kind        JobKind  `json:"kind"`
	State       JobState `json:"state"`
	Fingerprint string   `json:"fingerprint"`
	// Strategy is the synthesis strategy of synthesize jobs ("DSE" for
	// explore jobs).
	Strategy string `json:"strategy"`
	// Progress is the most recent progress event (nil before the first).
	Progress *ProgressEvent `json:"progress,omitempty"`
	// Result is set once State is terminal (absent for failed jobs and
	// for cancellations that found nothing).
	Result *JobResult `json:"result,omitempty"`
	// Error is set when the job failed or was canceled.
	Error string `json:"error,omitempty"`
}

// JobResult is the outcome of an asynchronous job. For synthesize jobs
// Config/Analysis carry the single configuration (the core.Config.Save
// encoding, so it feeds back into LoadConfig and /v1/analyze
// unchanged); for explore jobs Front/Hypervolume carry the Pareto
// front instead.
type JobResult struct {
	Config      json.RawMessage  `json:"config,omitempty"`
	Analysis    *AnalysisSummary `json:"analysis,omitempty"`
	Evaluations int              `json:"evaluations"`
	// Front is the mutually non-dominated point set of an explore job,
	// sorted by (delta, buffers, bandwidth); Hypervolume is its
	// indicator against the front's own nadir reference.
	Front       []FrontPoint `json:"front,omitempty"`
	Hypervolume float64      `json:"hypervolume,omitempty"`
	// CacheHit reports that the job ran on a cached Solver session; the
	// result is bit-identical to a cold run either way.
	CacheHit bool `json:"cacheHit"`
	// PersistentHit reports that the result was served from the durable
	// result store — byte-identical to the cold run that produced it —
	// instead of being recomputed.
	PersistentHit bool `json:"persistentHit,omitempty"`
	// Partial marks a best-so-far result (configuration or front)
	// returned by a canceled or drained job.
	Partial bool `json:"partial,omitempty"`
}

// FrontPoint is the wire form of one Pareto-front point: the objective
// vector (all minimized), the verdict, and the full configuration in
// the core.Config.Save encoding.
type FrontPoint struct {
	Delta model.Time `json:"delta"`
	// Buffers is s_total; Bandwidth is the reserved TTP transmission
	// time per TDMA round (slot-length sum).
	Buffers     int             `json:"buffers"`
	Bandwidth   model.Time      `json:"bandwidth"`
	Schedulable bool            `json:"schedulable"`
	Config      json.RawMessage `json:"config,omitempty"`
}

// ProgressEvent is the wire form of a Solver progress event, tagged
// with a per-job sequence number so SSE consumers can detect gaps
// (slow subscribers are dropped-to, never blocked on).
type ProgressEvent struct {
	Seq         int    `json:"seq"`
	Strategy    string `json:"strategy"`
	Phase       string `json:"phase"`
	Chain       int    `json:"chain,omitempty"`
	Step        int    `json:"step"`
	Evaluations int    `json:"evaluations"`
	BestDelta   int64  `json:"bestDelta"`
	BestBuffers int    `json:"bestBuffers"`
	Schedulable bool   `json:"schedulable"`
	// FrontSize and Hypervolume describe the archive of an explore
	// job's "dse" phase (absent elsewhere).
	FrontSize   int     `json:"frontSize,omitempty"`
	Hypervolume float64 `json:"hypervolume,omitempty"`
}

// SubmitResponse acknowledges an accepted asynchronous job.
type SubmitResponse struct {
	ID          string  `json:"id"`
	Kind        JobKind `json:"kind"`
	Fingerprint string  `json:"fingerprint"`
	StatusURL   string  `json:"statusUrl"`
	EventsURL   string  `json:"eventsUrl"`
}

// StrategyInfo describes one synthesis strategy for clients that would
// otherwise hardcode the names.
type StrategyInfo struct {
	// Name parses back through ParseStrategy (case-insensitive).
	Name        string `json:"name"`
	Description string `json:"description"`
}

// StrategiesResponse answers GET /v1/strategies: every strategy a
// SynthesisRequest accepts, in declaration order.
type StrategiesResponse struct {
	Strategies []StrategyInfo `json:"strategies"`
}

// ListStrategies builds the strategies listing from solve.Strategies,
// so the wire surface can never drift from the Solver's.
func ListStrategies() StrategiesResponse {
	var out StrategiesResponse
	for _, s := range solve.Strategies() {
		out.Strategies = append(out.Strategies, StrategyInfo{
			Name:        strings.ToLower(s.String()),
			Description: s.Description(),
		})
	}
	return out
}

// summarizeFront projects a dse front onto its wire form, including
// the per-point configuration encodings.
func summarizeFront(front []dse.Point) ([]FrontPoint, error) {
	out := make([]FrontPoint, 0, len(front))
	for _, p := range front {
		cfgJSON, err := encodeConfig(p.Config)
		if err != nil {
			return nil, err
		}
		o := p.Objectives()
		out = append(out, FrontPoint{
			Delta:       o.Delta,
			Buffers:     o.Buffers,
			Bandwidth:   o.Bandwidth,
			Schedulable: p.Schedulable(),
			Config:      cfgJSON,
		})
	}
	return out, nil
}

// encodeConfig renders a configuration in the stable Save encoding.
func encodeConfig(cfg *core.Config) (json.RawMessage, error) {
	if cfg == nil {
		return nil, nil
	}
	var buf bytes.Buffer
	if err := cfg.Save(&buf); err != nil {
		return nil, err
	}
	return json.RawMessage(buf.Bytes()), nil
}
