package repro

import (
	"net/http"

	"repro/internal/service"
	"repro/internal/store"
)

// Wire-level request/response types of the synthesis service: see
// package service for the full documentation. Systems travel in the
// SaveSystem JSON encoding, configurations in the SaveConfig encoding,
// so files produced by the CLI tools are valid wire payloads verbatim.
type (
	// Service fronts Solver sessions with a wire-format job model: a
	// bounded queue of asynchronous synthesis jobs, a fingerprint-keyed
	// LRU of cached sessions, progress streaming and graceful drain.
	Service = service.Service
	// ServiceOptions tunes worker counts, queue depth and cache size.
	ServiceOptions = service.Options
	// SynthesisRequest asks for an asynchronous configuration synthesis.
	SynthesisRequest = service.SynthesisRequest
	// ExploreRequest asks for an asynchronous design-space exploration
	// (POST /v1/explore); the job result carries a Pareto front of
	// FrontPoint instead of a single configuration.
	ExploreRequest = service.ExploreRequest
	// FrontPoint is the wire form of one Pareto-front point.
	FrontPoint = service.FrontPoint
	// JobKind distinguishes synthesize and explore jobs.
	JobKind = service.JobKind
	// StrategiesResponse / StrategyInfo answer GET /v1/strategies, the
	// machine-readable synthesis strategy listing.
	StrategiesResponse = service.StrategiesResponse
	StrategyInfo       = service.StrategyInfo
	// SubmitResponse acknowledges an accepted job with its poll URLs.
	SubmitResponse = service.SubmitResponse
	// JobStatus / JobResult / JobState describe a job's lifecycle; the
	// result configuration feeds LoadConfig unchanged.
	JobStatus = service.JobStatus
	JobResult = service.JobResult
	JobState  = service.JobState
	// ProgressEvent is the wire form of a Solver progress event.
	ProgressEvent = service.ProgressEvent
	// AnalysisRequest / AnalysisResponse / AnalysisOutcome /
	// AnalysisSummary drive the synchronous batch-analysis endpoint.
	AnalysisRequest  = service.AnalysisRequest
	AnalysisResponse = service.AnalysisResponse
	AnalysisOutcome  = service.AnalysisOutcome
	AnalysisSummary  = service.AnalysisSummary
	// ServiceStats is the health-endpoint snapshot; its Store section
	// reports the durability counters when a Store is configured.
	ServiceStats = service.Stats

	// Store is the service's pluggable durability seam: a job-lifecycle
	// journal plus a persistent result store. FileStore is the built-in
	// file-backed implementation; ServiceOptions.Store accepts any
	// implementation.
	Store = store.Store
	// StoreOptions tunes a FileStore (segment size, result TTL, clock).
	StoreOptions = store.Options
	// FileStore is the file-backed Store: an append-only CRC-framed
	// journal with segment rotation and crash-safe compaction, and an
	// append-only results log of TTL'd results indexed by request key.
	FileStore = store.FileStore
	// StoreStats snapshots a store's durability counters.
	StoreStats = store.Stats
	// ReplayReport summarizes the recovery of the journal and the
	// results log, including torn tails.
	ReplayReport = store.ReplayReport
)

// Job lifecycle states.
const (
	JobQueued   = service.StateQueued
	JobRunning  = service.StateRunning
	JobDone     = service.StateDone
	JobCanceled = service.StateCanceled
	JobFailed   = service.StateFailed
)

// Job kinds sharing the service queue.
const (
	JobKindSynthesize = service.KindSynthesize
	JobKindExplore    = service.KindExplore
)

// ListStrategies builds the GET /v1/strategies listing from
// Strategies(), so wire clients never hardcode strategy names.
func ListStrategies() StrategiesResponse { return service.ListStrategies() }

// Service submission errors.
var (
	// ErrQueueFull rejects a Submit when the bounded job queue is at
	// capacity (HTTP 429).
	ErrQueueFull = service.ErrQueueFull
	// ErrDraining rejects a Submit during graceful shutdown (HTTP 503).
	ErrDraining = service.ErrDraining
	// ErrUnknownJob reports a job ID the service never issued.
	ErrUnknownJob = service.ErrUnknownJob
)

// NewService starts a synthesis service: JobWorkers runner goroutines
// execute queued jobs on cached Solver sessions. Stop it with
// Service.Drain (graceful, best-so-far) or Service.Close. With a Store
// configured the service journals every job transition, persists
// finished results, and replays unfinished jobs after a crash.
func NewService(opts ServiceOptions) *Service { return service.New(opts) }

// OpenStore opens (or creates) the file-backed durability store rooted
// at dir: journal segments under dir/journal, results under
// dir/results. Recovery happens here — torn tails are truncated and
// reported, never silently dropped. Close the store after the service
// has drained.
func OpenStore(dir string, opts StoreOptions) (*FileStore, error) { return store.Open(dir, opts) }

// NewServiceHandler exposes a Service over HTTP: POST /v1/synthesize,
// GET /v1/jobs/{id}, GET /v1/jobs/{id}/events (SSE), DELETE
// /v1/jobs/{id}, POST /v1/analyze and GET /healthz. cmd/mcs-serve is
// the daemon around it; embedders mount it on their own server.
func NewServiceHandler(s *Service) http.Handler { return service.NewHandler(s) }

// Fingerprint returns the canonical content hash of a system: a
// SHA-256 over every semantic field (names excluded), stable across
// JSON round trips. The service keys its Solver cache on it.
func Fingerprint(sys *System) (string, error) { return sys.Fingerprint() }
