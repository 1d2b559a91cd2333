// Command mcs-serve runs the multi-cluster synthesis service over HTTP:
// asynchronous synthesize and design-space-exploration jobs with
// polling and SSE progress streams, synchronous batch analysis, and an
// LRU of cached Solver sessions keyed by the canonical system
// fingerprint.
//
//	POST   /v1/synthesize       submit a synthesis job (202 + job id)
//	POST   /v1/explore          submit a Pareto exploration job (202 + job id)
//	GET    /v1/jobs/{id}        poll status/result
//	GET    /v1/jobs/{id}/events live progress (Server-Sent Events)
//	GET    /v1/jobs/{id}/trace  per-job span tree (with -trace)
//	DELETE /v1/jobs/{id}        cancel, keeping the best-so-far result
//	POST   /v1/analyze          synchronous batch analysis
//	GET    /v1/strategies       machine-readable synthesis strategy list
//	GET    /healthz             liveness + job/cache statistics
//	GET    /metrics             Prometheus text exposition (with -metrics)
//
// SIGTERM/SIGINT drain gracefully: intake stops, in-flight jobs get
// -grace to finish, stragglers are canceled and report their
// best-so-far configurations, and the process exits 0.
//
// With -data-dir the service is durable: every job transition is
// journaled to an append-only WAL before it is acknowledged, finished
// results persist under the request key (served byte-identically on
// resubmission, until -result-ttl), and a restart — graceful or kill
// -9 — replays the journal: finished jobs stay pollable, unfinished
// ones re-run ahead of new traffic. An empty -data-dir (the default)
// keeps the purely in-memory behavior.
//
// Logs are structured (-log-format text or json) with job, kind and
// fingerprint attributes on every job lifecycle line.
//
// Example:
//
//	mcs-serve -addr :8080 -workers 8 -data-dir /var/lib/mcs &
//	mcs-gen -nodes 2 -seed 7 | jq '{system: ., strategy: "or"}' \
//	  | curl -s -d @- localhost:8080/v1/synthesize
//	curl -s localhost:8080/metrics | grep mcs_jobs_total
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		workers    = flag.Int("workers", runtime.NumCPU(), "evaluation workers per job (results are identical for every value)")
		jobWorkers = flag.Int("job-workers", 2, "jobs synthesized concurrently")
		queue      = flag.Int("queue", 64, "job queue depth (beyond it submits are rejected with 429)")
		cacheSize  = flag.Int("cache", 128, "cached Solver sessions (LRU)")
		retention  = flag.Int("retention", 1024, "terminal jobs kept pollable (oldest-finished evicted first)")
		grace      = flag.Duration("grace", 15*time.Second, "drain grace period before in-flight jobs are canceled to best-so-far")
		dataDir    = flag.String("data-dir", "", "durability root (journal + persistent results); empty = in-memory only")
		resultTTL  = flag.Duration("result-ttl", 24*time.Hour, "persistent result lifetime (with -data-dir); 0 = never expire")
		segBytes   = flag.Int64("journal-segment-bytes", 0, "journal segment rotation size (with -data-dir); 0 = default 4MiB")
		metrics    = flag.Bool("metrics", true, "serve Prometheus metrics on GET /metrics")
		trace      = flag.Bool("trace", true, "record per-job span trees, served on GET /v1/jobs/{id}/trace")
		logFormat  = flag.String("log-format", "text", "log output format: text or json")
	)
	flag.Parse()

	logger, err := newLogger(*logFormat)
	if err != nil {
		fatal(err)
	}

	var st *repro.FileStore
	if *dataDir != "" {
		st, err = repro.OpenStore(*dataDir, repro.StoreOptions{
			SegmentBytes: *segBytes,
			ResultTTL:    *resultTTL,
		})
		if err != nil {
			fatal(err)
		}
		_, rep := st.Replay()
		logger.Info("journal replayed", "dir", *dataDir, "records", rep.Records, "segments", rep.Segments)
		for _, torn := range rep.Torn {
			logger.Warn("store tail torn",
				"segment", torn.Segment, "offset", torn.Offset, "dropped", torn.Dropped, "reason", torn.Reason)
		}
	}

	var registry *repro.MetricsRegistry // nil = disabled, zero overhead
	if *metrics {
		registry = repro.NewMetricsRegistry()
	}
	svc := repro.NewService(repro.ServiceOptions{
		Workers:    *workers,
		JobWorkers: *jobWorkers,
		QueueDepth: *queue,
		CacheSize:  *cacheSize,
		Retention:  *retention,
		Store:      storeOrNil(st),
		Metrics:    registry,
		Tracing:    *trace,
		Logger:     logger,
	})
	srv := &http.Server{Addr: *addr, Handler: repro.NewServiceHandler(svc)}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	//mcs:allow poolonly process-lifetime HTTP listener; the serve/shutdown handshake needs a detached goroutine
	go func() {
		logger.Info("listening",
			"addr", *addr, "jobWorkers", *jobWorkers, "queue", *queue, "cache", *cacheSize,
			"metrics", *metrics, "trace", *trace)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}

	logger.Info("draining", "grace", *grace)
	drainCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	svc.Drain(drainCtx) // in-flight jobs finish or keep best-so-far
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		srv.Close()
	}
	if st != nil {
		if err := st.Close(); err != nil {
			logger.Error("closing store failed", "error", err)
		}
	}
	logger.Info("drained, exiting")
}

// newLogger builds the process logger in the selected format, writing
// to stderr so job output redirection stays clean.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

// storeOrNil keeps a nil *FileStore from becoming a non-nil Store
// interface inside the service.
func storeOrNil(st *repro.FileStore) repro.Store {
	if st == nil {
		return nil
	}
	return st
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcs-serve:", err)
	os.Exit(1)
}
