package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// NewHandler exposes a Service over HTTP:
//
//	POST   /v1/synthesize       submit an async job     -> 202 SubmitResponse
//	POST   /v1/explore          submit a DSE job        -> 202 SubmitResponse
//	GET    /v1/jobs/{id}        poll status/result      -> 200 JobStatus
//	GET    /v1/jobs/{id}/events SSE progress stream     -> progress*, done
//	GET    /v1/jobs/{id}/trace  per-job span tree       -> 200 obs.TraceSnapshot
//	DELETE /v1/jobs/{id}        cancel (keeps best-so-far)
//	POST   /v1/analyze          synchronous batch       -> 200 AnalysisResponse
//	GET    /v1/strategies       synthesis strategy list -> 200 StrategiesResponse
//	GET    /healthz             liveness + Stats
//	GET    /metrics             Prometheus text exposition
//
// Request and response bodies are the wire types of this package;
// errors come back as {"error": "..."} with a matching status code
// (400 invalid request, 404 unknown job, 429 queue full, 500 submit not
// journaled, 503 draining).
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/synthesize", handleSubmit(s.Submit))
	mux.HandleFunc("POST /v1/explore", handleSubmit(s.SubmitExplore))
	mux.HandleFunc("GET /v1/strategies", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, ListStrategies())
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Status(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if err := s.Cancel(id); err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		st, err := s.Status(id)
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		s.serveEvents(w, r)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		tr, err := s.Trace(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, tr)
	})
	mux.HandleFunc("POST /v1/analyze", func(w http.ResponseWriter, r *http.Request) {
		var req AnalysisRequest
		if err := decodeJSON(w, r, &req); err != nil {
			writeError(w, decodeStatus(err), err)
			return
		}
		resp, err := s.Analyze(r.Context(), req)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		// A service without a registry serves an empty (still valid)
		// exposition rather than a 404, so scrapers need no
		// configuration knowledge.
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.obsReg.WritePrometheus(w)
	})
	return mux
}

// handleSubmit is the shared submit flow of the asynchronous job
// endpoints: strict decode, enqueue, error-to-status mapping, Location
// header, 202 with the SubmitResponse. Both job kinds route through it
// so the flow cannot drift between them.
func handleSubmit[T any](submit func(T) (*SubmitResponse, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req T
		if err := decodeJSON(w, r, &req); err != nil {
			writeError(w, decodeStatus(err), err)
			return
		}
		sub, err := submit(req)
		if err != nil {
			writeError(w, submitStatus(err), err)
			return
		}
		w.Header().Set("Location", sub.StatusURL)
		writeJSON(w, http.StatusAccepted, sub)
	}
}

// serveEvents streams a job's progress as Server-Sent Events: one
// "progress" event per ProgressEvent (data = its JSON), then a single
// terminal "done" event whose data is the final JobStatus.
func (s *Service) serveEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ch, unsubscribe, err := s.Subscribe(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	defer unsubscribe()
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("service: streaming unsupported"))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-ch:
			if !open {
				// Terminal: emit the final status so pure-SSE clients
				// need no extra poll.
				if st, err := s.Status(id); err == nil {
					writeSSE(w, "done", st)
					flusher.Flush()
				}
				return
			}
			writeSSE(w, "progress", ev)
			flusher.Flush()
		}
	}
}

func writeSSE(w http.ResponseWriter, event string, payload any) {
	data, err := json.Marshal(payload)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}

// maxRequestBytes bounds POST bodies (64 MiB holds systems far beyond
// the paper's scale) so a single oversized request cannot exhaust the
// server before validation even starts.
const maxRequestBytes = 64 << 20

// decodeJSON parses a request body strictly: the size is capped and
// unknown fields are rejected, so typos in option names fail loudly
// instead of silently selecting defaults.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("service: decoding request: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// decodeStatus distinguishes an oversized body (413) from a malformed
// one (400).
func decodeStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// submitStatus maps Submit errors onto HTTP statuses.
func submitStatus(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, errJournal):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}
