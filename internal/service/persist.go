package service

// The durability glue between the Service and its store.Store: journal
// appends, startup replay, and compaction snapshots. The rules that
// keep replay honest live here:
//
//   - a submit is journaled before its 202 exists (enqueue), so every
//     acknowledged job survives a crash;
//   - a result is persisted before its finish record (complete), so a
//     "done" record always has a loadable result — a crash between the
//     two re-runs the job, which is merely wasteful;
//   - replayed unfinished jobs re-enter the queue ahead of new traffic
//     with their original IDs, and re-running them is idempotent: the
//     synthesis is deterministic and the persistent result cache
//     short-circuits work that actually finished.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/store"
)

// compactAtSegments triggers a journal rewrite once the segment count
// reaches this bound; together with the segment size cap it bounds the
// journal footprint by live state, not by traffic history.
const compactAtSegments = 4

// appendRecord stamps and appends one journal record; a nil store is a
// no-op. The caller decides whether a failure gates the state
// transition (enqueue rejects the submit) or is merely counted (start,
// cancel and finish records: the in-memory truth stays correct, and at
// worst a replay re-runs deterministic work).
func (s *Service) appendRecord(rec store.Record) error {
	if s.st == nil {
		return nil
	}
	rec.Unix = s.clock.Now().Unix()
	if err := s.st.Append(rec); err != nil {
		s.storeErrs.Add(1)
		return err
	}
	return nil
}

// restore replays the journal into the in-memory job table and returns
// the unfinished jobs to re-enqueue, in original submit order. It runs
// inside New before the runners start, so it touches Service state
// without locks.
func (s *Service) restore() []*job {
	if s.st == nil {
		return nil
	}
	recs, _ := s.st.Replay()
	var pending []*job
	for _, snap := range store.Reduce(recs) {
		j := &job{
			id:          snap.ID,
			kind:        JobKind(snap.Kind),
			strategy:    snap.Strategy,
			fingerprint: snap.Fingerprint,
			key:         snap.Key,
			subs:        make(map[chan ProgressEvent]struct{}),
			done:        make(chan struct{}),
		}
		j.ctx, j.cancel = context.WithCancelCause(s.baseCtx)
		if seq := jobSeq(snap.ID); seq > s.nextID {
			s.nextID = seq // new IDs continue past every replayed one
		}
		s.replayed++
		s.jobs[j.id] = j
		if snap.State != store.StateQueued {
			s.finishRestored(j, snap)
		} else if err := j.restoreRequest(snap.Request); err != nil {
			// The journaled request no longer decodes: fail the job
			// visibly instead of dropping it, and journal the
			// resolution so the next restart agrees.
			j.state, j.errMsg = StateFailed, err.Error()
			s.appendRecord(j.finishRecord(j.state, j.errMsg))
		} else {
			j.state = StateQueued
			pending = append(pending, j)
			s.requeued++
			continue
		}
		// Replayed terminal jobs skip the terminal tail: this process
		// ran none of their work, so nothing is counted or traced.
		j.release()
		s.terminal = append(s.terminal, j.id)
	}
	for len(s.terminal) > s.opts.Retention {
		delete(s.jobs, s.terminal[0])
		s.terminal = s.terminal[1:]
	}
	return pending
}

// finishRestored restores a terminal job from its snapshot: state
// and error come from the journal, a done job's result loads from the
// persistent result store under its request key.
func (s *Service) finishRestored(j *job, snap *store.JobSnapshot) {
	j.state = JobState(snap.State)
	j.errMsg = snap.Error
	if snap.State == store.StateDone && snap.Key != "" {
		if data, ok := s.st.GetResult(snap.Key); ok {
			if res, err := decodeStoredResult(data); err == nil {
				j.result = res
			}
		}
	}
	if snap.State == store.StateDone && j.result == nil {
		// The finish record outlived its result (TTL expiry, or the
		// results directory was lost separately). The job stays done —
		// silently re-running would betray the recorded outcome — but
		// the missing result is reported, not hidden.
		j.errMsg = "store: persisted result expired or missing; resubmit to recompute"
	}
}

// decodeStoredResult decodes canonical result bytes from the
// persistent store and marks them as a persistent serve.
func decodeStoredResult(data []byte) (*JobResult, error) {
	var res JobResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, err
	}
	res.PersistentHit = true
	return &res, nil
}

// restoreRequest decodes and re-normalizes a journaled wire request so
// the replayed job re-runs exactly like a fresh submission of the same
// body: normalization is deterministic, so the fingerprint and request
// key it recomputes match the journaled ones.
func (j *job) restoreRequest(raw []byte) error {
	if len(raw) == 0 {
		return errors.New(store.ErrPayloadMissing)
	}
	req := newRequest(j.kind)
	if err := json.Unmarshal(raw, req); err != nil {
		return fmt.Errorf("service: decoding journaled %s request: %w", req.kind(), err)
	}
	strategy, fp, key, err := req.normalize()
	if err != nil {
		return fmt.Errorf("service: re-normalizing journaled request: %w", err)
	}
	j.req, j.fingerprint, j.key, j.rawReq = req, fp, key, raw
	if j.strategy == "" {
		j.strategy = strategy
	}
	return nil
}

// submitRecord is the journal record of a job's submission; request is
// the wire payload a replay re-runs (nil in a terminal job's slim
// record).
func (j *job) submitRecord(request json.RawMessage) store.Record {
	return store.Record{
		Op:          store.OpSubmit,
		Job:         j.id,
		Kind:        string(j.kind),
		Fingerprint: j.fingerprint,
		Key:         j.key,
		Strategy:    j.strategy,
		Request:     request,
	}
}

// finishRecord is the journal record of a job's terminal transition.
func (j *job) finishRecord(state JobState, errMsg string) store.Record {
	return store.Record{
		Op:    store.OpFinish,
		Job:   j.id,
		Key:   j.key,
		State: string(state),
		Error: errMsg,
	}
}

// jobSeq parses the numeric sequence out of a job ID ("j%06d-<fp8>");
// 0 for anything that does not look like one.
func jobSeq(id string) int {
	var seq int
	var fp string
	if n, _ := fmt.Sscanf(id, "j%d-%s", &seq, &fp); n < 1 {
		return 0
	}
	return seq
}

// compact rewrites the journal down to the live records. Errors are
// counted, not surfaced: an uncompacted journal is bigger, never wrong.
func (s *Service) compact() {
	if s.st == nil {
		return
	}
	if err := s.st.Compact(s.liveRecords); err != nil {
		s.storeErrs.Add(1)
	}
}

// liveRecords snapshots the jobs the journal must remember: terminal
// jobs as slim submit+finish pairs (their results live in the result
// store), live jobs as full submits so a crash can still re-run them.
// The store calls it after sealing the active segment, so transitions
// journaled concurrently land in later segments and survive the rewrite
// regardless of what this snapshot captures.
func (s *Service) liveRecords() []store.Record {
	now := s.clock.Now().Unix()
	jobs := s.snapshot()
	recs := make([]store.Record, 0, 2*len(jobs))
	for _, j := range jobs {
		j.mu.Lock()
		state, errMsg, raw := j.state, j.errMsg, j.rawReq
		j.mu.Unlock()
		if state.Terminal() {
			sub, fin := j.submitRecord(nil), j.finishRecord(state, errMsg)
			sub.Unix, fin.Unix = now, now
			recs = append(recs, sub, fin)
			continue
		}
		sub := j.submitRecord(raw)
		sub.Unix = now
		recs = append(recs, sub)
	}
	return recs
}
