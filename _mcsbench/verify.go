package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/model"
	"repro/internal/service"
)

// verification is a run's verdict over its set-up and timed jobs.
type verification struct {
	attempted, failed int
	digest            string
	digested          int
}

// verifyRun checks every set-up and timed job after the timed phase and
// digests the results a fixed seed always produces: the set-up jobs and
// the first digestJobs timed jobs by send order. Set-up jobs are checked
// first, so a timed result is compared with the set-up result of the
// identical request: warm-up against timed on sweep-warm, and the
// original write against each persistent hit on resubmit-durable.
func verifyRun(warm []outcome, timed []*outcome, digestJobs int, out io.Writer) verification {
	v := newVerifier()
	h := sha256.New()
	var ver verification
	check := func(o *outcome, digest bool) {
		ver.attempted++
		canon, err := v.check(o)
		if err != nil {
			ver.failed++
			if ver.failed <= 5 {
				fmt.Fprintf(out, "failed: job %q (%s %s): %v\n", o.id, o.req.path, o.req.strategy, err)
			}
			canon = []byte("failed")
		}
		if digest {
			h.Write(canon)
			h.Write([]byte{0})
			ver.digested++
		}
	}
	for i := range warm {
		check(&warm[i], true)
	}
	for _, o := range timed {
		check(o, o.idx < digestJobs)
	}
	ver.digest = hex.EncodeToString(h.Sum(nil)[:8])
	return ver
}

// verifier re-checks job results outside the timed phase.
type verifier struct {
	systems map[string]*model.System // request key to decoded system
	first   map[string][]byte        // request key to its first canonical result
	checked map[[32]byte]error       // request key and canonical result to verdict
}

// systemsCap bounds the decoded systems kept for re-analysis; a cold
// workload sees each system once, so a small cache suffices.
const systemsCap = 256

func newVerifier() *verifier {
	return &verifier{
		systems: make(map[string]*model.System),
		first:   make(map[string][]byte),
		checked: make(map[[32]byte]error),
	}
}

// check verifies one job: accepted, done and complete; equal byte for
// byte to every earlier result of the identical request; and its
// configurations, re-analyzed with a cold core.Analyze, giving the
// reported delta, s_total and schedulability. It returns the canonical
// result: the result JSON with the flags that say how it was served
// (Solver-LRU or persistent hit) cleared.
func (v *verifier) check(o *outcome) ([]byte, error) {
	switch {
	case o.err != nil:
		return nil, o.err
	case o.status != http.StatusAccepted:
		return nil, fmt.Errorf("submit answered HTTP %d", o.status)
	case o.state != string(service.StateDone):
		return nil, fmt.Errorf("job ended %s: %s", o.state, o.errMsg)
	}
	var res service.JobResult
	if err := json.Unmarshal(o.result, &res); err != nil {
		return nil, fmt.Errorf("decoding result: %w", err)
	}
	if res.Partial {
		return nil, errors.New("result is partial")
	}
	o.evals = res.Evaluations
	res.CacheHit, res.PersistentHit = false, false
	canon, err := json.Marshal(&res)
	if err != nil {
		return nil, err
	}
	if prev, ok := v.first[o.req.key]; !ok {
		v.first[o.req.key] = canon
	} else if !bytes.Equal(prev, canon) {
		return nil, errors.New("result differs from an earlier result of the identical request")
	}
	k := sha256.Sum256(append([]byte(o.req.key+"\x00"), canon...))
	verdict, ok := v.checked[k]
	if !ok {
		verdict = v.reanalyze(o.req, &res)
		v.checked[k] = verdict
	}
	if verdict != nil {
		return nil, verdict
	}
	return canon, nil
}

// reanalyze re-runs a cold core.Analyze on every configuration of a
// result and compares it with what the service reported.
func (v *verifier) reanalyze(r *request, res *service.JobResult) error {
	sys, ok := v.systems[r.key]
	if !ok {
		var err error
		if sys, err = decodeSystem(r); err != nil {
			return err
		}
		if len(v.systems) >= systemsCap {
			clear(v.systems)
		}
		v.systems[r.key] = sys
	}
	app, arch := sys.Application, sys.Architecture
	if r.path == explorePath {
		if len(res.Front) == 0 {
			return errors.New("explore result has an empty front")
		}
		for i, p := range res.Front {
			cfg, a, err := analyze(p.Config, app, arch)
			if err != nil {
				return fmt.Errorf("front point %d: %w", i, err)
			}
			if a.Delta != p.Delta || a.Buffers.Total != p.Buffers || a.Schedulable != p.Schedulable || dse.Bandwidth(cfg) != p.Bandwidth {
				return fmt.Errorf("front point %d reports delta %d, s_total %d, bandwidth %d, schedulable %t; re-analysis gives %d, %d, %d, %t",
					i, p.Delta, p.Buffers, p.Bandwidth, p.Schedulable, a.Delta, a.Buffers.Total, dse.Bandwidth(cfg), a.Schedulable)
			}
		}
		return nil
	}
	if res.Analysis == nil {
		return errors.New("synthesis result carries no analysis")
	}
	_, a, err := analyze(res.Config, app, arch)
	if err != nil {
		return err
	}
	if got := res.Analysis; a.Delta != got.Delta || a.Buffers.Total != got.BuffersTotal || a.Schedulable != got.Schedulable {
		return fmt.Errorf("result reports delta %d, s_total %d, schedulable %t; re-analysis gives %d, %d, %t",
			got.Delta, got.BuffersTotal, got.Schedulable, a.Delta, a.Buffers.Total, a.Schedulable)
	}
	return nil
}

// analyze loads a returned configuration and analyzes it cold.
func analyze(raw json.RawMessage, app *model.Application, arch *model.Architecture) (*core.Config, *core.Analysis, error) {
	if len(raw) == 0 {
		return nil, nil, errors.New("result carries no configuration")
	}
	cfg, err := core.LoadConfig(bytes.NewReader(raw), app, arch)
	if err != nil {
		return nil, nil, err
	}
	a, err := core.Analyze(app, arch, cfg)
	return cfg, a, err
}

// decodeSystem decodes a request body the way the service does (strict
// JSON, then Finalize) and returns its system.
func decodeSystem(r *request) (*model.System, error) {
	dec := json.NewDecoder(bytes.NewReader(r.body))
	dec.DisallowUnknownFields()
	var sys *model.System
	if r.path == explorePath {
		var req service.ExploreRequest
		if err := dec.Decode(&req); err != nil {
			return nil, err
		}
		sys = req.System
	} else {
		var req service.SynthesisRequest
		if err := dec.Decode(&req); err != nil {
			return nil, err
		}
		sys = req.System
	}
	if sys == nil || sys.Application == nil || sys.Architecture == nil {
		return nil, errors.New("request carries no complete system")
	}
	if err := sys.Application.Finalize(sys.Architecture); err != nil {
		return nil, err
	}
	return sys, nil
}
