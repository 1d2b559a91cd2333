package solve

import "repro/internal/opt"

// Progress is one synthesis progress event: the optimizer's event (see
// opt.Progress for the fields) labelled with the strategy that emitted
// it. Events are emitted in step order per phase; for the annealing
// strategies with several restart chains, events of different chains
// interleave (Chain tells them apart) but the stream as a whole is
// still delivered one event at a time.
type Progress struct {
	// Strategy is the strategy being run (Explore for Solver.Explore,
	// including its OS/OR warm-start phases).
	Strategy Strategy
	opt.Progress
}

// Observer receives synthesis progress events. It must be fast — it is
// called synchronously from the optimizer's reducing goroutine — and
// need not be goroutine-safe: the Solver serializes delivery.
type Observer func(Progress)

// emit serializes an event to the observer, if any.
func (s *Solver) emit(p Progress) {
	obs := s.opts.Observer
	if obs == nil {
		return
	}
	s.obsMu.Lock()
	obs(p)
	s.obsMu.Unlock()
}

// observe is the one adapter from the optimizers' progress hooks to
// the observer: it labels each event with strat and adds evalBase, the
// analyses the call spent before the emitting phase started, to its
// Evaluations. It is nil without an observer, so producers skip
// building events nobody reads.
func (s *Solver) observe(strat Strategy, evalBase int) func(opt.Progress) {
	if s.opts.Observer == nil {
		return nil
	}
	return func(p opt.Progress) {
		p.Evaluations += evalBase
		s.emit(Progress{Strategy: strat, Progress: p})
	}
}
