// Package sim is a deterministic discrete-event simulator of the
// two-cluster platform: TT nodes executing their schedule tables, the
// TDMA bus driven by the MEDL, preemptive fixed-priority schedulers on
// the ET nodes, CAN arbitration across the output queues, and the
// gateway with its OutCAN priority queue and OutTTP FIFO (the full
// Fig. 3 message-passing path).
//
// Its role in this repository is validation: for a configuration that
// the analysis declares schedulable, every simulated response time and
// queue occupancy must stay within the analysed bounds, and the platform
// invariants (CPU/bus exclusivity, FIFO order, inputs present at TT
// process start) must hold. The simulator also exercises execution-time
// variation: processes may run for less than their WCET.
package sim

import (
	"container/heap"
	"context"
	"fmt"
	"io"
	"math/rand"

	"repro/internal/core"
	"repro/internal/model"
)

// ExecMode selects the execution times used by the simulator.
type ExecMode int

const (
	// WorstCase runs every process for exactly its WCET.
	WorstCase ExecMode = iota
	// BestCase runs every process for its BCET (WCET when unset).
	BestCase
	// RandomCase draws each execution uniformly from [BCET, WCET].
	RandomCase
)

// Options tunes a simulation run.
type Options struct {
	// Cycles is the number of hyper-periods simulated (default 2).
	Cycles int
	// Exec selects the execution-time mode (default WorstCase).
	Exec ExecMode
	// Seed drives RandomCase (default 1).
	Seed int64
	// Trace, when non-nil, receives one line per simulation event
	// (process starts/completions, bus transmissions, queue movements) -
	// a textual Gantt chart for debugging schedules.
	Trace io.Writer
}

// Result aggregates the observations of one run.
type Result struct {
	// ProcWorstResp is the largest observed completion minus release,
	// per process.
	ProcWorstResp map[model.ProcID]model.Time
	// GraphWorstResp is the largest observed sink completion minus
	// release, per graph.
	GraphWorstResp []model.Time
	// EdgeWorstDelivery is the largest observed delivery offset of each
	// cross-node message, relative to the graph release.
	EdgeWorstDelivery map[model.EdgeID]model.Time
	// Peak queue occupancies in bytes.
	PeakOutCAN  int
	PeakOutTTP  int
	PeakOutNode map[model.NodeID]int
	// DeadlineMisses counts sink completions beyond the graph deadline.
	DeadlineMisses int
	// Violations lists platform-invariant breaches (empty on sane runs).
	Violations []string
	// Completed counts finished process instances.
	Completed int
}

// Run simulates the configured system. The analysis provides the static
// schedule (tables + MEDL); cfg, which must pass Validate, provides
// priorities and the TDMA round.
func Run(app *model.Application, arch *model.Architecture, cfg *core.Config, a *core.Analysis, opts Options) (*Result, error) {
	return RunContext(context.Background(), app, arch, cfg, a, opts)
}

// RunContext is Run with cooperative cancellation: the event loop
// checks ctx between events and returns ctx's error (and no result)
// when it is cancelled.
func RunContext(ctx context.Context, app *model.Application, arch *model.Architecture, cfg *core.Config, a *core.Analysis, opts Options) (*Result, error) {
	if err := cfg.Validate(app, arch); err != nil {
		return nil, err
	}
	if a == nil || a.Schedule == nil {
		return nil, fmt.Errorf("sim: analysis with schedule required")
	}
	if !a.Schedule.WithinCycle {
		return nil, fmt.Errorf("sim: schedule does not fit its cycle; only executable tables can be simulated")
	}
	if opts.Cycles <= 0 {
		opts.Cycles = 2
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	s := newSim(app, arch, cfg, a, opts)
	s.ctx = ctx
	s.prime()
	s.loop()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.finish(), nil
}

type simulator struct {
	app  *model.Application
	arch *model.Architecture
	cfg  *core.Config
	an   *core.Analysis
	opts Options
	rng  *rand.Rand
	ctx  context.Context

	hyper   model.Time
	horizon model.Time

	events eventHeap
	seq    int

	// instance state
	execTime  map[instKey]model.Time
	remaining map[instKey]model.Time
	released  map[instKey]bool
	inputs    map[instKey]int // missing input count
	finished  map[instKey]model.Time
	msgSent   map[edgeInst]model.Time // production time of cross-node messages

	// ET CPUs
	running    map[model.NodeID]*instKey
	runGen     map[model.NodeID]int
	readyQueue map[model.NodeID][]instKey

	// CAN bus
	busBusy   bool
	outCAN    []edgeInst // gateway TT->ET queue, priority order
	outNode   map[model.NodeID][]edgeInst
	outTTP    []queuedAt // FIFO with queueing times
	canBytes  int
	ttpBytes  int
	nodeBytes map[model.NodeID]int
	lastStart map[model.NodeID]model.Time

	res *Result
}

type instKey struct {
	proc model.ProcID
	inst int
}

type edgeInst struct {
	edge model.EdgeID
	inst int
}

// queuedAt tags an OutTTP entry with its queueing time: a message can
// only ride a gateway slot that starts at or after it was queued.
type queuedAt struct {
	ei edgeInst
	at model.Time
}

type evKind int

const (
	evTTStart evKind = iota
	evTTFinish
	evFrameEnd
	evFrameCheck // assert the message was produced before its frame
	evSGStart
	evSGEnd
	evETArrival // one input of an ET process instance arrived
	evCPUDone
	evBusDone
	evGwForward // transfer process T hands a message to a gateway queue
)

// rank orders simultaneous events: completions and deliveries first (a
// message delivered at t is available to a process starting at t, and a
// process finishing at t can feed a frame departing at t), then the
// checks and the gateway-slot drain, then starts and releases.
func (k evKind) rank() int {
	switch k {
	case evTTFinish, evCPUDone, evBusDone, evFrameEnd, evSGEnd, evGwForward:
		return 0
	case evFrameCheck, evSGStart:
		return 1
	default: // evTTStart, evETArrival
		return 2
	}
}

type event struct {
	t    model.Time
	seq  int
	kind evKind

	key        instKey
	ei         edgeInst
	node       model.NodeID
	gen        int
	fromOutCAN bool
	// payload for frame/slot deliveries
	msgs []edgeInst
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	if ri, rj := h[i].kind.rank(), h[j].kind.rank(); ri != rj {
		return ri < rj
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

func newSim(app *model.Application, arch *model.Architecture, cfg *core.Config, a *core.Analysis, opts Options) *simulator {
	hyper := a.Schedule.Hyper
	s := &simulator{
		app: app, arch: arch, cfg: cfg, an: a, opts: opts,
		rng:        rand.New(rand.NewSource(opts.Seed)),
		hyper:      hyper,
		horizon:    hyper * model.Time(opts.Cycles),
		execTime:   make(map[instKey]model.Time),
		remaining:  make(map[instKey]model.Time),
		released:   make(map[instKey]bool),
		inputs:     make(map[instKey]int),
		finished:   make(map[instKey]model.Time),
		msgSent:    make(map[edgeInst]model.Time),
		running:    make(map[model.NodeID]*instKey),
		runGen:     make(map[model.NodeID]int),
		readyQueue: make(map[model.NodeID][]instKey),
		outNode:    make(map[model.NodeID][]edgeInst),
		nodeBytes:  make(map[model.NodeID]int),
		lastStart:  make(map[model.NodeID]model.Time),
		res: &Result{
			ProcWorstResp:     make(map[model.ProcID]model.Time),
			GraphWorstResp:    make([]model.Time, len(app.Graphs)),
			EdgeWorstDelivery: make(map[model.EdgeID]model.Time),
			PeakOutNode:       make(map[model.NodeID]int),
		},
	}
	return s
}

func (s *simulator) push(e *event) {
	if e.t > s.horizon {
		return
	}
	e.seq = s.seq
	s.seq++
	heap.Push(&s.events, e)
}

func (s *simulator) violate(format string, args ...interface{}) {
	s.res.Violations = append(s.res.Violations, fmt.Sprintf(format, args...))
}

// trace logs one event line when tracing is enabled.
func (s *simulator) trace(t model.Time, format string, args ...interface{}) {
	if s.opts.Trace == nil {
		return
	}
	fmt.Fprintf(s.opts.Trace, "%8d  ", t)
	fmt.Fprintf(s.opts.Trace, format, args...)
	fmt.Fprintln(s.opts.Trace)
}

// releaseOf returns the absolute release time of a process instance.
func (s *simulator) releaseOf(k instKey) model.Time {
	return model.Time(k.inst) * s.app.PeriodOf(k.proc)
}

// drawExec picks the execution time of an instance.
func (s *simulator) drawExec(p *model.Process) model.Time {
	w := p.WCET
	b := p.BCET
	if b <= 0 || b > w {
		b = w
	}
	switch s.opts.Exec {
	case BestCase:
		return b
	case RandomCase:
		if w == b {
			return w
		}
		return b + model.Time(s.rng.Int63n(int64(w-b+1)))
	default:
		return w
	}
}

// prime schedules the statically known events: TT starts, MEDL frames,
// S_G drains and ET source releases, replicated over all cycles.
func (s *simulator) prime() {
	app := s.app
	for _, p := range app.Procs {
		period := app.PeriodOf(p.ID)
		instPerHyper := int(s.hyper / period)
		for c := 0; c < s.opts.Cycles; c++ {
			base := model.Time(c) * s.hyper
			switch s.arch.Kind(p.Node) {
			case model.TimeTriggered:
				starts := s.an.Schedule.ProcStart[p.ID]
				for i, st := range starts {
					k := instKey{p.ID, c*instPerHyper + i}
					s.push(&event{t: base + st, kind: evTTStart, key: k})
				}
			case model.EventTriggered:
				for i := 0; i < instPerHyper; i++ {
					k := instKey{p.ID, c*instPerHyper + i}
					need := len(app.InEdges(p.ID))
					s.inputs[k] = need
					if need == 0 {
						s.push(&event{t: base + model.Time(i)*period, kind: evETArrival, key: k})
					}
				}
			}
		}
	}
	// MEDL frames: delivery of the statically scheduled TTP legs.
	for _, en := range s.an.Schedule.MEDL.Entries {
		period := app.EdgePeriod(en.Edge)
		instPerHyper := int(s.hyper / period)
		for c := 0; c < s.opts.Cycles; c++ {
			base := model.Time(c) * s.hyper
			ei := edgeInst{en.Edge, c*instPerHyper + en.Instance}
			s.push(&event{t: base + en.End, kind: evFrameEnd, ei: ei, msgs: []edgeInst{ei}})
			// Check production in time at frame start.
			startT := base + en.Start
			s.push(&event{t: startT, kind: evFrameCheck, ei: ei})
		}
	}
	// S_G drain points.
	slot := s.cfg.Round.SlotIndexOf(s.arch.Gateway)
	if slot >= 0 {
		p := s.cfg.Round.Period()
		rounds := int(s.horizon / p)
		for r := 0; r <= rounds; r++ {
			st := s.cfg.Round.OccurrenceStart(slot, r)
			s.push(&event{t: st, kind: evSGStart})
		}
	}
}
