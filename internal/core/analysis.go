package core

import (
	"fmt"
	"slices"

	"repro/internal/can"
	"repro/internal/gateway"
	"repro/internal/model"
	"repro/internal/rta"
	"repro/internal/tsched"
)

// ProcResult holds the analysis outcome of one process, relative to its
// graph release: the activation window starts at O, spreads over J, and
// the process completes no later than O + R (R = J + W + C).
// TT processes have deterministic starts: W is 0 and J is the envelope
// spread across hyper-period instances.
type ProcResult struct {
	O, J, W, R model.Time
	Converged  bool
}

// Completion returns the worst-case completion offset O + R.
func (p ProcResult) Completion() model.Time { return p.O + p.R }

// EdgeResult holds the per-leg analysis of a message.
type EdgeResult struct {
	Route model.Route
	// TTPArrival is the worst-case in-period delivery offset of the
	// statically scheduled TTP leg (routes TT->TT and TT->ET).
	TTPArrival model.Time
	// CANO/CANJ/CANW/CANR describe the CAN leg (routes using the bus):
	// entry offset, entry jitter, arbitration delay and response.
	CANO, CANJ, CANW, CANR model.Time
	// QueueJ/QueueW/QueueI describe the OutTTP FIFO leg (route ET->TT):
	// entry jitter (relative to CANO), queuing delay and bytes ahead.
	QueueJ, QueueW model.Time
	QueueI         int
	// Delivery is the worst-case offset at which the message is
	// available at the destination node, relative to the graph release.
	Delivery model.Time
	// Converged is false if any leg's fixed point hit the horizon.
	Converged bool
}

// Buffers reports the gateway/ETC queue bounds of §4.1 and their sum,
// the optimization objective s_total of §5. The Critical* fields name
// the message attaining each bound (-1 when the queue is unused); the
// OptimizeResources neighbourhood focuses its moves there. OutNode and
// CriticalOutNode are indexed by NodeID: a node without an OutN queue
// reads 0 and -1, and every existing queue's bound is positive.
type Buffers struct {
	OutCAN  int
	OutTTP  int
	OutNode []int
	Total   int

	CriticalOutCAN  model.EdgeID
	CriticalOutTTP  model.EdgeID
	CriticalOutNode []model.EdgeID
}

// Analysis is the outcome of MultiClusterScheduling for one system
// configuration.
type Analysis struct {
	Schedule *tsched.Schedule
	// Proc holds the result of every process by ProcID, Edge that of
	// every edge by EdgeID.
	Proc []ProcResult
	Edge []EdgeResult
	// GraphResp is R_Gi per process graph: the worst-case offset of the
	// sink completions relative to the graph release.
	GraphResp []model.Time
	// Schedulable is true when every graph meets its deadline, every
	// local process deadline holds, the static table fits its cycle and
	// all fixed points converged.
	Schedulable bool
	// Delta is the degree of schedulability delta_Gamma (§5): when
	// positive it is f1 = sum of deadline overruns (smaller is better);
	// when every deadline holds it is f2 = sum of (R_Gi - D_Gi), a
	// negative number measuring aggregate slack (more negative is
	// better). Delta never mixes the two regimes: f1 > 0 implies
	// Delta = f1 > 0 >= any schedulable f2.
	Delta model.Time
	// Buffers holds the queue bounds; Buffers.Total is s_total.
	Buffers Buffers
	// Iterations counts the outer MultiClusterScheduling loops;
	// Converged reports whether the offsets stabilized before the cap.
	Iterations int
	Converged  bool
}

// horizonFactor scales the hyper-period into the divergence cap of all
// fixed points.
const horizonFactor = 8

// maxMCSIterations caps the outer loop of Fig. 5; maxHolisticIterations
// caps the inner jitter-propagation loop.
const (
	maxMCSIterations      = 32
	maxHolisticIterations = 100
)

// AnalyzeOptions tunes Analyze variants.
type AnalyzeOptions struct {
	// OffsetBlind disables the offset-based interference reduction of
	// §4: every activity is treated as phase-unrelated (classic
	// critical-instant analysis). Used by the ablation experiments to
	// quantify the value of the paper's offset refinement.
	OffsetBlind bool
}

// Analyze runs MultiClusterScheduling (Fig. 5): starting from a static
// schedule that ignores the ETC, it alternates the ETC response-time
// analysis with the TTC static scheduling until the ET->TT arrival
// offsets stabilize. The release constraints only grow across iterations
// (monotone envelope), which guarantees termination; configurations that
// fail to stabilize within the cap are flagged unconverged and carry
// clamped response times, so optimization cost functions can still rank
// them.
func Analyze(app *model.Application, arch *model.Architecture, cfg *Config) (*Analysis, error) {
	return AnalyzeWith(app, arch, cfg, AnalyzeOptions{})
}

// EvalFunc analyzes one configuration of a fixed (application,
// architecture) pair. It is the one evaluation seam of the optimizers
// (OS, OR, HOPA, SA, DSE) and the engine's batches: Evaluator reuses
// nothing across configurations, Memo.Analyze everything it can.
// Implementations must be safe for concurrent use and return identical
// results for identical configurations, so batches stay worker-count
// independent.
type EvalFunc func(*Config) (*Analysis, error)

// Evaluator is Analyze partially applied to app and arch: the EvalFunc
// that reuses nothing across configurations.
func Evaluator(app *model.Application, arch *model.Architecture) EvalFunc {
	return func(cfg *Config) (*Analysis, error) {
		return Analyze(app, arch, cfg)
	}
}

// AnalyzeOffsetBlind runs the analysis with the offset refinement
// disabled (see AnalyzeOptions.OffsetBlind).
func AnalyzeOffsetBlind(app *model.Application, arch *model.Architecture, cfg *Config) (*Analysis, error) {
	return AnalyzeWith(app, arch, cfg, AnalyzeOptions{OffsetBlind: true})
}

// AnalyzeWith is Analyze with explicit options. It runs through a Memo
// of its own whose tables store nothing, so nothing is reused across
// calls.
func AnalyzeWith(app *model.Application, arch *model.Architecture, cfg *Config, aopts AnalyzeOptions) (*Analysis, error) {
	return (&Memo{app: app, arch: arch}).analyzeStages(cfg, aopts.OffsetBlind)
}

// analyzeStages runs MultiClusterScheduling of cfg on m's pair, serving
// the static schedule, the per-resource RTA fixed points and the OutTTP
// queue through m's stage tables; it never consults the whole-analysis
// table. Memo.Analyze never sets offsetBlind, and the interned RTA and
// queue inputs carry each task's transaction id, which is -1 only when
// offset-blind, so the stage tables never mix the two settings.
func (m *Memo) analyzeStages(cfg *Config, offsetBlind bool) (*Analysis, error) {
	app, arch := m.app, m.arch
	if err := cfg.Validate(app, arch); err != nil {
		return nil, err
	}
	hyper, err := app.Hyperperiod()
	if err != nil {
		return nil, err
	}
	if cfg.Round.Period() <= 0 || hyper%cfg.Round.Period() != 0 {
		return nil, errRoundNotNormalized(cfg.Round.Period(), hyper)
	}
	horizon := hyper * horizonFactor

	lay := m.layout()
	defer m.recycle(lay)
	lay.start(cfg, horizon, offsetBlind)
	state := &lay.st
	var sched *tsched.Schedule
	iterations := 0
	converged := false
	for iterations < maxMCSIterations {
		iterations++
		sched, err = m.buildSchedule(tsched.Input{
			App: app, Arch: arch, Round: cfg.Round,
			ReleaseOffset: lay.release,
			PinnedProc:    cfg.PinnedProc,
			PinnedEdge:    cfg.PinnedEdge,
			LongestPath:   lay.longestPath,
		}, lay)
		if err != nil {
			return nil, err
		}
		lay.analyzeET(state, sched)
		changed := false
		for _, r := range lay.releaseEdges {
			d := min(state.edge[r.edge].Delivery, horizon)
			if d > lay.releaseAt[r.dst] {
				lay.releaseAt[r.dst] = d
				lay.release[lay.releaseDst[r.dst]] = d
				changed = true
			}
		}
		if !changed {
			converged = true
			break
		}
	}

	a := &Analysis{
		Schedule:   sched,
		Proc:       slices.Clone(state.proc),
		Edge:       slices.Clone(state.edge),
		Iterations: iterations,
		Converged:  converged && state.converged,
	}
	a.finishMetrics(lay, state)
	return a, nil
}

func errRoundNotNormalized(period, hyper model.Time) error {
	return fmt.Errorf("core: round period %d does not divide hyper-period %d (call Config.Normalize)", period, hyper)
}

// finishMetrics computes graph responses, delta and buffer bounds.
func (a *Analysis) finishMetrics(lay *etLayout, st *etState) {
	app := lay.app
	a.GraphResp = make([]model.Time, len(app.Graphs))
	var f1, f2 model.Time
	allConverged := a.Converged
	for g := range app.Graphs {
		var resp model.Time
		for _, p := range app.Graphs[g].Procs {
			pr := &st.proc[p]
			if !pr.Converged {
				allConverged = false
			}
			if len(app.OutEdges(p)) == 0 && pr.Completion() > resp {
				resp = pr.Completion()
			}
			if d := app.Procs[p].Deadline; d > 0 && pr.Completion() > d {
				f1 += pr.Completion() - d
			}
		}
		a.GraphResp[g] = resp
		d := app.Graphs[g].Deadline
		if resp > d {
			f1 += resp - d
		}
		f2 += resp - d
	}
	if f1 > 0 {
		a.Delta = f1
	} else {
		a.Delta = f2
	}
	a.Schedulable = f1 == 0 && a.Schedule.WithinCycle && allConverged
	a.Converged = allConverged
	a.Buffers = computeBuffers(lay, st)
}

// etFrame is the configuration-independent half of the holistic ET
// analysis of one (application, architecture) pair: everything the
// analysis reads that no Config can change. A Memo builds it once and
// shares it, read-only, with every analysis it serves.
type etFrame struct {
	app      *model.Application
	arch     *model.Architecture
	rT, poll model.Time

	route   []model.Route // by EdgeID
	canTime []model.Time  // by EdgeID, set for the routes using CAN
	// order is the topological order of all processes; orderErr is set
	// when the graphs are cyclic (validated applications never are).
	order    []model.ProcID
	orderErr error
	// longestPath is the list scheduler's tie-break table
	// (App.LongestPathToSink), nil when the graphs are cyclic.
	longestPath []model.Time

	// taskTmpl is the RTA task set, contiguous per resource: the ET CPUs
	// in the order of their first process, then the CAN bus. It carries
	// the names, resources, C, T and non-preemption; Trans holds the
	// graph index, and Priority, B, O and J are left to the analysis.
	// ids[i] is the ProcID of task i below procTasks and its EdgeID from
	// there on. spans delimit the resources.
	taskTmpl  []rta.Task
	ids       []int
	procTasks int
	spans     []resourceSpan

	// queueTmpl is the OutTTP vector (the ET->TT messages in edge order)
	// with names, sizes and periods, Trans holding the graph index;
	// queueIDs are its edges.
	queueTmpl []gateway.QueueMsg
	queueIDs  []model.EdgeID

	// releaseDst are the TT processes that receive ET->TT messages, each
	// once, in the order of their first such edge; releaseEdges are the
	// ET->TT edges in edge order with the index of their destination.
	releaseDst   []model.ProcID
	releaseEdges []releaseEdge

	// canQueues are the CAN output queues of §4.1.1: OutCAN (the TT->ET
	// messages the gateway forwards) first, then each ET node's OutN in
	// the order of its first CAN message. Each lists its messages as
	// indices into the task set, in edge order.
	canQueues   []canQueue
	maxCANQueue int
}

// resourceSpan is one resource's contiguous run tasks[lo:hi].
type resourceSpan struct {
	resource, lo, hi int
}

// releaseEdge is one ET->TT edge and the index of its destination in
// etFrame.releaseDst.
type releaseEdge struct {
	edge model.EdgeID
	dst  int
}

// canQueue is one CAN output queue: its node (-1 for OutCAN) and the
// task indices of its messages. size counts them while the frame is
// built.
type canQueue struct {
	node  model.NodeID
	tasks []int
	size  int
}

// newETFrame builds the frame of app on arch. Every slice is counted
// before it is filled, so each is allocated once.
func newETFrame(app *model.Application, arch *model.Architecture) *etFrame {
	f := &etFrame{
		app: app, arch: arch,
		rT:      arch.GatewayCost,
		poll:    arch.GatewayPoll,
		route:   make([]model.Route, len(app.Edges)),
		canTime: make([]model.Time, len(app.Edges)),
	}
	f.order, f.orderErr = app.TopoOrderAll()
	f.longestPath, _ = app.LongestPathToSink() // its error is orderErr's
	canLegs, etTT := 0, 0
	for _, e := range app.Edges {
		r := app.RouteOf(e.ID, arch)
		f.route[e.ID] = r
		if r.UsesCAN() {
			f.canTime[e.ID] = can.TimeOf(&app.Edges[e.ID], arch.CAN)
			canLegs++
		}
		if r == model.RouteETtoTT {
			etTT++
		}
	}

	// ET processes, grouped per CPU in the order of each CPU's first
	// process: count them, lay out one span per CPU, then place each
	// process at its CPU's next free index.
	nodes := len(arch.Nodes)
	perNode := make([]int, 2*nodes)
	perNode, next := perNode[:nodes], perNode[nodes:]
	etProcs, cpus := 0, 0
	for _, p := range app.Procs {
		if arch.Kind(p.Node) == model.EventTriggered {
			if perNode[p.Node] == 0 {
				cpus++
			}
			perNode[p.Node]++
			etProcs++
		}
	}
	f.taskTmpl = make([]rta.Task, etProcs+canLegs)
	f.ids = make([]int, etProcs+canLegs)
	f.spans = make([]resourceSpan, 0, cpus+1)
	n := 0
	for _, p := range app.Procs {
		if arch.Kind(p.Node) != model.EventTriggered {
			continue
		}
		if c := perNode[p.Node]; c > 0 { // the CPU's first process
			f.spans = append(f.spans, resourceSpan{resource: int(p.Node), lo: n, hi: n + c})
			next[p.Node] = n
			n += c
			perNode[p.Node] = 0
		}
		i := next[p.Node]
		next[p.Node]++
		f.taskTmpl[i] = rta.Task{
			Name: p.Name, Resource: int(p.Node),
			C: p.WCET, T: app.PeriodOf(p.ID), Trans: p.Graph,
		}
		f.ids[i] = int(p.ID)
	}
	f.procTasks = etProcs

	// The CAN queues: count each queue's members, then give each queue
	// its run of one member slice. perNode (all zero again) becomes the
	// index of each sending node's OutN, 0 while it has none.
	outN := perNode
	f.canQueues = make([]canQueue, 1, cpus+1)
	f.canQueues[0].node = -1
	queueOf := func(e *model.Edge) *canQueue {
		if f.route[e.ID] == model.RouteTTtoET {
			return &f.canQueues[0]
		}
		n := app.Procs[e.Src].Node
		if outN[n] == 0 {
			outN[n] = len(f.canQueues)
			f.canQueues = append(f.canQueues, canQueue{node: n})
		}
		return &f.canQueues[outN[n]]
	}
	for i := range app.Edges {
		if f.route[i].UsesCAN() {
			queueOf(&app.Edges[i]).size++
		}
	}
	members := make([]int, canLegs)
	lo := 0
	for q := range f.canQueues {
		cq := &f.canQueues[q]
		cq.tasks = members[lo : lo : lo+cq.size]
		lo += cq.size
		f.maxCANQueue = max(f.maxCANQueue, cq.size)
	}

	// CAN legs on the bus (resource id len(arch.Nodes)), the OutTTP
	// vector and the release destinations, in edge order.
	if canLegs > 0 {
		f.spans = append(f.spans, resourceSpan{resource: nodes, lo: etProcs, hi: etProcs + canLegs})
	}
	f.queueTmpl = make([]gateway.QueueMsg, 0, etTT)
	f.queueIDs = make([]model.EdgeID, 0, etTT)
	f.releaseEdges = make([]releaseEdge, 0, etTT)
	i := etProcs
	for _, e := range app.Edges {
		r := f.route[e.ID]
		if r.UsesCAN() {
			f.taskTmpl[i] = rta.Task{
				Name: e.Name, Resource: nodes,
				C: f.canTime[e.ID], T: app.EdgePeriod(e.ID),
				Trans: e.Graph, NonPreemptive: true,
			}
			f.ids[i] = int(e.ID)
			cq := queueOf(&app.Edges[e.ID])
			cq.tasks = append(cq.tasks, i)
			i++
		}
		if r != model.RouteETtoTT {
			continue
		}
		f.queueTmpl = append(f.queueTmpl, gateway.QueueMsg{
			Name: e.Name, Size: e.Size, T: app.EdgePeriod(e.ID), Trans: e.Graph,
		})
		f.queueIDs = append(f.queueIDs, e.ID)
		d := slices.Index(f.releaseDst, e.Dst)
		if d < 0 {
			d = len(f.releaseDst)
			f.releaseDst = append(f.releaseDst, e.Dst)
		}
		f.releaseEdges = append(f.releaseEdges, releaseEdge{edge: e.ID, dst: d})
	}
	return f
}

// etLayout is one analysis's working set over a frame: the task set and
// the OutTTP vector with this configuration's priorities, transaction
// ids and CAN blocking filled in, the dense state, the release offsets
// and the key buffer. Only O and J move between holistic passes, and a
// pass rewrites them in place. A Memo recycles its layouts.
type etLayout struct {
	*etFrame
	cfg         *Config
	horizon     model.Time
	offsetBlind bool
	memo        *Memo

	// res and resp are the RTA results and scratch of the task set, by
	// task index; spanIDs hold each span's interned static input, which
	// carries its higher-priority index.
	tasks   []rta.Task
	res     []rta.Result
	resp    []model.Time
	spanIDs []*rtaStatic

	queue       []gateway.QueueMsg
	queueParams gateway.TTPQueueParams
	queueID     uint64

	st etState
	// release holds the ET->TT release offsets handed to tsched.Build,
	// releaseAt the same values by etFrame.releaseDst index.
	release   map[model.ProcID]model.Time
	releaseAt []model.Time

	canMsgs  []gateway.CANQueueMsg
	queueRes []gateway.TTPResult

	// keys is the buffer the memo encodes stage keys into.
	keys keyScratch
}

// newETLayout builds a layout over f for memo. It owns copies of the
// task and queue templates, so f stays shared.
func newETLayout(f *etFrame, memo *Memo) *etLayout {
	return &etLayout{
		etFrame: f,
		memo:    memo,
		tasks:   slices.Clone(f.taskTmpl),
		res:     make([]rta.Result, len(f.taskTmpl)),
		resp:    make([]model.Time, len(f.taskTmpl)),
		spanIDs: make([]*rtaStatic, len(f.spans)),
		queue:   slices.Clone(f.queueTmpl),
		st: etState{
			proc: make([]ProcResult, len(f.app.Procs)),
			edge: make([]EdgeResult, len(f.app.Edges)),
		},
		release:   make(map[model.ProcID]model.Time, len(f.releaseDst)),
		releaseAt: make([]model.Time, len(f.releaseDst)),
		canMsgs:   make([]gateway.CANQueueMsg, 0, f.maxCANQueue),
		queueRes:  make([]gateway.TTPResult, len(f.queueTmpl)),
		keys:      keyScratch{buf: make([]byte, 0, keyBufSize(f))},
	}
}

// start prepares l for one analysis of cfg: it clears the release
// offsets and fills the configuration's priorities, the transaction ids
// and the CAN blocking factors into the task set and the queue vector.
// It then interns each span's static RTA input and the queue's static
// input, and encodes the schedule key's fixed prefix.
func (l *etLayout) start(cfg *Config, horizon model.Time, offsetBlind bool) {
	l.cfg, l.horizon, l.offsetBlind = cfg, horizon, offsetBlind
	clear(l.release)
	clear(l.releaseAt)
	for i := range l.tasks {
		t := &l.tasks[i]
		t.Trans = l.trans(l.taskTmpl[i].Trans)
		if i < l.procTasks {
			t.Priority = cfg.ProcPriority[l.ids[i]]
		} else {
			t.Priority = cfg.MsgPriority[l.ids[i]]
		}
	}
	// Non-preemptive blocking on the CAN bus: B = max lower-priority C.
	if len(l.tasks) > l.procTasks {
		bus := l.tasks[l.procTasks:]
		for i := range bus {
			bus[i].B = rta.MaxLowerC(bus, i)
		}
	}
	for k := range l.queue {
		m := &l.queue[k]
		m.Priority = cfg.MsgPriority[l.queueIDs[k]]
		m.Trans = l.trans(l.queueTmpl[k].Trans)
	}
	l.queueParams = gateway.TTPQueueParams{
		Round: cfg.Round, GatewaySlot: cfg.Round.SlotIndexOf(l.arch.Gateway),
		TickPerByte: l.arch.TTP.TickPerByte, Horizon: horizon,
	}
	for k, sp := range l.spans {
		group := l.tasks[sp.lo:sp.hi]
		l.spanIDs[k] = l.memo.internRTA(l.keys.rtaStaticKey(sp.resource, group, horizon), group)
	}
	if len(l.queue) > 0 {
		l.queueID = l.memo.internQueue(l.keys.queueStaticKey(l.queue, &l.queueParams))
	}
	l.keys.startSched(cfg)
}

// trans maps a graph index to the transaction id used by the analysis:
// -1 (pairwise unrelated) in offset-blind mode.
func (l *etLayout) trans(graph int) int {
	if l.offsetBlind {
		return -1
	}
	return graph
}

// etState is the mutable state of the holistic ET-side analysis, dense
// by ProcID and EdgeID. Every process has a result once the graphs are
// traversed: the static table places every TT process, and the traversal
// reaches every ET process. A Memo recycles the state with its layout,
// so an Analysis gets copies.
type etState struct {
	proc      []ProcResult
	edge      []EdgeResult
	converged bool
}

// analyzeET runs the holistic inner loop for one static schedule:
// offsets are fixed by the static schedule and the graph structure;
// jitters propagate along the graphs and grow monotonically until the
// response times stabilize. It starts from a cleared st.
func (l *etLayout) analyzeET(st *etState, sched *tsched.Schedule) {
	app := l.app
	clear(st.proc)
	st.converged = true

	// Static facts: TT process results and TTP-leg arrivals.
	for _, p := range app.Procs {
		if l.arch.Kind(p.Node) != model.TimeTriggered {
			continue
		}
		off, spread, ok := sched.OffsetOf(app, p.ID)
		if !ok {
			continue
		}
		st.proc[p.ID] = ProcResult{O: off, J: spread, W: 0, R: spread + p.WCET, Converged: true}
	}
	for _, e := range app.Edges {
		route := l.route[e.ID]
		er := EdgeResult{Route: route, Converged: true}
		if route.UsesTTP() {
			if worst, ok := sched.WorstArrivalOffset(app, e.ID); ok {
				er.TTPArrival = worst
				if route == model.RouteTTP {
					er.Delivery = worst
				}
			}
		}
		st.edge[e.ID] = er
	}

	if l.orderErr != nil {
		// Validated applications cannot get here.
		st.converged = false
		return
	}

	// Holistic loop: traverse graphs to refresh O/J from current
	// responses, then run the per-resource fixed points.
	for it := 0; it < maxHolisticIterations; it++ {
		l.traverse(st, sched)
		changed := l.runRTA(st)
		changed = l.runQueue(st) || changed
		if !changed {
			return
		}
	}
	st.converged = false
}

// traverse recomputes activation offsets and jitters along every graph,
// using the current leg responses.
func (l *etLayout) traverse(st *etState, sched *tsched.Schedule) {
	app := l.app
	for _, pid := range l.order {
		p := &app.Procs[pid]
		// Refresh the legs of the incoming edges first, then the
		// process itself.
		if l.arch.Kind(p.Node) == model.EventTriggered {
			var o, worst model.Time
			first := true
			for _, e := range app.InEdges(pid) {
				er := &st.edge[e]
				var co, cd model.Time // contribution offset, worst delivery
				switch er.Route {
				case model.RouteLocal:
					src := &st.proc[app.Edges[e].Src]
					co, cd = src.O, src.Completion()
				case model.RouteCAN, model.RouteTTtoET:
					co, cd = er.CANO, er.CANO+er.CANR
				default:
					continue
				}
				if first || co > o {
					o = co
				}
				if first || cd > worst {
					worst = cd
				}
				first = false
			}
			pr := &st.proc[pid]
			pr.O = o
			if worst > o {
				pr.J = worst - o
			} else {
				pr.J = 0
			}
			// W, R filled by runRTA; keep current values meanwhile.
			if pr.R < pr.J+p.WCET {
				pr.R = pr.J + p.WCET
			}
		}
		// Outgoing edges: set the entry offset/jitter of their legs.
		src := &st.proc[pid]
		for _, e := range app.OutEdges(pid) {
			er := &st.edge[e]
			switch er.Route {
			case model.RouteCAN, model.RouteETtoTT:
				er.CANO = src.O
				er.CANJ = src.R // completion worst = O + R
				if er.Route == model.RouteETtoTT {
					er.QueueJ = er.CANJ + er.CANW + l.canTime[e] + l.rT
				}
			case model.RouteTTtoET:
				off, spread, ok := sched.ArrivalOffsetOf(app, e)
				if ok {
					er.CANO = off
					er.CANJ = spread + l.rT + l.poll
				}
			}
		}
	}
}

// runRTA refreshes O and J of the task set (ET processes per CPU, CAN
// legs on the bus) and runs the fixed points. It returns whether any W
// or R changed.
func (l *etLayout) runRTA(st *etState) bool {
	if len(l.tasks) == 0 {
		return false
	}
	for i := range l.tasks {
		t := &l.tasks[i]
		if i < l.procTasks {
			pr := &st.proc[l.ids[i]]
			t.O, t.J = pr.O, pr.J
		} else {
			er := &st.edge[l.ids[i]]
			t.O, t.J = er.CANO, er.CANJ
		}
	}
	// The fixed points run per resource, bit-identical to one
	// rta.AnalyzeStable over the whole set: interference never crosses
	// resources. The one coupling, the all-unconverged marking when any
	// resource exhausts its pass budget, is reapplied across resources.
	stable := true
	for k := range l.spans {
		sp := &l.spans[k]
		ok, err := l.memo.analyzeResource(l.spanIDs[k], l.tasks[sp.lo:sp.hi], l.horizon, &l.keys,
			l.res[sp.lo:sp.hi], l.resp[sp.lo:sp.hi])
		if err != nil {
			st.converged = false
			return false
		}
		stable = stable && ok
	}
	changed := false
	for i, r := range l.res {
		r.Converged = r.Converged && stable
		if i < l.procTasks {
			pr := &st.proc[l.ids[i]]
			if pr.W != r.W || pr.R != r.R {
				changed = true
			}
			pr.W, pr.R, pr.Converged = r.W, r.R, r.Converged
		} else {
			er := &st.edge[l.ids[i]]
			if er.CANW != r.W || er.CANR != r.R {
				changed = true
			}
			er.CANW, er.CANR = r.W, r.R
			er.Converged = r.Converged
			if er.Route == model.RouteCAN || er.Route == model.RouteTTtoET {
				er.Delivery = er.CANO + er.CANR
			}
		}
	}
	return changed
}

// refreshQueue writes the current entry offsets and jitters into the
// OutTTP vector.
func (l *etLayout) refreshQueue(st *etState) {
	for k, id := range l.queueIDs {
		er := &st.edge[id]
		l.queue[k].O, l.queue[k].J = er.CANO, er.QueueJ
	}
}

// runQueue analyzes the OutTTP FIFO for the ET->TT messages.
func (l *etLayout) runQueue(st *etState) bool {
	if len(l.queue) == 0 {
		return false
	}
	l.refreshQueue(st)
	res, err := l.memo.analyzeQueue(l.queueID, l.queue, &l.queueParams, &l.keys)
	if err != nil {
		st.converged = false
		return false
	}
	slotLen := l.cfg.Round.Slots[l.queueParams.GatewaySlot].Length
	changed := false
	for i, r := range res {
		er := &st.edge[l.queueIDs[i]]
		delivery := er.CANO + er.QueueJ + r.W + slotLen
		if er.QueueW != r.W || er.QueueI != r.I || er.Delivery != delivery {
			changed = true
		}
		er.QueueW, er.QueueI = r.W, r.I
		er.Delivery = delivery
		if !r.Converged {
			er.Converged = false
		}
	}
	return changed
}

// computeBuffers evaluates the §4.1 queue bounds for the final state.
func computeBuffers(l *etLayout, st *etState) Buffers {
	app := l.app
	b := Buffers{
		OutNode:         make([]int, len(l.arch.Nodes)),
		CriticalOutCAN:  -1,
		CriticalOutTTP:  -1,
		CriticalOutNode: make([]model.EdgeID, len(l.arch.Nodes)),
	}
	for n := range b.CriticalOutNode {
		b.CriticalOutNode[n] = -1
	}
	// OutCAN (TT->ET messages forwarded by the gateway), then OutN_i per
	// ET node (the CAN messages its processes send).
	for q, cq := range l.canQueues {
		msgs := l.canMsgs[:0]
		for _, i := range cq.tasks {
			t := &l.tasks[i]
			er := &st.edge[l.ids[i]]
			msgs = append(msgs, gateway.CANQueueMsg{
				QueueMsg: gateway.QueueMsg{
					Name: t.Name, Size: app.Edges[l.ids[i]].Size, T: t.T,
					O: er.CANO, J: er.CANJ, Priority: t.Priority, Trans: t.Trans,
				},
				W: er.CANW,
			})
		}
		bound, crit := gateway.CANQueueBufferBound(msgs)
		b.Total += bound
		if q == 0 {
			b.OutCAN = bound
			if crit >= 0 {
				b.CriticalOutCAN = model.EdgeID(l.ids[cq.tasks[crit]])
			}
			continue
		}
		b.OutNode[cq.node] = bound
		if crit >= 0 {
			b.CriticalOutNode[cq.node] = model.EdgeID(l.ids[cq.tasks[crit]])
		}
	}
	if len(l.queue) > 0 {
		l.refreshQueue(st)
		for i, id := range l.queueIDs {
			er := &st.edge[id]
			l.queueRes[i] = gateway.TTPResult{W: er.QueueW, I: er.QueueI}
		}
		var crit int
		b.OutTTP, crit = gateway.OutTTPBufferBound(l.queue, l.queueRes)
		if crit >= 0 {
			b.CriticalOutTTP = l.queueIDs[crit]
		}
		b.Total += b.OutTTP
	}
	return b
}
