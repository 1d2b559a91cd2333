package core

import (
	"fmt"

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
// OptimizeResources neighbourhood focuses its moves there.
type Buffers struct {
	OutCAN  int
	OutTTP  int
	OutNode map[model.NodeID]int
	Total   int

	CriticalOutCAN  model.EdgeID
	CriticalOutTTP  model.EdgeID
	CriticalOutNode map[model.NodeID]model.EdgeID
}

// Analysis is the outcome of MultiClusterScheduling for one system
// configuration.
type Analysis struct {
	Schedule *tsched.Schedule
	Proc     map[model.ProcID]ProcResult
	Edge     map[model.EdgeID]EdgeResult
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
	// Memo, when non-nil, serves the analysis stages (static schedule,
	// per-resource RTA fixed points, OutTTP queue) through exact-input
	// caches shared across configurations (see Memo). Results are
	// bit-identical to Memo == nil; the nil path remains the reference
	// implementation. One Memo must only ever see one (app, arch) pair
	// and one OffsetBlind setting — internal/delta enforces this.
	Memo *Memo
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

// AnalyzeOffsetBlind runs the analysis with the offset refinement
// disabled (see AnalyzeOptions.OffsetBlind).
func AnalyzeOffsetBlind(app *model.Application, arch *model.Architecture, cfg *Config) (*Analysis, error) {
	return AnalyzeWith(app, arch, cfg, AnalyzeOptions{OffsetBlind: true})
}

// AnalyzeWith is Analyze with explicit options.
func AnalyzeWith(app *model.Application, arch *model.Architecture, cfg *Config, aopts AnalyzeOptions) (*Analysis, error) {
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

	lay := newETLayout(app, arch, cfg, horizon, aopts)
	state := newETState(app)
	release := make(map[model.ProcID]model.Time)
	var sched *tsched.Schedule
	iterations := 0
	converged := false
	for iterations < maxMCSIterations {
		iterations++
		in := tsched.Input{
			App: app, Arch: arch, Round: cfg.Round,
			ReleaseOffset: release,
			PinnedProc:    cfg.PinnedProc,
			PinnedEdge:    cfg.PinnedEdge,
		}
		if aopts.Memo != nil {
			sched, err = aopts.Memo.buildSchedule(in, &lay.keys)
		} else {
			sched, err = tsched.Build(in)
		}
		if err != nil {
			return nil, err
		}
		lay.analyzeET(state, sched)
		changed := false
		for _, e := range app.Edges {
			if lay.route[e.ID] != model.RouteETtoTT {
				continue
			}
			dst := e.Dst
			d := state.edge[e.ID].Delivery
			if d > horizon {
				d = horizon
			}
			if d > release[dst] {
				release[dst] = d
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
		Proc:       state.procMap(),
		Edge:       state.edgeMap(),
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
			if !st.known[p] {
				continue
			}
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

// etLayout is the static structure of the holistic ET analysis, built
// once per AnalyzeWith call and shared by every MCS iteration and every
// holistic pass: edge routes and CAN frame times, the topological
// order, the RTA task set and the OutTTP queue vector. Everything in the
// task set and the queue vector except the activation offsets O and
// jitters J depends only on the application, the architecture and the
// configuration, so a pass only rewrites O and J in place.
type etLayout struct {
	app         *model.Application
	arch        *model.Architecture
	cfg         *Config
	horizon     model.Time
	rT, poll    model.Time
	offsetBlind bool
	memo        *Memo

	route   []model.Route // by EdgeID
	canTime []model.Time  // by EdgeID, set for the routes using CAN
	// order is the topological order of all processes; orderErr is set
	// when the graphs are cyclic (validated applications never are).
	order    []model.ProcID
	orderErr error

	// tasks is the RTA task set, contiguous per resource: the ET CPUs in
	// the order of their first process, then the CAN bus. ids[i] is the
	// ProcID of tasks[i] below procTasks and its EdgeID from there on.
	// spans delimit the resources for the per-resource memo lookups;
	// res assembles their results. The analysis reads only the previous
	// pass's responses, so results never depend on the task order and
	// the nil-memo path can run the same grouped slice monolithically.
	tasks     []rta.Task
	ids       []int
	procTasks int
	spans     []resourceSpan
	res       []rta.Result

	// queue is the OutTTP vector (the ET->TT messages in edge order),
	// queueIDs its edges.
	queue       []gateway.QueueMsg
	queueIDs    []model.EdgeID
	queueParams gateway.TTPQueueParams

	// keys is the scratch buffer the memo encodes stage keys into.
	keys keyScratch
}

// resourceSpan is one resource's contiguous run tasks[lo:hi].
type resourceSpan struct {
	resource, lo, hi int
}

func newETLayout(app *model.Application, arch *model.Architecture, cfg *Config, horizon model.Time, aopts AnalyzeOptions) *etLayout {
	l := &etLayout{
		app: app, arch: arch, cfg: cfg,
		horizon:     horizon,
		rT:          arch.GatewayCost,
		poll:        arch.GatewayPoll,
		offsetBlind: aopts.OffsetBlind,
		memo:        aopts.Memo,
		route:       make([]model.Route, len(app.Edges)),
		canTime:     make([]model.Time, len(app.Edges)),
	}
	l.order, l.orderErr = app.TopoOrderAll()
	canLegs := 0
	for _, e := range app.Edges {
		r := app.RouteOf(e.ID, arch)
		l.route[e.ID] = r
		if r.UsesCAN() {
			l.canTime[e.ID] = can.TimeOf(&app.Edges[e.ID], arch.CAN)
			canLegs++
		}
	}

	// ET processes, grouped per CPU.
	perCPU := make([][]model.ProcID, len(arch.Nodes))
	var cpus []model.NodeID
	etProcs := 0
	for _, p := range app.Procs {
		if arch.Kind(p.Node) != model.EventTriggered {
			continue
		}
		if len(perCPU[p.Node]) == 0 {
			cpus = append(cpus, p.Node)
		}
		perCPU[p.Node] = append(perCPU[p.Node], p.ID)
		etProcs++
	}
	l.tasks = make([]rta.Task, 0, etProcs+canLegs)
	l.ids = make([]int, 0, etProcs+canLegs)
	for _, n := range cpus {
		lo := len(l.tasks)
		for _, pid := range perCPU[n] {
			p := &app.Procs[pid]
			l.tasks = append(l.tasks, rta.Task{
				Name: p.Name, Resource: int(p.Node), Priority: cfg.ProcPriority[pid],
				C: p.WCET, T: app.PeriodOf(pid), Trans: l.trans(p.Graph),
			})
			l.ids = append(l.ids, int(pid))
		}
		l.spans = append(l.spans, resourceSpan{resource: int(n), lo: lo, hi: len(l.tasks)})
	}
	l.procTasks = len(l.tasks)

	// CAN legs on the bus (resource id len(arch.Nodes)).
	canBus := len(arch.Nodes)
	for _, e := range app.Edges {
		if !l.route[e.ID].UsesCAN() {
			continue
		}
		l.tasks = append(l.tasks, rta.Task{
			Name: e.Name, Resource: canBus, Priority: cfg.MsgPriority[e.ID],
			C: l.canTime[e.ID], T: app.EdgePeriod(e.ID),
			Trans: l.trans(e.Graph), NonPreemptive: true,
		})
		l.ids = append(l.ids, int(e.ID))
	}
	if len(l.tasks) > l.procTasks {
		l.spans = append(l.spans, resourceSpan{resource: canBus, lo: l.procTasks, hi: len(l.tasks)})
	}
	// Non-preemptive blocking on the CAN bus: B = max lower-priority C.
	for i := range l.tasks {
		if l.tasks[i].NonPreemptive {
			l.tasks[i].B = rta.MaxLowerC(l.tasks, i)
		}
	}
	if l.memo != nil {
		l.res = make([]rta.Result, len(l.tasks))
	}

	for _, e := range app.Edges {
		if l.route[e.ID] != model.RouteETtoTT {
			continue
		}
		l.queue = append(l.queue, gateway.QueueMsg{
			Name: e.Name, Size: e.Size, T: app.EdgePeriod(e.ID),
			Priority: cfg.MsgPriority[e.ID], Trans: l.trans(e.Graph),
		})
		l.queueIDs = append(l.queueIDs, e.ID)
	}
	l.queueParams = gateway.TTPQueueParams{
		Round: cfg.Round, GatewaySlot: cfg.Round.SlotIndexOf(arch.Gateway),
		TickPerByte: arch.TTP.TickPerByte, Horizon: horizon,
	}
	return l
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
// by ProcID and EdgeID. known marks the processes that have a result:
// the TT processes the static table places and, once the graphs are
// traversed, every ET process.
type etState struct {
	proc      []ProcResult
	known     []bool
	edge      []EdgeResult
	converged bool
}

func newETState(app *model.Application) *etState {
	return &etState{
		proc:  make([]ProcResult, len(app.Procs)),
		known: make([]bool, len(app.Procs)),
		edge:  make([]EdgeResult, len(app.Edges)),
	}
}

// procMap materializes the public per-process results.
func (st *etState) procMap() map[model.ProcID]ProcResult {
	n := 0
	for _, k := range st.known {
		if k {
			n++
		}
	}
	m := make(map[model.ProcID]ProcResult, n)
	for p, k := range st.known {
		if k {
			m[model.ProcID(p)] = st.proc[p]
		}
	}
	return m
}

// edgeMap materializes the public per-edge results.
func (st *etState) edgeMap() map[model.EdgeID]EdgeResult {
	m := make(map[model.EdgeID]EdgeResult, len(st.edge))
	for e := range st.edge {
		m[model.EdgeID(e)] = st.edge[e]
	}
	return m
}

// analyzeET runs the holistic inner loop for one static schedule:
// offsets are fixed by the static schedule and the graph structure;
// jitters propagate along the graphs and grow monotonically until the
// response times stabilize. It starts from a cleared st.
func (l *etLayout) analyzeET(st *etState, sched *tsched.Schedule) {
	app := l.app
	clear(st.proc)
	clear(st.known)
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
		st.known[p.ID] = true
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
			st.known[pid] = true
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
	var (
		res []rta.Result
		err error
	)
	if l.memo != nil {
		res, err = l.memoRTA()
	} else {
		res, err = rta.Analyze(l.tasks, rta.Options{Horizon: l.horizon})
	}
	if err != nil {
		st.converged = false
		return false
	}
	changed := false
	for i, r := range res {
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

// memoRTA serves the fixed points per resource through the memo. It is
// bit-identical to the monolithic rta.Analyze because interference never
// crosses resources; the one coupling, the all-unconverged marking when
// any resource exhausts its pass budget, is reapplied here across
// resources. The cached results are copied, never marked in place.
func (l *etLayout) memoRTA() ([]rta.Result, error) {
	stable := true
	for _, sp := range l.spans {
		res, ok, err := l.memo.analyzeResource(sp.resource, l.tasks[sp.lo:sp.hi], l.horizon, &l.keys)
		if err != nil {
			return nil, err
		}
		stable = stable && ok
		copy(l.res[sp.lo:sp.hi], res)
	}
	if !stable {
		for i := range l.res {
			l.res[i].Converged = false
		}
	}
	return l.res, nil
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
	var (
		res []gateway.TTPResult
		err error
	)
	if l.memo != nil {
		res, err = l.memo.analyzeQueue(l.queue, &l.queueParams, &l.keys)
	} else {
		res, err = gateway.AnalyzeOutTTP(l.queue, l.queueParams)
	}
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
	app, cfg := l.app, l.cfg
	b := Buffers{
		OutNode:         make(map[model.NodeID]int),
		CriticalOutCAN:  -1,
		CriticalOutTTP:  -1,
		CriticalOutNode: make(map[model.NodeID]model.EdgeID),
	}
	// OutCAN: TT->ET messages forwarded by the gateway.
	var outCAN []gateway.CANQueueMsg
	var outCANIDs []model.EdgeID
	// OutN_i: per ET node, the CAN messages its processes send.
	outNode := make(map[model.NodeID][]gateway.CANQueueMsg)
	outNodeIDs := make(map[model.NodeID][]model.EdgeID)
	for _, e := range app.Edges {
		er := &st.edge[e.ID]
		if !er.Route.UsesCAN() {
			continue
		}
		qm := gateway.CANQueueMsg{
			QueueMsg: gateway.QueueMsg{
				Name: e.Name, Size: e.Size, T: app.EdgePeriod(e.ID),
				O: er.CANO, J: er.CANJ, Priority: cfg.MsgPriority[e.ID], Trans: l.trans(e.Graph),
			},
			W: er.CANW,
		}
		if er.Route == model.RouteTTtoET {
			outCAN = append(outCAN, qm)
			outCANIDs = append(outCANIDs, e.ID)
		} else {
			n := app.Procs[e.Src].Node
			outNode[n] = append(outNode[n], qm)
			outNodeIDs[n] = append(outNodeIDs[n], e.ID)
		}
	}
	var crit int
	b.OutCAN, crit = gateway.CANQueueBufferBound(outCAN)
	if crit >= 0 {
		b.CriticalOutCAN = outCANIDs[crit]
	}
	for n, msgs := range outNode {
		b.OutNode[n], crit = gateway.CANQueueBufferBound(msgs)
		if crit >= 0 {
			b.CriticalOutNode[n] = outNodeIDs[n][crit]
		}
	}
	if len(l.queue) > 0 {
		l.refreshQueue(st)
		res := make([]gateway.TTPResult, len(l.queueIDs))
		for i, id := range l.queueIDs {
			er := &st.edge[id]
			res[i] = gateway.TTPResult{W: er.QueueW, I: er.QueueI}
		}
		b.OutTTP, crit = gateway.OutTTPBufferBound(l.queue, res)
		if crit >= 0 {
			b.CriticalOutTTP = l.queueIDs[crit]
		}
	}
	b.Total = b.OutCAN + b.OutTTP
	for _, v := range b.OutNode {
		b.Total += v
	}
	return b
}
