package core_test

// An executable specification of MultiClusterScheduling (Fig. 5 of the
// paper, ARCHITECTURE §3.1), written from outside the fast path: it
// reaches only exported API, keeps its state in maps keyed by process
// and edge, rebuilds every input of the leaf kernels from the
// application and the configuration on each pass, and runs plain loops.
// It has no analysis frame, layout, memo, interning or dense state.
//
// The leaf kernels are shared with the fast path: the list scheduler
// (tsched.Build), the response-time fixed point (rta.AnalyzeStable, run
// once over every ET CPU and the CAN bus together), the CAN blocking term
// (rta.MaxLowerC), the gateway queue analyses (package gateway) and the
// CAN frame time (can.TimeOf). What the spec checks is their
// composition: the outer release-offset loop, the holistic jitter
// propagation, the gateway legs and the metrics and buffer bounds.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/can"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/rta"
	"repro/internal/tsched"
)

// The caps of the analysis: every fixed point diverges at eight
// hyper-periods, the outer loop of Fig. 5 runs at most 32 times and the
// holistic jitter propagation at most 100 passes per outer iteration.
const (
	specHorizonFactor = 8
	specOuterCap      = 32
	specHolisticCap   = 100
)

// specSystem is one analysis's read-only input.
type specSystem struct {
	app         *model.Application
	arch        *model.Architecture
	cfg         *core.Config
	horizon     model.Time
	offsetBlind bool
}

// specState is the holistic state of one outer iteration, per process
// and per edge.
type specState struct {
	proc      map[model.ProcID]*core.ProcResult
	edge      map[model.EdgeID]*core.EdgeResult
	converged bool
}

// specAnalyze is MultiClusterScheduling: build the static schedule,
// analyze the ET side under it, raise each TT receiver's release offset
// to the latest delivery of its ET->TT messages, and repeat until no
// offset rises.
func specAnalyze(app *model.Application, arch *model.Architecture, cfg *core.Config, offsetBlind bool) (*core.Analysis, error) {
	hyper, err := app.Hyperperiod()
	if err != nil {
		return nil, err
	}
	if p := cfg.Round.Period(); p <= 0 || hyper%p != 0 {
		return nil, fmt.Errorf("spec: round period %d does not divide hyper-period %d", p, hyper)
	}
	s := &specSystem{app: app, arch: arch, cfg: cfg, horizon: specHorizonFactor * hyper, offsetBlind: offsetBlind}

	release := map[model.ProcID]model.Time{}
	var (
		sched *tsched.Schedule
		st    *specState
	)
	iterations, converged := 0, false
	for iterations < specOuterCap {
		iterations++
		sched, err = tsched.Build(tsched.Input{
			App: app, Arch: arch, Round: cfg.Round,
			ReleaseOffset: release,
			PinnedProc:    cfg.PinnedProc,
			PinnedEdge:    cfg.PinnedEdge,
		})
		if err != nil {
			return nil, err
		}
		st = s.holistic(sched)
		changed := false
		for _, e := range app.Edges {
			if s.route(e.ID) != model.RouteETtoTT {
				continue
			}
			if d := min(st.edge[e.ID].Delivery, s.horizon); d > release[e.Dst] {
				release[e.Dst] = d
				changed = true
			}
		}
		if !changed {
			converged = true
			break
		}
	}

	a := &core.Analysis{
		Schedule:   sched,
		Proc:       make([]core.ProcResult, len(app.Procs)),
		Edge:       make([]core.EdgeResult, len(app.Edges)),
		Iterations: iterations,
		Converged:  converged && st.converged,
	}
	for id, pr := range st.proc {
		a.Proc[id] = *pr
	}
	for id, er := range st.edge {
		a.Edge[id] = *er
	}
	s.metrics(a)
	a.Buffers = s.buffers(st)
	return a, nil
}

func (s *specSystem) route(e model.EdgeID) model.Route { return s.app.RouteOf(e, s.arch) }

func (s *specSystem) kind(p model.ProcID) model.ClusterKind {
	return s.arch.Kind(s.app.Procs[p].Node)
}

// trans is the transaction of a graph's activities: the graph, or -1
// (unrelated to everything) when the offset refinement is off.
func (s *specSystem) trans(graph int) int {
	if s.offsetBlind {
		return -1
	}
	return graph
}

// canTime is the worst-case CAN frame time of edge e.
func (s *specSystem) canTime(e model.EdgeID) model.Time {
	return can.TimeOf(&s.app.Edges[e], s.arch.CAN)
}

// holistic runs the ET analysis under one static schedule. The TT
// processes and the TTP legs are fixed by the table; from a cleared ET
// state, offsets and jitters propagate along the graphs and the
// response times are recomputed until no response moves.
func (s *specSystem) holistic(sched *tsched.Schedule) *specState {
	app := s.app
	st := &specState{
		proc:      map[model.ProcID]*core.ProcResult{},
		edge:      map[model.EdgeID]*core.EdgeResult{},
		converged: true,
	}
	for _, p := range app.Procs {
		pr := &core.ProcResult{}
		if s.kind(p.ID) == model.TimeTriggered {
			if off, spread, ok := sched.OffsetOf(app, p.ID); ok {
				*pr = core.ProcResult{O: off, J: spread, R: spread + p.WCET, Converged: true}
			}
		}
		st.proc[p.ID] = pr
	}
	for _, e := range app.Edges {
		r := s.route(e.ID)
		er := &core.EdgeResult{Route: r, Converged: true}
		if r.UsesTTP() {
			if worst, ok := sched.WorstArrivalOffset(app, e.ID); ok {
				er.TTPArrival = worst
				if r == model.RouteTTP {
					er.Delivery = worst
				}
			}
		}
		st.edge[e.ID] = er
	}

	var order []model.ProcID
	for g := range app.Graphs {
		o, err := app.TopoOrder(g)
		if err != nil {
			st.converged = false
			return st
		}
		order = append(order, o...)
	}
	for pass := 0; pass < specHolisticCap; pass++ {
		s.propagate(st, sched, order)
		changed := s.responseTimes(st)
		if s.outTTP(st) {
			changed = true
		}
		if !changed {
			return st
		}
	}
	st.converged = false
	return st
}

// propagate walks the processes in topological order. An ET process is
// activated at the latest earliest arrival of its inputs (O) and spreads
// up to the latest worst arrival (O + J); a local input arrives with its
// sender's completion, a CAN input with its frame's delivery. Each
// process then sets the entry offset and jitter of its outgoing CAN legs:
// an ET sender queues the frame when it completes, and a TT->ET frame
// enters OutCAN after its TTP delivery, the transfer process T and up to
// one gateway poll. An ET->TT frame enters OutTTP after its CAN leg and
// T.
func (s *specSystem) propagate(st *specState, sched *tsched.Schedule, order []model.ProcID) {
	app := s.app
	for _, pid := range order {
		p := &app.Procs[pid]
		if s.kind(pid) == model.EventTriggered {
			var o, worst model.Time
			first := true
			for _, e := range app.Edges {
				if e.Dst != pid {
					continue
				}
				er := st.edge[e.ID]
				var earliest, latest model.Time
				switch er.Route {
				case model.RouteLocal:
					src := st.proc[e.Src]
					earliest, latest = src.O, src.O+src.R
				case model.RouteCAN, model.RouteTTtoET:
					earliest, latest = er.CANO, er.CANO+er.CANR
				default:
					continue
				}
				if first || earliest > o {
					o = earliest
				}
				if first || latest > worst {
					worst = latest
				}
				first = false
			}
			pr := st.proc[pid]
			pr.O, pr.J = o, max(worst-o, 0)
			pr.R = max(pr.R, pr.J+p.WCET)
		}
		src := st.proc[pid]
		for _, e := range app.Edges {
			if e.Src != pid {
				continue
			}
			er := st.edge[e.ID]
			switch er.Route {
			case model.RouteCAN:
				er.CANO, er.CANJ = src.O, src.R
			case model.RouteETtoTT:
				er.CANO, er.CANJ = src.O, src.R
				er.QueueJ = er.CANJ + er.CANW + s.canTime(e.ID) + s.arch.GatewayCost
			case model.RouteTTtoET:
				if off, spread, ok := sched.ArrivalOffsetOf(app, e.ID); ok {
					er.CANO = off
					er.CANJ = spread + s.arch.GatewayCost + s.arch.GatewayPoll
				}
			}
		}
	}
}

// responseTimes runs the response-time analysis of every ET process on
// its CPU and every CAN frame on the bus, with the offsets and jitters
// of the current state. A frame is blocked by the longest lower-priority
// frame, since CAN does not preempt a transmission. It returns whether
// any W or R moved.
func (s *specSystem) responseTimes(st *specState) bool {
	app, bus := s.app, len(s.arch.Nodes)
	var (
		tasks []rta.Task
		procs []model.ProcID
		edges []model.EdgeID
	)
	for _, p := range app.Procs {
		if s.kind(p.ID) != model.EventTriggered {
			continue
		}
		pr := st.proc[p.ID]
		tasks = append(tasks, rta.Task{
			Name: p.Name, Resource: int(p.Node),
			Priority: s.cfg.ProcPriority[p.ID],
			C:        p.WCET, T: app.PeriodOf(p.ID),
			O: pr.O, J: pr.J, Trans: s.trans(p.Graph),
		})
		procs = append(procs, p.ID)
	}
	for _, e := range app.Edges {
		if !s.route(e.ID).UsesCAN() {
			continue
		}
		er := st.edge[e.ID]
		tasks = append(tasks, rta.Task{
			Name: e.Name, Resource: bus,
			Priority: s.cfg.MsgPriority[e.ID],
			C:        s.canTime(e.ID), T: app.EdgePeriod(e.ID),
			O: er.CANO, J: er.CANJ, Trans: s.trans(e.Graph),
			NonPreemptive: true,
		})
		edges = append(edges, e.ID)
	}
	if len(tasks) == 0 {
		return false
	}
	for i := range tasks {
		if tasks[i].NonPreemptive {
			tasks[i].B = rta.MaxLowerC(tasks, i)
		}
	}
	res := make([]rta.Result, len(tasks))
	_, err := rta.AnalyzeStable(tasks, rta.HigherPriorityIndex(tasks), rta.Options{Horizon: s.horizon},
		res, make([]model.Time, len(tasks)))
	if err != nil {
		st.converged = false
		return false
	}
	changed := false
	for k, id := range procs {
		r, pr := res[k], st.proc[id]
		if pr.W != r.W || pr.R != r.R {
			changed = true
		}
		pr.W, pr.R, pr.Converged = r.W, r.R, r.Converged
	}
	for k, id := range edges {
		r, er := res[len(procs)+k], st.edge[id]
		if er.CANW != r.W || er.CANR != r.R {
			changed = true
		}
		er.CANW, er.CANR, er.Converged = r.W, r.R, r.Converged
		if er.Route == model.RouteCAN || er.Route == model.RouteTTtoET {
			er.Delivery = er.CANO + er.CANR
		}
	}
	return changed
}

// outTTPQueue returns the OutTTP FIFO's messages (the ET->TT frames,
// in edge order) with their current entry offsets and jitters, and the
// queue's parameters: the gateway slot S_G drains it.
func (s *specSystem) outTTPQueue(st *specState) ([]gateway.QueueMsg, []model.EdgeID, gateway.TTPQueueParams) {
	var (
		msgs []gateway.QueueMsg
		ids  []model.EdgeID
	)
	for _, e := range s.app.Edges {
		if s.route(e.ID) != model.RouteETtoTT {
			continue
		}
		er := st.edge[e.ID]
		msgs = append(msgs, gateway.QueueMsg{
			Name: e.Name, Size: e.Size, T: s.app.EdgePeriod(e.ID),
			O: er.CANO, J: er.QueueJ,
			Priority: s.cfg.MsgPriority[e.ID], Trans: s.trans(e.Graph),
		})
		ids = append(ids, e.ID)
	}
	return msgs, ids, gateway.TTPQueueParams{
		Round:       s.cfg.Round,
		GatewaySlot: s.cfg.Round.SlotIndexOf(s.arch.Gateway),
		TickPerByte: s.arch.TTP.TickPerByte,
		Horizon:     s.horizon,
	}
}

// outTTP analyzes the OutTTP queue: an ET->TT frame reaches its TT
// receiver at the end of the S_G occurrence that carries it. It returns
// whether any queuing delay, backlog or delivery moved.
func (s *specSystem) outTTP(st *specState) bool {
	msgs, ids, params := s.outTTPQueue(st)
	if len(msgs) == 0 {
		return false
	}
	res, err := gateway.AnalyzeOutTTP(msgs, params)
	if err != nil {
		st.converged = false
		return false
	}
	slotLen := s.cfg.Round.Slots[params.GatewaySlot].Length
	changed := false
	for k, id := range ids {
		r, er := res[k], st.edge[id]
		delivery := er.CANO + er.QueueJ + r.W + slotLen
		if er.QueueW != r.W || er.QueueI != r.I || er.Delivery != delivery {
			changed = true
		}
		er.QueueW, er.QueueI, er.Delivery = r.W, r.I, delivery
		if !r.Converged {
			er.Converged = false
		}
	}
	return changed
}

// metrics fills the graph responses (the latest sink completion of each
// graph), the degree of schedulability of §5 (the sum of deadline
// overruns, graph and local, when any deadline is missed; the sum of
// R_G - D_G otherwise) and the verdicts. A process that did not converge
// makes the analysis unconverged and unschedulable.
func (s *specSystem) metrics(a *core.Analysis) {
	app := s.app
	a.GraphResp = make([]model.Time, len(app.Graphs))
	var overrun, slack model.Time
	converged := a.Converged
	for g, graph := range app.Graphs {
		var resp model.Time
		for _, p := range graph.Procs {
			pr := a.Proc[p]
			converged = converged && pr.Converged
			sink := true
			for _, e := range app.Edges {
				if e.Src == p {
					sink = false
				}
			}
			if sink {
				resp = max(resp, pr.Completion())
			}
			if d := app.Procs[p].Deadline; d > 0 && pr.Completion() > d {
				overrun += pr.Completion() - d
			}
		}
		a.GraphResp[g] = resp
		overrun += max(resp-graph.Deadline, 0)
		slack += resp - graph.Deadline
	}
	a.Delta = slack
	if overrun > 0 {
		a.Delta = overrun
	}
	a.Converged = converged
	a.Schedulable = overrun == 0 && a.Schedule.WithinCycle && converged
}

// buffers computes the queue bounds of §4.1: OutCAN holds the TT->ET
// frames the gateway forwards, each ET node's OutN the CAN frames its
// processes send, and OutTTP the ET->TT frames. Each bound names the
// frame that attains it, the first in edge order on a tie.
func (s *specSystem) buffers(st *specState) core.Buffers {
	app, nodes := s.app, len(s.arch.Nodes)
	b := core.Buffers{
		OutNode:         make([]int, nodes),
		CriticalOutCAN:  -1,
		CriticalOutTTP:  -1,
		CriticalOutNode: make([]model.EdgeID, nodes),
	}
	var outCAN []model.EdgeID
	outN := map[model.NodeID][]model.EdgeID{}
	for _, e := range app.Edges {
		switch s.route(e.ID) {
		case model.RouteTTtoET:
			outCAN = append(outCAN, e.ID)
		case model.RouteCAN, model.RouteETtoTT:
			n := app.Procs[e.Src].Node
			outN[n] = append(outN[n], e.ID)
		}
	}
	var crit int
	b.OutCAN, crit = s.canQueueBound(st, outCAN)
	if crit >= 0 {
		b.CriticalOutCAN = outCAN[crit]
	}
	b.Total += b.OutCAN
	for n := range b.CriticalOutNode {
		b.CriticalOutNode[n] = -1
		ids := outN[model.NodeID(n)]
		if len(ids) == 0 {
			continue
		}
		b.OutNode[n], crit = s.canQueueBound(st, ids)
		if crit >= 0 {
			b.CriticalOutNode[n] = ids[crit]
		}
		b.Total += b.OutNode[n]
	}

	msgs, ids, _ := s.outTTPQueue(st)
	if len(msgs) > 0 {
		res := make([]gateway.TTPResult, len(msgs))
		for k, id := range ids {
			res[k] = gateway.TTPResult{W: st.edge[id].QueueW, I: st.edge[id].QueueI}
		}
		b.OutTTP, crit = gateway.OutTTPBufferBound(msgs, res)
		if crit >= 0 {
			b.CriticalOutTTP = ids[crit]
		}
		b.Total += b.OutTTP
	}
	return b
}

// canQueueBound bounds one priority-ordered CAN output queue whose
// frames are ids: each frame waits its arbitration delay W after entry.
func (s *specSystem) canQueueBound(st *specState, ids []model.EdgeID) (int, int) {
	msgs := make([]gateway.CANQueueMsg, len(ids))
	for k, id := range ids {
		e, er := &s.app.Edges[id], st.edge[id]
		msgs[k] = gateway.CANQueueMsg{
			QueueMsg: gateway.QueueMsg{
				Name: e.Name, Size: e.Size, T: s.app.EdgePeriod(id),
				O: er.CANO, J: er.CANJ,
				Priority: s.cfg.MsgPriority[id], Trans: s.trans(e.Graph),
			},
			W: er.CANW,
		}
	}
	return gateway.CANQueueBufferBound(msgs)
}

// --- the comparison -------------------------------------------------------

// specPinned returns cfg with its first TT process and its first TTP
// message pinned, like the analysis digest's pinned configuration.
func specPinned(app *model.Application, arch *model.Architecture, cfg *core.Config) *core.Config {
	pinned := cfg.Clone()
	pinned.PinnedProc = map[model.ProcID]model.Time{}
	pinned.PinnedEdge = map[model.EdgeID]model.Time{}
	for _, p := range app.Procs {
		if arch.Kind(p.Node) == model.TimeTriggered {
			pinned.PinnedProc[p.ID] = app.PeriodOf(p.ID) / 4
			break
		}
	}
	for _, e := range app.Edges {
		if app.RouteOf(e.ID, arch).UsesTTP() {
			pinned.PinnedEdge[e.ID] = app.EdgePeriod(e.ID) / 3
			break
		}
	}
	return pinned
}

// specPerturbations derives three configurations from cfg with rng: two
// ET process priorities and two CAN priorities swapped; two TDMA slots
// swapped; a random TT process and a random TTP message pinned at random
// in-period offsets.
func specPerturbations(t *testing.T, rng *rand.Rand, app *model.Application, arch *model.Architecture, cfg *core.Config) []*core.Config {
	t.Helper()
	var etProcs, ttProcs []model.ProcID
	for _, p := range app.Procs {
		switch arch.Kind(p.Node) {
		case model.EventTriggered:
			etProcs = append(etProcs, p.ID)
		case model.TimeTriggered:
			ttProcs = append(ttProcs, p.ID)
		}
	}
	var canEdges, ttpEdges []model.EdgeID
	for _, e := range app.Edges {
		r := app.RouteOf(e.ID, arch)
		if r.UsesCAN() {
			canEdges = append(canEdges, e.ID)
		}
		if r.UsesTTP() {
			ttpEdges = append(ttpEdges, e.ID)
		}
	}

	prio := cfg.Clone()
	if len(etProcs) >= 2 {
		i, j := specPair(rng, len(etProcs))
		a, b := etProcs[i], etProcs[j]
		prio.ProcPriority[a], prio.ProcPriority[b] = prio.ProcPriority[b], prio.ProcPriority[a]
	}
	if len(canEdges) >= 2 {
		i, j := specPair(rng, len(canEdges))
		a, b := canEdges[i], canEdges[j]
		prio.MsgPriority[a], prio.MsgPriority[b] = prio.MsgPriority[b], prio.MsgPriority[a]
	}

	slots := cfg.Clone()
	if n := len(slots.Round.Slots); n >= 2 {
		i, j := specPair(rng, n)
		slots.Round.Slots[i], slots.Round.Slots[j] = slots.Round.Slots[j], slots.Round.Slots[i]
	}
	if err := slots.Normalize(app); err != nil {
		t.Fatalf("Normalize after a slot swap: %v", err)
	}

	pins := cfg
	if len(ttProcs) > 0 {
		p := ttProcs[rng.Intn(len(ttProcs))]
		pins = pins.PinProc(p, rng.Int63n(app.PeriodOf(p)))
	}
	if len(ttpEdges) > 0 {
		e := ttpEdges[rng.Intn(len(ttpEdges))]
		pins = pins.PinEdge(e, rng.Int63n(app.EdgePeriod(e)))
	}
	return []*core.Config{prio, slots, pins}
}

// specPair draws two distinct indices below n >= 2.
func specPair(rng *rand.Rand, n int) (int, int) {
	i := rng.Intn(n)
	return i, (i + 1 + rng.Intn(n-1)) % n
}

// checkSpec requires Analyze and Memo.Analyze on (app, arch, cfg) to
// deep-equal the offset-aware specification, and AnalyzeOffsetBlind the
// offset-blind one.
func checkSpec(t *testing.T, label string, app *model.Application, arch *model.Architecture, memo *core.Memo, cfg *core.Config) {
	t.Helper()
	for _, fast := range []struct {
		name  string
		blind bool
		run   func() (*core.Analysis, error)
	}{
		{"Analyze", false, func() (*core.Analysis, error) { return core.Analyze(app, arch, cfg) }},
		{"Memo.Analyze", false, func() (*core.Analysis, error) { return memo.Analyze(cfg) }},
		{"AnalyzeOffsetBlind", true, func() (*core.Analysis, error) { return core.AnalyzeOffsetBlind(app, arch, cfg) }},
	} {
		want, wantErr := specAnalyze(app, arch, cfg, fast.blind)
		got, err := fast.run()
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%s: %s error %v, spec error %v", label, fast.name, err, wantErr)
		}
		if err == nil {
			if diff := specDiff(got, want); diff != "" {
				t.Fatalf("%s: %s differs from the spec: %s", label, fast.name, diff)
			}
		}
	}
}

// specDiff names the first field in which got and want differ, or
// returns "" when they are deeply equal.
func specDiff(got, want *core.Analysis) string {
	if reflect.DeepEqual(got, want) {
		return ""
	}
	for i := range want.Proc {
		if got.Proc[i] != want.Proc[i] {
			return fmt.Sprintf("process %d: %+v, spec %+v", i, got.Proc[i], want.Proc[i])
		}
	}
	for i := range want.Edge {
		if got.Edge[i] != want.Edge[i] {
			return fmt.Sprintf("edge %d: %+v, spec %+v", i, got.Edge[i], want.Edge[i])
		}
	}
	gv, wv := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for i := 0; i < gv.NumField(); i++ {
		if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
			return fmt.Sprintf("%s: %+v, spec %+v", gv.Type().Field(i).Name, gv.Field(i).Interface(), wv.Field(i).Interface())
		}
	}
	return "unknown difference"
}

// specVariant regenerates spec's system with what gen.Corpus never
// draws: a gateway poll period (TT->ET frames wait up to one poll for
// T) and a local deadline on the last process of every graph, at half
// the graph's deadline.
func specVariant(t *testing.T, spec gen.Spec) (*model.Application, *model.Architecture) {
	t.Helper()
	sys, err := gen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	app, arch := sys.Application, sys.Architecture
	arch.GatewayPoll = 4 * arch.GatewayCost
	for _, g := range app.Graphs {
		app.Procs[g.Procs[len(g.Procs)-1]].Deadline = g.Deadline / 2
	}
	if err := app.Finalize(arch); err != nil {
		t.Fatal(err)
	}
	return app, arch
}

// TestAnalyzeMatchesSpec compares the analysis with the specification
// over the corpus of TestAnalyzeCorpusDigest (gen.Corpus(48, 1, 4) and
// gen.Corpus(16, 1, 10)). Per member it checks the normalized default
// configuration, its pinned variant and three seeded perturbations of
// it, then the default and pinned configurations of the member's
// specVariant. Each is analyzed offset-aware (cold and through one Memo
// per system) and offset-blind.
func TestAnalyzeMatchesSpec(t *testing.T) {
	for i, spec := range append(gen.Corpus(48, 1, 4), gen.Corpus(16, 1, 10)...) {
		sys, err := gen.Generate(spec)
		if err != nil {
			t.Fatalf("corpus member %d: %v", i, err)
		}
		app, arch := sys.Application, sys.Architecture
		cfg := specDefault(t, app, arch)
		rng := rand.New(rand.NewSource(int64(i)))
		cfgs := append([]*core.Config{cfg, specPinned(app, arch, cfg)}, specPerturbations(t, rng, app, arch, cfg)...)
		memo := core.NewMemo(app, arch)
		for k, c := range cfgs {
			checkSpec(t, fmt.Sprintf("member %d config %d", i, k), app, arch, memo, c)
		}

		app, arch = specVariant(t, spec)
		cfg = specDefault(t, app, arch)
		memo = core.NewMemo(app, arch)
		for k, c := range []*core.Config{cfg, specPinned(app, arch, cfg)} {
			checkSpec(t, fmt.Sprintf("member %d variant config %d", i, k), app, arch, memo, c)
		}
	}
}

// specDefault is the normalized default configuration.
func specDefault(t *testing.T, app *model.Application, arch *model.Architecture) *core.Config {
	t.Helper()
	cfg := core.DefaultConfig(app, arch)
	if err := cfg.Normalize(app); err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	return cfg
}
