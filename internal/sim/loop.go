package sim

import (
	"cmp"
	"container/heap"
	"slices"

	"repro/internal/can"
	"repro/internal/model"
)

// loop drains the event queue. It returns early when the run's context
// is cancelled, checking every few events so long horizons stay
// responsive without paying a per-event context poll.
func (s *simulator) loop() {
	for n := 0; s.events.Len() > 0; n++ {
		if n%256 == 0 && s.ctx != nil && s.ctx.Err() != nil {
			return
		}
		e := heap.Pop(&s.events).(*event)
		switch e.kind {
		case evTTStart:
			s.onTTStart(e)
		case evTTFinish:
			s.onFinish(e.t, e.key)
		case evFrameCheck:
			if _, ok := s.msgSent[e.ei]; !ok {
				s.violate("frame of edge %d instance %d departs at %d before production", e.ei.edge, e.ei.inst, e.t)
			}
		case evFrameEnd:
			s.onFrameEnd(e)
		case evSGStart:
			s.onSGStart(e)
		case evSGEnd:
			s.onSGEnd(e)
		case evETArrival:
			s.onETArrival(e)
		case evCPUDone:
			s.onCPUDone(e)
		case evBusDone:
			s.onBusDone(e)
		case evGwForward:
			s.onGwForward(e)
		}
	}
}

// onTTStart runs a TT process instance to completion (TT processes are
// not preemptable and start exactly at their table times).
func (s *simulator) onTTStart(e *event) {
	k := e.key
	p := &s.app.Procs[k.proc]
	if miss := s.inputsMissing(k); miss > 0 {
		s.violate("TT process %s instance %d starts at %d with %d inputs missing", p.Name, k.inst, e.t, miss)
	}
	exec := s.drawExec(p)
	s.trace(e.t, "TT start   %s#%d on %s (runs %d)", p.Name, k.inst, s.arch.Nodes[p.Node].Name, exec)
	s.push(&event{t: e.t + exec, kind: evTTFinish, key: k})
}

// inputsMissing counts the not-yet-delivered inputs of an instance.
func (s *simulator) inputsMissing(k instKey) int {
	if n, ok := s.inputs[k]; ok {
		return n
	}
	// TT processes track inputs lazily: initialize on first use.
	n := len(s.app.InEdges(k.proc))
	s.inputs[k] = n
	return n
}

// onFinish handles the completion of any process instance.
func (s *simulator) onFinish(t model.Time, k instKey) {
	p := &s.app.Procs[k.proc]
	s.trace(t, "finish     %s#%d (response %d)", p.Name, k.inst, t-s.releaseOf(k))
	s.finished[k] = t
	s.res.Completed++
	rel := s.releaseOf(k)
	resp := t - rel
	if resp > s.res.ProcWorstResp[k.proc] {
		s.res.ProcWorstResp[k.proc] = resp
	}
	if len(s.app.OutEdges(k.proc)) == 0 {
		g := p.Graph
		if resp > s.res.GraphWorstResp[g] {
			s.res.GraphWorstResp[g] = resp
		}
		if resp > s.app.Graphs[g].Deadline {
			s.res.DeadlineMisses++
		}
	}
	// Emit outgoing messages.
	for _, eid := range s.app.OutEdges(k.proc) {
		ei := edgeInst{eid, k.inst}
		s.msgSent[ei] = t
		switch s.app.RouteOf(eid, s.arch) {
		case model.RouteLocal:
			s.deliver(t, ei)
		case model.RouteTTP, model.RouteTTtoET:
			// Transmission happens at the MEDL-scheduled frame;
			// production is recorded for the evFrameCheck assertion.
		case model.RouteCAN, model.RouteETtoTT:
			s.enqueueNodeQueue(t, p.Node, ei)
		}
	}
}

// deliver hands a message instance to its destination process.
func (s *simulator) deliver(t model.Time, ei edgeInst) {
	e := &s.app.Edges[ei.edge]
	s.trace(t, "deliver    %s#%d -> %s", e.Name, ei.inst, s.app.Procs[e.Dst].Name)
	rel := model.Time(ei.inst) * s.app.EdgePeriod(ei.edge)
	if off := t - rel; off > s.res.EdgeWorstDelivery[ei.edge] {
		s.res.EdgeWorstDelivery[ei.edge] = off
	}
	dst := instKey{e.Dst, ei.inst}
	s.arrivalAt(t, dst)
}

// arrivalAt marks one input of an instance as present and releases ET
// instances whose inputs are complete.
func (s *simulator) arrivalAt(t model.Time, k instKey) {
	n := s.inputsMissing(k)
	if n <= 0 {
		s.violate("process %d instance %d received more inputs than edges", k.proc, k.inst)
		return
	}
	s.inputs[k] = n - 1
	if n-1 > 0 {
		return
	}
	if s.arch.Kind(s.app.Procs[k.proc].Node) != model.EventTriggered {
		return // TT processes start from the table, not from arrivals
	}
	s.push(&event{t: t, kind: evETArrival, key: k})
}

// onETArrival releases an ET process instance (all inputs present).
func (s *simulator) onETArrival(e *event) {
	k := e.key
	if s.released[k] {
		return
	}
	s.released[k] = true
	p := &s.app.Procs[k.proc]
	s.remaining[k] = s.drawExec(p)
	node := p.Node
	s.readyQueue[node] = append(s.readyQueue[node], k)
	s.dispatch(e.t, node)
}

// dispatch reevaluates which instance runs on an ET CPU, preempting a
// lower-priority running instance if needed.
func (s *simulator) dispatch(t model.Time, node model.NodeID) {
	ready := s.readyQueue[node]
	if len(ready) == 0 {
		return
	}
	prio := s.cfg.ProcPriority
	slices.SortFunc(ready, func(a, b instKey) int {
		return cmp.Or(cmp.Compare(prio[a.proc], prio[b.proc]), cmp.Compare(a.proc, b.proc), cmp.Compare(a.inst, b.inst))
	})
	s.readyQueue[node] = ready
	best := ready[0]
	cur := s.running[node]
	if cur != nil {
		if *cur == best {
			return
		}
		curPrio := s.cfg.ProcPriority[cur.proc]
		bestPrio := s.cfg.ProcPriority[best.proc]
		if curPrio <= bestPrio {
			return // current keeps the CPU
		}
		// Preempt: bank the remaining time of the current instance.
		s.remaining[*cur] -= t - s.lastStart[node]
		s.readyQueue[node] = append(s.readyQueue[node], *cur)
		s.running[node] = nil
	}
	// Start best.
	s.readyQueue[node] = s.readyQueue[node][1:]
	k := best
	s.running[node] = &k
	s.lastStart[node] = t
	s.runGen[node]++
	s.push(&event{t: t + s.remaining[k], kind: evCPUDone, key: k, node: node, gen: s.runGen[node]})
}

// onCPUDone completes the running instance unless the event is stale
// (the instance was preempted after the event was scheduled).
func (s *simulator) onCPUDone(e *event) {
	if e.gen != s.runGen[e.node] {
		return // stale
	}
	cur := s.running[e.node]
	if cur == nil || *cur != e.key {
		return
	}
	s.running[e.node] = nil
	delete(s.remaining, e.key)
	s.onFinish(e.t, e.key)
	s.dispatch(e.t, e.node)
}

// enqueueNodeQueue puts a message into its sender's OutN_i priority
// queue and kicks the bus.
func (s *simulator) enqueueNodeQueue(t model.Time, node model.NodeID, ei edgeInst) {
	q := insertByPriority(s.outNode[node], ei, s.cfg.MsgPriority)
	s.outNode[node] = q
	s.nodeBytes[node] += s.app.Edges[ei.edge].Size
	if s.nodeBytes[node] > s.res.PeakOutNode[node] {
		s.res.PeakOutNode[node] = s.nodeBytes[node]
	}
	s.kickBus(t)
}

// enqueueOutCAN puts a gateway-forwarded message into OutCAN.
func (s *simulator) enqueueOutCAN(t model.Time, ei edgeInst) {
	s.outCAN = insertByPriority(s.outCAN, ei, s.cfg.MsgPriority)
	s.canBytes += s.app.Edges[ei.edge].Size
	if s.canBytes > s.res.PeakOutCAN {
		s.res.PeakOutCAN = s.canBytes
	}
	s.kickBus(t)
}

func insertByPriority(q []edgeInst, ei edgeInst, prio []int) []edgeInst {
	q = append(q, ei)
	slices.SortStableFunc(q, func(a, b edgeInst) int {
		return cmp.Or(cmp.Compare(prio[a.edge], prio[b.edge]), cmp.Compare(a.edge, b.edge), cmp.Compare(a.inst, b.inst))
	})
	return q
}

// kickBus starts a CAN transmission when the bus is idle: the highest
// priority message among all queue heads wins arbitration.
func (s *simulator) kickBus(t model.Time) {
	if s.busBusy {
		return
	}
	bestQueue := -2 // -1 = OutCAN, >=0 = index into nodes slice
	var bestEI edgeInst
	bestPrio := 0
	found := false
	consider := func(q []edgeInst, tag int) {
		if len(q) == 0 {
			return
		}
		p := s.cfg.MsgPriority[q[0].edge]
		if !found || p < bestPrio {
			found = true
			bestPrio = p
			bestEI = q[0]
			bestQueue = tag
		}
	}
	consider(s.outCAN, -1)
	nodes := s.arch.ETNodes()
	for i, n := range nodes {
		consider(s.outNode[n], i)
	}
	if !found {
		return
	}
	// Remove from the queue list (arbitration moves on) but keep the
	// bytes accounted until the transmission completes: the frame
	// occupies its buffer while on the wire, which matches the
	// high-water reading of the §4.1.1 bounds.
	done := &event{kind: evBusDone, ei: bestEI, fromOutCAN: bestQueue == -1}
	if bestQueue == -1 {
		s.outCAN = s.outCAN[1:]
	} else {
		n := nodes[bestQueue]
		s.outNode[n] = s.outNode[n][1:]
		done.node = n
	}
	s.busBusy = true
	cm := can.TimeOf(&s.app.Edges[bestEI.edge], s.arch.CAN)
	s.trace(t, "CAN start  %s#%d (C=%d)", s.app.Edges[bestEI.edge].Name, bestEI.inst, cm)
	done.t = t + cm
	s.push(done)
}

// onBusDone delivers a CAN transmission and re-arbitrates.
func (s *simulator) onBusDone(e *event) {
	s.busBusy = false
	if e.fromOutCAN {
		s.canBytes -= s.app.Edges[e.ei.edge].Size
	} else {
		s.nodeBytes[e.node] -= s.app.Edges[e.ei.edge].Size
	}
	ei := e.ei
	switch s.app.RouteOf(ei.edge, s.arch) {
	case model.RouteCAN, model.RouteTTtoET:
		s.deliver(e.t, ei)
	case model.RouteETtoTT:
		// Gateway transfer process T moves it into OutTTP after C_T.
		s.push(&event{t: e.t + s.arch.GatewayCost, kind: evGwForward, ei: ei})
	}
	s.kickBus(e.t)
}

// onGwForward is the transfer process T handing a message over: TT->ET
// messages enter the OutCAN priority queue, ET->TT messages the OutTTP
// FIFO.
func (s *simulator) onGwForward(e *event) {
	switch s.app.RouteOf(e.ei.edge, s.arch) {
	case model.RouteTTtoET:
		s.enqueueOutCAN(e.t, e.ei)
	case model.RouteETtoTT:
		s.enqueueOutTTP(e.t, e.ei)
	}
}

// enqueueOutTTP appends to the FIFO (exact time ordering preserved via
// an immediate event would be overkill: C_T is constant, so arrival
// order equals completion order).
func (s *simulator) enqueueOutTTP(t model.Time, ei edgeInst) {
	s.outTTP = append(s.outTTP, queuedAt{ei: ei, at: t})
	s.ttpBytes += s.app.Edges[ei.edge].Size
	if s.ttpBytes > s.res.PeakOutTTP {
		s.res.PeakOutTTP = s.ttpBytes
	}
}

// onFrameEnd delivers the statically scheduled TTP frames: directly to
// the TT destination, or through the gateway (MBI -> T -> OutCAN) for
// TT->ET messages.
func (s *simulator) onFrameEnd(e *event) {
	for _, ei := range e.msgs {
		switch s.app.RouteOf(ei.edge, s.arch) {
		case model.RouteTTP:
			s.deliver(e.t, ei)
		case model.RouteTTtoET:
			s.push(&event{t: e.t + s.arch.GatewayCost, kind: evGwForward, ei: ei})
		}
	}
}

// onSGStart drains the OutTTP FIFO into the gateway slot: at most the
// slot capacity, in FIFO order, only messages queued before the slot
// start.
func (s *simulator) onSGStart(e *event) {
	slot := s.cfg.Round.SlotIndexOf(s.arch.Gateway)
	capacity := s.cfg.Round.Capacity(slot, s.arch.TTP.TickPerByte)
	var drained []edgeInst
	bytes := 0
	rest := s.outTTP[:0]
	for _, q := range s.outTTP {
		if q.at <= e.t && bytes+s.app.Edges[q.ei.edge].Size <= capacity && len(rest) == 0 {
			bytes += s.app.Edges[q.ei.edge].Size
			drained = append(drained, q.ei)
		} else {
			rest = append(rest, q)
		}
	}
	s.outTTP = append([]queuedAt(nil), rest...)
	s.ttpBytes -= bytes
	if len(drained) > 0 {
		s.trace(e.t, "S_G drain  %d messages (%d B)", len(drained), bytes)
		end := e.t + s.cfg.Round.Slots[slot].Length
		s.push(&event{t: end, kind: evSGEnd, msgs: drained})
	}
}

// onSGEnd delivers the drained ET->TT messages to their TT destinations.
func (s *simulator) onSGEnd(e *event) {
	for _, ei := range e.msgs {
		s.deliver(e.t, ei)
	}
}

func (s *simulator) finish() *Result {
	// Report unfinished released instances as violations only if their
	// full window was inside the horizon.
	for k, rem := range s.remaining {
		if rem > 0 && s.releaseOf(k)+s.app.PeriodOf(k.proc) <= s.horizon {
			if _, done := s.finished[k]; !done {
				s.violate("process %d instance %d unfinished at horizon", k.proc, k.inst)
			}
		}
	}
	return s.res
}
