// Package opt implements the synthesis heuristics of §5 of the paper:
// the straightforward baseline SF, the greedy OptimizeSchedule (OS,
// Fig. 8) that maximizes the degree of schedulability, and the
// hill-climbing OptimizeResources (OR, Fig. 7) that minimizes the total
// buffer need s_total while preserving schedulability. The §5.1 design
// transformations ("moves") shared by OR and the simulated-annealing
// baselines live here too.
package opt

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/tsched"
)

// MoveKind enumerates the §5.1 design transformations.
type MoveKind int

const (
	// MovePinProc delays a TT process to a given in-period offset
	// (moving it inside its [ASAP, ALAP] interval).
	MovePinProc MoveKind = iota
	// MovePinEdge delays a TTP message likewise.
	MovePinEdge
	// MoveUnpinProc / MoveUnpinEdge remove an existing pin.
	MoveUnpinProc
	MoveUnpinEdge
	// MoveSwapProcPrio swaps the priorities of two ET processes mapped
	// on the same node.
	MoveSwapProcPrio
	// MoveSwapMsgPrio swaps the priorities of two CAN messages.
	MoveSwapMsgPrio
	// MoveResizeSlot changes a TDMA slot length by Delta (respecting the
	// minimal slot length).
	MoveResizeSlot
	// MoveSwapSlots exchanges two slots inside the TDMA round.
	MoveSwapSlots
	// MoveSetSlotLen sets a TDMA slot to the absolute length Length
	// (respecting the minimal slot length). The OptimizeSchedule
	// candidate scan expresses its per-position (owner, length) choices
	// as MoveSwapSlots + MoveSetSlotLen sequences, so candidates reach
	// the evaluation batch as typed move descriptors.
	MoveSetSlotLen
)

// String names the move kind.
func (k MoveKind) String() string {
	switch k {
	case MovePinProc:
		return "pin-proc"
	case MovePinEdge:
		return "pin-edge"
	case MoveUnpinProc:
		return "unpin-proc"
	case MoveUnpinEdge:
		return "unpin-edge"
	case MoveSwapProcPrio:
		return "swap-proc-prio"
	case MoveSwapMsgPrio:
		return "swap-msg-prio"
	case MoveResizeSlot:
		return "resize-slot"
	case MoveSwapSlots:
		return "swap-slots"
	case MoveSetSlotLen:
		return "set-slot-length"
	}
	return fmt.Sprintf("MoveKind(%d)", int(k))
}

// Move is one design transformation applicable to a configuration.
type Move struct {
	Kind   MoveKind
	Proc   model.ProcID
	Proc2  model.ProcID
	Edge   model.EdgeID
	Edge2  model.EdgeID
	Offset model.Time // pin target
	Slot   int
	Slot2  int
	Delta  model.Time // slot resize amount (signed)
	Length model.Time // absolute slot length (MoveSetSlotLen)
}

// String renders the move for diagnostics.
func (m Move) String() string {
	switch m.Kind {
	case MovePinProc:
		return fmt.Sprintf("%v(P%d@%d)", m.Kind, m.Proc, m.Offset)
	case MovePinEdge:
		return fmt.Sprintf("%v(m%d@%d)", m.Kind, m.Edge, m.Offset)
	case MoveUnpinProc:
		return fmt.Sprintf("%v(P%d)", m.Kind, m.Proc)
	case MoveUnpinEdge:
		return fmt.Sprintf("%v(m%d)", m.Kind, m.Edge)
	case MoveSwapProcPrio:
		return fmt.Sprintf("%v(P%d,P%d)", m.Kind, m.Proc, m.Proc2)
	case MoveSwapMsgPrio:
		return fmt.Sprintf("%v(m%d,m%d)", m.Kind, m.Edge, m.Edge2)
	case MoveResizeSlot:
		return fmt.Sprintf("%v(S%d%+d)", m.Kind, m.Slot, m.Delta)
	case MoveSetSlotLen:
		return fmt.Sprintf("%v(S%d=%d)", m.Kind, m.Slot, m.Length)
	default:
		return fmt.Sprintf("%v(S%d,S%d)", m.Kind, m.Slot, m.Slot2)
	}
}

// Apply returns a normalized copy of cfg with the move performed, or an
// error when the move is structurally impossible (e.g. shrinking a slot
// below its minimal length).
func (m Move) Apply(app *model.Application, arch *model.Architecture, cfg *core.Config) (*core.Config, error) {
	var d *core.Config
	switch m.Kind {
	case MovePinProc:
		d = cfg.PinProc(m.Proc, m.Offset)
	case MovePinEdge:
		d = cfg.PinEdge(m.Edge, m.Offset)
	case MoveUnpinProc:
		d = cfg.Clone()
		if _, ok := d.PinnedProc[m.Proc]; !ok {
			return nil, fmt.Errorf("opt: process %d is not pinned", m.Proc)
		}
		delete(d.PinnedProc, m.Proc)
	case MoveUnpinEdge:
		d = cfg.Clone()
		if _, ok := d.PinnedEdge[m.Edge]; !ok {
			return nil, fmt.Errorf("opt: edge %d is not pinned", m.Edge)
		}
		delete(d.PinnedEdge, m.Edge)
	case MoveSwapProcPrio:
		d = cfg.Clone()
		a, okA := d.ProcPriority[m.Proc]
		b, okB := d.ProcPriority[m.Proc2]
		if !okA || !okB {
			return nil, fmt.Errorf("opt: processes %d/%d have no priorities", m.Proc, m.Proc2)
		}
		d.ProcPriority[m.Proc], d.ProcPriority[m.Proc2] = b, a
	case MoveSwapMsgPrio:
		d = cfg.Clone()
		a, okA := d.MsgPriority[m.Edge]
		b, okB := d.MsgPriority[m.Edge2]
		if !okA || !okB {
			return nil, fmt.Errorf("opt: messages %d/%d have no priorities", m.Edge, m.Edge2)
		}
		d.MsgPriority[m.Edge], d.MsgPriority[m.Edge2] = b, a
	case MoveResizeSlot:
		d = cfg.Clone()
		if m.Slot < 0 || m.Slot >= len(d.Round.Slots) {
			return nil, fmt.Errorf("opt: slot %d out of range", m.Slot)
		}
		sl := &d.Round.Slots[m.Slot]
		min := tsched.MinSlotLength(app, arch, sl.Node)
		nl := sl.Length + m.Delta
		if nl < min {
			return nil, fmt.Errorf("opt: slot %d cannot shrink below %d", m.Slot, min)
		}
		sl.Length = nl
	case MoveSwapSlots:
		d = cfg.Clone()
		if m.Slot < 0 || m.Slot2 < 0 || m.Slot >= len(d.Round.Slots) || m.Slot2 >= len(d.Round.Slots) || m.Slot == m.Slot2 {
			return nil, fmt.Errorf("opt: invalid slot pair %d,%d", m.Slot, m.Slot2)
		}
		d.Round.Slots[m.Slot], d.Round.Slots[m.Slot2] = d.Round.Slots[m.Slot2], d.Round.Slots[m.Slot]
	case MoveSetSlotLen:
		d = cfg.Clone()
		if m.Slot < 0 || m.Slot >= len(d.Round.Slots) {
			return nil, fmt.Errorf("opt: slot %d out of range", m.Slot)
		}
		sl := &d.Round.Slots[m.Slot]
		if min := tsched.MinSlotLength(app, arch, sl.Node); m.Length < min {
			return nil, fmt.Errorf("opt: slot %d cannot shrink below %d", m.Slot, min)
		}
		sl.Length = m.Length
	default:
		return nil, fmt.Errorf("opt: unknown move kind %d", m.Kind)
	}
	if err := d.Normalize(app); err != nil {
		return nil, err
	}
	return d, nil
}

// MoveBudget tunes GenerateMoves.
type MoveBudget struct {
	// Max is the total number of moves returned (default 24).
	Max int
	// Rand drives the sampling of the untargeted share of the
	// neighbourhood; nil means a fixed seed (deterministic).
	Rand *rand.Rand
}

// GenerateMoves builds the neighbourhood of a configuration (the
// GenerateNeighbors function of Fig. 7). Moves with the highest
// potential come first: transformations touching the messages that
// attain the queue bounds (the Critical* fields of core.Buffers), then
// slot reorderings/resizings, then randomly sampled priority swaps and
// pin removals.
func GenerateMoves(app *model.Application, arch *model.Architecture, cfg *core.Config, a *core.Analysis, budget MoveBudget) []Move {
	if budget.Max <= 0 {
		budget.Max = 24
	}
	rng := budget.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	var moves []Move
	seen := make(map[string]bool)
	add := func(m Move) {
		if len(moves) >= budget.Max {
			return
		}
		k := m.String()
		if seen[k] {
			return
		}
		seen[k] = true
		moves = append(moves, m)
	}

	// 1. Targeted moves around the critical queue messages.
	for _, crit := range criticalEdges(a) {
		targetCriticalEdge(app, arch, cfg, a, crit, add)
	}

	// 2. Slot swaps (the round is short: enumerate pairs).
	for i := 0; i < len(cfg.Round.Slots); i++ {
		for j := i + 1; j < len(cfg.Round.Slots); j++ {
			add(Move{Kind: MoveSwapSlots, Slot: i, Slot2: j})
		}
	}

	// 3. Slot resizes by one quantum in both directions.
	quantum := arch.TTP.TickPerByte * 4
	if quantum <= 0 {
		quantum = 4
	}
	for i := range cfg.Round.Slots {
		add(Move{Kind: MoveResizeSlot, Slot: i, Delta: quantum})
		add(Move{Kind: MoveResizeSlot, Slot: i, Delta: -quantum})
	}

	// 4. Pin removals (escape accumulated constraints).
	for _, p := range sortedProcPins(cfg) {
		add(Move{Kind: MoveUnpinProc, Proc: p})
	}
	for _, e := range sortedEdgePins(cfg) {
		add(Move{Kind: MoveUnpinEdge, Edge: e})
	}

	// 5. Random adjacent priority swaps to fill the budget.
	procPairs := adjacentProcPairs(app, arch, cfg)
	msgPairs := adjacentMsgPairs(app, arch, cfg)
	rng.Shuffle(len(procPairs), func(i, j int) { procPairs[i], procPairs[j] = procPairs[j], procPairs[i] })
	rng.Shuffle(len(msgPairs), func(i, j int) { msgPairs[i], msgPairs[j] = msgPairs[j], msgPairs[i] })
	for i := 0; len(moves) < budget.Max && (i < len(procPairs) || i < len(msgPairs)); i++ {
		if i < len(procPairs) {
			add(Move{Kind: MoveSwapProcPrio, Proc: procPairs[i][0], Proc2: procPairs[i][1]})
		}
		if i < len(msgPairs) {
			add(Move{Kind: MoveSwapMsgPrio, Edge: msgPairs[i][0], Edge2: msgPairs[i][1]})
		}
	}
	return moves
}

// criticalEdges lists the messages attaining the queue bounds, ordered
// OutCAN, OutTTP, then the per-node queues in node order.
func criticalEdges(a *core.Analysis) []model.EdgeID {
	var out []model.EdgeID
	if a.Buffers.CriticalOutCAN >= 0 {
		out = append(out, a.Buffers.CriticalOutCAN)
	}
	if a.Buffers.CriticalOutTTP >= 0 {
		out = append(out, a.Buffers.CriticalOutTTP)
	}
	for _, e := range a.Buffers.CriticalOutNode {
		if e >= 0 {
			out = append(out, e)
		}
	}
	return out
}

// targetCriticalEdge emits the focused moves for one critical message:
// re-timing its TTP leg or its TT producer, and swapping its priority
// with its neighbours.
func targetCriticalEdge(app *model.Application, arch *model.Architecture, cfg *core.Config, a *core.Analysis, e model.EdgeID, add func(Move)) {
	// Re-time the TTP leg inside its [ASAP, ALAP] window.
	if iv, ok := a.EdgeMoveInterval(app, e); ok && iv.ALAP > iv.ASAP {
		mid := iv.ASAP + (iv.ALAP-iv.ASAP)/2
		add(Move{Kind: MovePinEdge, Edge: e, Offset: mid})
		add(Move{Kind: MovePinEdge, Edge: e, Offset: iv.ALAP})
	}
	// Re-time the producer when it is a TT process (spreads the queue
	// entries of ET->TT messages).
	src := app.Edges[e].Src
	if iv, ok := a.ProcMoveInterval(app, src); ok && iv.ALAP > iv.ASAP {
		mid := iv.ASAP + (iv.ALAP-iv.ASAP)/2
		add(Move{Kind: MovePinProc, Proc: src, Offset: mid})
		add(Move{Kind: MovePinProc, Proc: src, Offset: iv.ALAP})
	}
	// Swap the message's priority with its immediate neighbours.
	if _, ok := cfg.MsgPriority[e]; ok {
		if up, ok := adjacentMsg(app, arch, cfg, e, -1); ok {
			add(Move{Kind: MoveSwapMsgPrio, Edge: e, Edge2: up})
		}
		if down, ok := adjacentMsg(app, arch, cfg, e, +1); ok {
			add(Move{Kind: MoveSwapMsgPrio, Edge: e, Edge2: down})
		}
	}
}

// adjacentMsg finds the CAN message whose priority is immediately above
// (dir < 0) or below (dir > 0) that of e.
func adjacentMsg(app *model.Application, arch *model.Architecture, cfg *core.Config, e model.EdgeID, dir int) (model.EdgeID, bool) {
	myPrio := cfg.MsgPriority[e]
	bestPrio := 0
	var best model.EdgeID
	found := false
	for id, prio := range cfg.MsgPriority {
		if id == e {
			continue
		}
		if dir < 0 && prio < myPrio && (!found || prio > bestPrio) {
			best, bestPrio, found = id, prio, true
		}
		if dir > 0 && prio > myPrio && (!found || prio < bestPrio) {
			best, bestPrio, found = id, prio, true
		}
	}
	return best, found
}

// adjacentProcPairs returns the per-node priority-adjacent process
// pairs, in deterministic order.
func adjacentProcPairs(app *model.Application, arch *model.Architecture, cfg *core.Config) [][2]model.ProcID {
	byNode := make(map[model.NodeID][]model.ProcID)
	for _, p := range app.Procs {
		if _, ok := cfg.ProcPriority[p.ID]; ok {
			byNode[p.Node] = append(byNode[p.Node], p.ID)
		}
	}
	var nodes []model.NodeID
	for n := range byNode {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	var pairs [][2]model.ProcID
	for _, n := range nodes {
		ids := byNode[n]
		sort.Slice(ids, func(i, j int) bool { return cfg.ProcPriority[ids[i]] < cfg.ProcPriority[ids[j]] })
		for i := 0; i+1 < len(ids); i++ {
			pairs = append(pairs, [2]model.ProcID{ids[i], ids[i+1]})
		}
	}
	return pairs
}

// adjacentMsgPairs returns the priority-adjacent CAN message pairs.
func adjacentMsgPairs(app *model.Application, arch *model.Architecture, cfg *core.Config) [][2]model.EdgeID {
	var ids []model.EdgeID
	for id := range cfg.MsgPriority {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return cfg.MsgPriority[ids[i]] < cfg.MsgPriority[ids[j]] })
	var pairs [][2]model.EdgeID
	for i := 0; i+1 < len(ids); i++ {
		pairs = append(pairs, [2]model.EdgeID{ids[i], ids[i+1]})
	}
	return pairs
}

func sortedProcPins(cfg *core.Config) []model.ProcID {
	var out []model.ProcID
	for p := range cfg.PinnedProc {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedEdgePins(cfg *core.Config) []model.EdgeID {
	var out []model.EdgeID
	for e := range cfg.PinnedEdge {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
