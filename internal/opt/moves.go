// Package opt implements the synthesis heuristics of §5 of the paper:
// the straightforward baseline SF, the greedy OptimizeSchedule (OS,
// Fig. 8) that maximizes the degree of schedulability, and the
// hill-climbing OptimizeResources (OR, Fig. 7) that minimizes the total
// buffer need s_total while preserving schedulability. The §5.1 design
// transformations ("moves") shared by OR and the simulated-annealing
// baselines live here too.
package opt

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

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
// A move sets only the fields its kind uses and leaves the rest zero,
// so moves compare with ==.
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

// String renders the move for diagnostics only; no hot path formats
// moves (GenerateMoves compares them by value).
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
		if !swapPriorities(d.ProcPriority, int(m.Proc), int(m.Proc2)) {
			return nil, fmt.Errorf("opt: processes %d/%d have no priorities", m.Proc, m.Proc2)
		}
	case MoveSwapMsgPrio:
		d = cfg.Clone()
		if !swapPriorities(d.MsgPriority, int(m.Edge), int(m.Edge2)) {
			return nil, fmt.Errorf("opt: messages %d/%d have no priorities", m.Edge, m.Edge2)
		}
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
// pin removals. Each move appears once. The moves, their order and the
// draws taken from budget.Rand depend only on the inputs.
func GenerateMoves(app *model.Application, arch *model.Architecture, cfg *core.Config, a *core.Analysis, budget MoveBudget) []Move {
	if budget.Max <= 0 {
		budget.Max = 24
	}
	rng := budget.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	crit := criticalEdges(a)
	// The CAN messages in priority order serve both the critical
	// messages' neighbour swaps and the adjacent pairs of step 5.
	msgs := byPriority(cfg.MsgPriority)
	slots := len(cfg.Round.Slots)
	// No more distinct moves exist, so a huge budget allocates nothing
	// beyond them.
	bound := 6*len(crit) + slots*(slots+3)/2 + len(cfg.PinnedProc) + len(cfg.PinnedEdge) + len(cfg.ProcPriority) + len(msgs)
	set := moveSet{moves: make([]Move, 0, min(budget.Max, bound)), max: budget.Max}

	// 1. Targeted moves around the critical queue messages.
	for _, e := range crit {
		targetCriticalEdge(app, a, e, msgs, &set)
	}

	// 2. Slot swaps (the round is short: enumerate pairs).
	for i := 0; i < slots; i++ {
		for j := i + 1; j < slots; j++ {
			set.add(Move{Kind: MoveSwapSlots, Slot: i, Slot2: j})
		}
	}

	// 3. Slot resizes by one quantum in both directions.
	quantum := arch.TTP.TickPerByte * 4
	if quantum <= 0 {
		quantum = 4
	}
	for i := range slots {
		set.add(Move{Kind: MoveResizeSlot, Slot: i, Delta: quantum})
		set.add(Move{Kind: MoveResizeSlot, Slot: i, Delta: -quantum})
	}

	// 4. Pin removals (escape accumulated constraints).
	for _, p := range sortedKeys(cfg.PinnedProc) {
		set.add(Move{Kind: MoveUnpinProc, Proc: p})
	}
	for _, e := range sortedKeys(cfg.PinnedEdge) {
		set.add(Move{Kind: MoveUnpinEdge, Edge: e})
	}

	// 5. Random adjacent priority swaps to fill the budget.
	procPairs := adjacentProcPairs(app, cfg)
	msgPairs := make([][2]model.EdgeID, max(len(msgs)-1, 0))
	for i := range msgPairs {
		msgPairs[i] = [2]model.EdgeID{msgs[i], msgs[i+1]}
	}
	rng.Shuffle(len(procPairs), func(i, j int) { procPairs[i], procPairs[j] = procPairs[j], procPairs[i] })
	rng.Shuffle(len(msgPairs), func(i, j int) { msgPairs[i], msgPairs[j] = msgPairs[j], msgPairs[i] })
	for i := 0; len(set.moves) < budget.Max && (i < len(procPairs) || i < len(msgPairs)); i++ {
		if i < len(procPairs) {
			set.add(Move{Kind: MoveSwapProcPrio, Proc: procPairs[i][0], Proc2: procPairs[i][1]})
		}
		if i < len(msgPairs) {
			set.add(Move{Kind: MoveSwapMsgPrio, Edge: msgPairs[i][0], Edge2: msgPairs[i][1]})
		}
	}
	return set.moves
}

// moveSet is a neighbourhood under construction: at most max moves,
// each once.
type moveSet struct {
	moves []Move
	max   int
}

// add appends m unless the set is full or holds m already. Every
// constructor leaves the fields its kind does not use zero, so two
// moves are equal exactly when their Strings are; the scan covers at
// most max moves.
func (s *moveSet) add(m Move) {
	if len(s.moves) < s.max && !slices.Contains(s.moves, m) {
		s.moves = append(s.moves, m)
	}
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

// targetCriticalEdge adds the focused moves for one critical message:
// re-timing its TTP leg or its TT producer, and swapping its priority
// with its neighbours in msgs, the CAN messages in priority order.
func targetCriticalEdge(app *model.Application, a *core.Analysis, e model.EdgeID, msgs []model.EdgeID, set *moveSet) {
	// Re-time the TTP leg inside its [ASAP, ALAP] window.
	if iv, ok := a.EdgeMoveInterval(app, e); ok && iv.ALAP > iv.ASAP {
		mid := iv.ASAP + (iv.ALAP-iv.ASAP)/2
		set.add(Move{Kind: MovePinEdge, Edge: e, Offset: mid})
		set.add(Move{Kind: MovePinEdge, Edge: e, Offset: iv.ALAP})
	}
	// Re-time the producer when it is a TT process (spreads the queue
	// entries of ET->TT messages).
	src := app.Edges[e].Src
	if iv, ok := a.ProcMoveInterval(app, src); ok && iv.ALAP > iv.ASAP {
		mid := iv.ASAP + (iv.ALAP-iv.ASAP)/2
		set.add(Move{Kind: MovePinProc, Proc: src, Offset: mid})
		set.add(Move{Kind: MovePinProc, Proc: src, Offset: iv.ALAP})
	}
	// Swap the message's priority with its immediate neighbours (CAN
	// priorities are unique, so they are its neighbours in msgs).
	i := slices.Index(msgs, e)
	if i < 0 {
		return
	}
	if i > 0 {
		set.add(Move{Kind: MoveSwapMsgPrio, Edge: e, Edge2: msgs[i-1]})
	}
	if i+1 < len(msgs) {
		set.add(Move{Kind: MoveSwapMsgPrio, Edge: e, Edge2: msgs[i+1]})
	}
}

// adjacentProcPairs returns the per-node priority-adjacent process
// pairs, ordered by node, then by priority. Priorities are unique per
// node, so one sort by (node, priority) fixes the order.
func adjacentProcPairs(app *model.Application, cfg *core.Config) [][2]model.ProcID {
	type ranked struct {
		node model.NodeID
		prio int
		id   model.ProcID
	}
	procs := make([]ranked, 0, len(app.Procs))
	for _, p := range app.Procs {
		if prio := cfg.ProcPriority[p.ID]; prio != core.NoPriority {
			procs = append(procs, ranked{p.Node, prio, p.ID})
		}
	}
	slices.SortFunc(procs, func(x, y ranked) int {
		if c := cmp.Compare(x.node, y.node); c != 0 {
			return c
		}
		return cmp.Compare(x.prio, y.prio)
	})
	pairs := make([][2]model.ProcID, 0, max(len(procs)-1, 0))
	for i := 0; i+1 < len(procs); i++ {
		if procs[i].node == procs[i+1].node {
			pairs = append(pairs, [2]model.ProcID{procs[i].id, procs[i+1].id})
		}
	}
	return pairs
}

// swapPriorities swaps the entries a and b of prio, and reports false,
// leaving prio as it was, when either is out of range or holds
// NoPriority.
func swapPriorities(prio []int, a, b int) bool {
	if min(a, b) < 0 || max(a, b) >= len(prio) || prio[a] == core.NoPriority || prio[b] == core.NoPriority {
		return false
	}
	prio[a], prio[b] = prio[b], prio[a]
	return true
}

// byPriority returns the IDs that hold a priority in prio, ordered by
// their priority, then by ID.
func byPriority(prio []int) []model.EdgeID {
	out := make([]model.EdgeID, 0, len(prio))
	for id, p := range prio {
		if p != core.NoPriority {
			out = append(out, model.EdgeID(id))
		}
	}
	slices.SortFunc(out, func(x, y model.EdgeID) int { return cmp.Or(cmp.Compare(prio[x], prio[y]), cmp.Compare(x, y)) })
	return out
}

// sortedKeys returns the keys of m in ascending order.
func sortedKeys[K ~int, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
