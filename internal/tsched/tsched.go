// Package tsched builds the static cyclic schedule of the time-triggered
// cluster: start times (offsets) for the TT processes, the slot
// occurrences of the TTP messages, and the resulting MEDL. It implements
// the StaticScheduling step of the MultiClusterScheduling algorithm
// (Fig. 5 of the paper) with the list-scheduling approach of Eles et al.
// referenced as [5].
//
// The scheduler rolls each process graph out over the application
// hyper-period (one job per graph instance), orders ready jobs by
// earliest feasible start with partial-critical-path priority as the tie
// break, packs TTP messages into the next slot occurrence of the sender
// with free capacity, and honours two kinds of external constraints:
//
//   - ReleaseOffset: worst-case arrival offsets of messages coming from
//     the ETC (computed by the response-time analysis); a TT process must
//     not start before all its inputs are present (§4 of the paper).
//   - Pinned offsets: "not before" constraints used by the
//     OptimizeResources hill climber to move TT activities inside their
//     [ASAP, ALAP] intervals.
package tsched

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/model"
	"repro/internal/ttp"
)

// Input bundles everything the static scheduler needs.
type Input struct {
	App  *model.Application
	Arch *model.Architecture
	// Round is the TDMA configuration; its period must divide the
	// application hyper-period (use Round.PadToDivide).
	Round ttp.Round
	// ReleaseOffset holds in-period earliest-start constraints for TT
	// processes, typically the worst-case arrival offsets of their
	// ET->TT input messages. Missing entries mean "no constraint".
	ReleaseOffset map[model.ProcID]model.Time
	// PinnedProc delays the start of a TT process to at least the given
	// in-period offset (OptimizeResources moves).
	PinnedProc map[model.ProcID]model.Time
	// PinnedEdge delays the bus transmission of a TTP message to at
	// least the given in-period offset.
	PinnedEdge map[model.EdgeID]model.Time
	// LongestPath is App.LongestPathToSink(), the list scheduler's tie
	// break, for a caller that schedules one application many times;
	// nil makes Build compute it.
	LongestPath []model.Time
}

// Schedule is the static schedule of the TTC over one hyper-period.
type Schedule struct {
	Round ttp.Round
	// Hyper is the schedule table length (the application hyper-period).
	Hyper model.Time
	// ProcStart holds, by ProcID, each TT process's absolute start
	// times, one per graph instance within the hyper-period, ascending;
	// nil for a process not in the table.
	ProcStart [][]model.Time
	// EdgeArrival holds, by EdgeID, each TTP-leg edge's absolute bus
	// delivery times (slot occurrence end), one per instance, ascending;
	// nil for an edge without a TTP leg. For TT->ET edges this is the
	// arrival at the gateway MBI.
	EdgeArrival [][]model.Time
	// MEDL is the frame schedule. Entries beyond the cycle can appear
	// when the configuration is overloaded; WithinCycle reports it.
	MEDL ttp.MEDL
	// WithinCycle is true when every job and frame fits inside its
	// period window, i.e. the table really is cyclic. Overloaded
	// configurations still get a schedule (for cost evaluation) but are
	// not executable.
	WithinCycle bool
}

// Build runs the list scheduler and returns the schedule. It fails only
// on structural errors (invalid round, message larger than its slot);
// overload shows up as WithinCycle == false plus late start times, so
// that the optimization heuristics see a smooth cost landscape.
//
// The scheduling state is dense: jobs and TTP message instances are
// numbered per process and per edge (see jobSet), so the result's start
// and arrival lists are carved out of the state's own arrays.
func Build(in Input) (*Schedule, error) {
	app, arch := in.App, in.Arch
	hyper, err := app.Hyperperiod()
	if err != nil {
		return nil, err
	}
	var owners [16]model.NodeID
	if err := in.Round.Validate(arch.AppendSlotOwners(owners[:0])); err != nil {
		return nil, err
	}
	if p := in.Round.Period(); p <= 0 || hyper%p != 0 {
		return nil, fmt.Errorf("tsched: round period %d does not divide the hyper-period %d", in.Round.Period(), hyper)
	}
	lp := in.LongestPath
	if lp == nil {
		if lp, err = app.LongestPathToSink(); err != nil {
			return nil, err
		}
	}

	js := collectJobs(in, hyper)
	s := &Schedule{
		Round:       in.Round,
		Hyper:       hyper,
		ProcStart:   make([][]model.Time, len(app.Procs)),
		EdgeArrival: make([][]model.Time, len(app.Edges)),
		MEDL: ttp.MEDL{Round: in.Round, Cycle: hyper,
			Entries: make([]ttp.MEDLEntry, 0, len(js.arrival))},
		WithinCycle: true,
	}
	if len(js.jobs) == 0 {
		return s, nil
	}
	jobs := js.jobs
	cpuFree := make([]model.Time, len(arch.Nodes))
	// slotUsed maps a slot occurrence, occ*len(slots)+slot, to the bytes
	// it already carries.
	slotUsed := make(map[int64]int, len(js.arrival))
	var outBuf [8]model.EdgeID
	out := outBuf[:0]
	for pending := len(jobs); pending > 0; pending-- {
		best := -1
		var bestStart model.Time
		for i := range jobs {
			j := &jobs[i]
			if js.start[i] >= 0 || !js.predsDone(app, arch, j) {
				continue
			}
			start := js.jobStart(app, arch, j, cpuFree)
			if best == -1 || start < bestStart ||
				(start == bestStart && betterTie(lp, &jobs[best], j)) {
				best = i
				bestStart = start
			}
		}
		if best == -1 {
			// Cannot happen on validated DAGs; guard against corruption.
			return nil, fmt.Errorf("tsched: no eligible job among %d pending", pending)
		}
		j := &jobs[best]
		js.start[best] = bestStart
		proc := &app.Procs[j.proc]
		end := bestStart + proc.WCET
		cpuFree[proc.Node] = end
		if end > j.release+app.PeriodOf(j.proc) {
			s.WithinCycle = false
		}
		// Transmit the outgoing TTP-leg messages right away, the most
		// critical destination first: messages become ready together
		// when the producer finishes, and the partial critical path of
		// the receiver decides who gets the earlier slot occurrence
		// (the message priority function of [5]).
		out = out[:0]
		for _, e := range app.OutEdges(j.proc) {
			if js.edgeBase[e] >= 0 {
				out = append(out, e)
			}
		}
		slices.SortStableFunc(out, func(a, b model.EdgeID) int {
			la, lb := lp[app.Edges[a].Dst], lp[app.Edges[b].Dst]
			if la != lb {
				return cmp.Compare(lb, la)
			}
			return cmp.Compare(a, b)
		})
		for _, e := range out {
			if err := s.scheduleMessage(in, e, j.instance, end, slotUsed, &js); err != nil {
				return nil, err
			}
		}
	}
	js.publish(app, s)
	return s, nil
}

type job struct {
	proc     model.ProcID
	instance int
	release  model.Time // k * period
	// earliest is the release raised by the job's release offset and
	// pin: the start bound that does not depend on other jobs.
	earliest model.Time
}

// jobSet is the dense scheduling state. Job i of process p is instance
// i-procBase[p]; instance k of a TTP-leg edge e is arrival slot
// edgeBase[e]+k. Bases are -1 for processes and edges outside the
// static schedule.
type jobSet struct {
	jobs     []job
	procBase []int // by ProcID
	edgeBase []int // by EdgeID
	// start holds each job's start time, -1 while unscheduled; arrival
	// holds each message instance's bus delivery time.
	start   []model.Time
	arrival []model.Time
}

// collectJobs rolls the TT processes and their TTP-leg messages out
// over the hyper-period.
func collectJobs(in Input, hyper model.Time) jobSet {
	app, arch := in.App, in.Arch
	js := jobSet{
		procBase: make([]int, len(app.Procs)),
		edgeBase: make([]int, len(app.Edges)),
	}
	nJobs := 0
	for i := range app.Procs {
		p := &app.Procs[i]
		js.procBase[i] = -1
		if arch.Kind(p.Node) == model.TimeTriggered {
			js.procBase[i] = nJobs
			nJobs += int(hyper / app.PeriodOf(p.ID))
		}
	}
	nMsgs := 0
	for i := range app.Edges {
		js.edgeBase[i] = -1
		if app.RouteOf(model.EdgeID(i), arch).UsesTTP() {
			js.edgeBase[i] = nMsgs
			nMsgs += int(hyper / app.EdgePeriod(model.EdgeID(i)))
		}
	}
	js.jobs = make([]job, 0, nJobs)
	js.start = make([]model.Time, nJobs)
	js.arrival = make([]model.Time, nMsgs)
	for i := range app.Procs {
		if js.procBase[i] < 0 {
			continue
		}
		p := model.ProcID(i)
		period := app.PeriodOf(p)
		off, hasOff := in.ReleaseOffset[p]
		pin, hasPin := in.PinnedProc[p]
		for k := 0; k < int(hyper/period); k++ {
			j := job{proc: p, instance: k, release: model.Time(k) * period}
			j.earliest = j.release
			if hasOff {
				j.earliest = max(j.earliest, j.release+off)
			}
			if hasPin {
				j.earliest = max(j.earliest, j.release+pin)
			}
			js.start[len(js.jobs)] = -1
			js.jobs = append(js.jobs, j)
		}
	}
	return js
}

// predsDone reports whether every TT predecessor (and its message, if
// any) of the job is already scheduled. ET predecessors do not gate the
// schedule; their influence arrives through Input.ReleaseOffset.
func (js *jobSet) predsDone(app *model.Application, arch *model.Architecture, j *job) bool {
	for _, e := range app.InEdges(j.proc) {
		src := app.Edges[e].Src
		if arch.Kind(app.Procs[src].Node) != model.TimeTriggered {
			continue
		}
		if js.start[js.procBase[src]+j.instance] < 0 {
			return false
		}
	}
	return true
}

// jobStart computes the earliest feasible start of the job given the
// current state.
func (js *jobSet) jobStart(app *model.Application, arch *model.Architecture, j *job, cpuFree []model.Time) model.Time {
	start := j.earliest
	for _, e := range app.InEdges(j.proc) {
		src := app.Edges[e].Src
		if arch.Kind(app.Procs[src].Node) != model.TimeTriggered {
			continue // ET->TT: covered by ReleaseOffset
		}
		// A TT->TT edge is local on one node and a TTP leg otherwise.
		if b := js.edgeBase[e]; b >= 0 {
			start = max(start, js.arrival[b+j.instance])
		} else {
			start = max(start, js.start[js.procBase[src]+j.instance]+app.Procs[src].WCET)
		}
	}
	return max(start, cpuFree[app.Procs[j.proc].Node])
}

// publish carves the result's per-process start lists and per-edge
// arrival lists out of the dense state, each sorted ascending. The
// slices are capped at their length, so an append by any holder of a
// shared schedule reallocates instead of overwriting a neighbour.
func (js *jobSet) publish(app *model.Application, s *Schedule) {
	for i, b := range js.procBase {
		if b < 0 {
			continue
		}
		n := b + int(s.Hyper/app.PeriodOf(model.ProcID(i)))
		s.ProcStart[i] = js.start[b:n:n]
		slices.Sort(s.ProcStart[i])
	}
	for i, b := range js.edgeBase {
		if b < 0 {
			continue
		}
		n := b + int(s.Hyper/app.EdgePeriod(model.EdgeID(i)))
		s.EdgeArrival[i] = js.arrival[b:n:n]
		slices.Sort(s.EdgeArrival[i])
	}
}

// betterTie returns true when candidate b should replace a at equal
// start times: larger partial critical path first, then smaller process
// ID, then smaller instance.
func betterTie(lp []model.Time, a, b *job) bool {
	la, lb := lp[a.proc], lp[b.proc]
	if la != lb {
		return lb > la
	}
	if a.proc != b.proc {
		return b.proc < a.proc
	}
	return b.instance < a.instance
}

// scheduleMessage packs instance k of edge e into the earliest slot
// occurrence of the sender's slot that starts at or after the ready time
// and has free capacity.
func (s *Schedule) scheduleMessage(in Input, e model.EdgeID, k int, ready model.Time,
	slotUsed map[int64]int, js *jobSet) error {
	app, arch := in.App, in.Arch
	ed := &app.Edges[e]
	sender := app.Procs[ed.Src].Node
	slot := s.Round.SlotIndexOf(sender)
	if slot < 0 {
		return fmt.Errorf("tsched: node %d of message %q owns no TDMA slot", sender, ed.Name)
	}
	capacity := s.Round.Capacity(slot, arch.TTP.TickPerByte)
	if ed.Size > capacity {
		return fmt.Errorf("tsched: message %q (%d bytes) exceeds slot capacity %d of node %d", ed.Name, ed.Size, capacity, sender)
	}
	if pin, ok := in.PinnedEdge[e]; ok {
		ready = max(ready, model.Time(k)*app.EdgePeriod(e)+pin)
	}
	occ := s.Round.NextOccurrence(slot, ready)
	key := func(occ int) int64 { return int64(occ)*int64(len(s.Round.Slots)) + int64(slot) }
	for slotUsed[key(occ)]+ed.Size > capacity {
		occ++
	}
	slotUsed[key(occ)] += ed.Size
	start := s.Round.OccurrenceStart(slot, occ)
	end := start + s.Round.Slots[slot].Length
	js.arrival[js.edgeBase[e]+k] = end
	s.MEDL.Entries = append(s.MEDL.Entries, ttp.MEDLEntry{
		Edge: e, Instance: k, Slot: slot, Round: occ, Bytes: ed.Size,
		Start: start, End: end,
	})
	if end > model.Time(k+1)*app.EdgePeriod(e) {
		s.WithinCycle = false
	}
	return nil
}
