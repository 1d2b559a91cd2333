// Package hopa implements the "heuristic optimized priority assignment"
// of Gutiérrez García and González Harbour (reference [7] of the paper),
// which OptimizeSchedule uses to pick the ET process and CAN message
// priorities for a candidate bus configuration.
//
// The approach follows HOPA's structure: distribute each graph's
// end-to-end deadline over the activities along its paths as local
// deadlines (an ALAP backward pass weighted by execution and
// communication costs), assign priorities deadline-monotonically per
// resource (per ET CPU and over the CAN bus), then iteratively
// redistribute the local deadlines guided by the worst-case completions
// observed in the full multi-cluster analysis, keeping the assignment
// with the best degree of schedulability.
package hopa

import (
	"cmp"
	"slices"

	"repro/internal/can"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/ttp"
)

// Result is the best priority assignment found.
type Result struct {
	// ProcPriority and MsgPriority are the priority vectors of
	// core.Config, indexed by ProcID and EdgeID.
	ProcPriority []int
	MsgPriority  []int
	// Delta is the degree of schedulability achieved with the returned
	// priorities (smaller is better, negative = schedulable).
	Delta model.Time
	// Schedulable mirrors the analysis verdict for the best assignment.
	Schedulable bool
	// Evaluations counts the multi-cluster analyses performed.
	Evaluations int
}

// DefaultIterations is the number of redistribution rounds when the
// caller passes 0 (the value OptimizeSchedule uses).
const DefaultIterations = 2

// Assign computes priorities for the given TDMA round, analyzing every
// candidate assignment through eval. The round is not modified; it only
// parameterizes the analysis. iterations <= 0 selects
// DefaultIterations. Evaluations counts every analysis the loop
// requests, whether or not eval served it from a cache, so reports stay
// comparable across evaluators.
func Assign(app *model.Application, arch *model.Architecture, round ttp.Round, iterations int, eval core.EvalFunc) (*Result, error) {
	if iterations <= 0 {
		iterations = DefaultIterations
	}
	ld, err := initialLocalDeadlines(app, arch, round)
	if err != nil {
		return nil, err
	}
	best := &Result{}
	for it := 0; it < iterations; it++ {
		procPrio, msgPrio := deadlineMonotonic(app, arch, ld)
		cfg := &core.Config{Round: round.Clone(), ProcPriority: procPrio, MsgPriority: msgPrio}
		if err := cfg.Normalize(app); err != nil {
			return nil, err
		}
		a, err := eval(cfg)
		if err != nil {
			return nil, err
		}
		best.Evaluations++
		if it == 0 || a.Delta < best.Delta {
			best.ProcPriority = procPrio
			best.MsgPriority = msgPrio
			best.Delta = a.Delta
			best.Schedulable = a.Schedulable
		}
		if it < iterations-1 {
			redistribute(app, arch, a, ld)
		}
	}
	return best, nil
}

// localDeadlines holds the local deadline of every process by ProcID
// and of every edge by EdgeID.
type localDeadlines struct {
	proc []model.Time
	edge []model.Time
}

// initialLocalDeadlines runs the ALAP backward pass: the local deadline
// of an activity is the latest completion that still lets every
// downstream path meet the graph deadline, using WCETs and rough
// communication latencies (CAN frame time; one TDMA round per TTP leg;
// both plus the gateway cost for inter-cluster routes).
func initialLocalDeadlines(app *model.Application, arch *model.Architecture, round ttp.Round) (*localDeadlines, error) {
	ld := &localDeadlines{
		proc: make([]model.Time, len(app.Procs)),
		edge: make([]model.Time, len(app.Edges)),
	}
	commCost := func(e model.EdgeID) model.Time {
		switch app.RouteOf(e, arch) {
		case model.RouteLocal:
			return 0
		case model.RouteTTP:
			return round.Period()
		case model.RouteCAN:
			return can.TimeOf(&app.Edges[e], arch.CAN)
		case model.RouteTTtoET:
			return round.Period() + arch.GatewayCost + can.TimeOf(&app.Edges[e], arch.CAN)
		default: // RouteETtoTT
			return can.TimeOf(&app.Edges[e], arch.CAN) + arch.GatewayCost + round.Period()
		}
	}
	for g := range app.Graphs {
		order, err := app.TopoOrder(g)
		if err != nil {
			return nil, err
		}
		d := app.Graphs[g].Deadline
		for i := len(order) - 1; i >= 0; i-- {
			p := order[i]
			pd := d
			for _, e := range app.OutEdges(p) {
				dst := app.Edges[e].Dst
				edgeLD := max(ld.proc[dst]-app.Procs[dst].WCET, 1)
				ld.edge[e] = edgeLD
				if t := edgeLD - commCost(e); t < pd {
					pd = t
				}
			}
			ld.proc[p] = max(pd, 1)
		}
	}
	return ld, nil
}

// deadlineMonotonic turns local deadlines into unique priorities per
// resource: smaller local deadline = higher priority (smaller number).
// The ET CPUs are numbered in node order; ties break on the creation
// order, which keeps the assignment deterministic.
func deadlineMonotonic(app *model.Application, arch *model.Architecture, ld *localDeadlines) (procPrio, msgPrio []int) {
	var procs []model.ProcID
	for _, p := range app.Procs {
		if arch.Kind(p.Node) == model.EventTriggered {
			procs = append(procs, p.ID)
		}
	}
	slices.SortFunc(procs, func(a, b model.ProcID) int {
		return cmp.Or(
			cmp.Compare(app.Procs[a].Node, app.Procs[b].Node),
			cmp.Compare(ld.proc[a], ld.proc[b]),
			cmp.Compare(a, b))
	})
	procPrio, msgPrio = core.NewPriorities(app)
	for i, p := range procs {
		procPrio[p] = i
	}
	var msgs []model.EdgeID
	for _, e := range app.Edges {
		if app.RouteOf(e.ID, arch).UsesCAN() {
			msgs = append(msgs, e.ID)
		}
	}
	slices.SortFunc(msgs, func(a, b model.EdgeID) int {
		return cmp.Or(cmp.Compare(ld.edge[a], ld.edge[b]), cmp.Compare(a, b))
	})
	for i, e := range msgs {
		msgPrio[e] = i
	}
	return procPrio, msgPrio
}

// redistribute moves the local deadlines toward the completion pattern
// observed in the analysis: each activity's target deadline is its
// worst-case completion offset rescaled so the whole graph would just
// meet its deadline; the new local deadline is the average of old and
// target (HOPA's damped redistribution).
func redistribute(app *model.Application, arch *model.Architecture, a *core.Analysis, ld *localDeadlines) {
	for g := range app.Graphs {
		resp := a.GraphResp[g]
		if resp <= 0 {
			continue
		}
		d := app.Graphs[g].Deadline
		scale := float64(d) / float64(resp)
		for _, p := range app.Graphs[g].Procs {
			if arch.Kind(app.Procs[p].Node) == model.EventTriggered {
				target := model.Time(float64(a.Proc[p].Completion()) * scale)
				ld.proc[p] = damp(ld.proc[p], target)
			}
		}
		for _, e := range app.Graphs[g].Edges {
			if app.RouteOf(e, arch).UsesCAN() {
				target := model.Time(float64(a.Edge[e].Delivery) * scale)
				ld.edge[e] = damp(ld.edge[e], target)
			}
		}
	}
}

func damp(old, target model.Time) model.Time {
	v := (old + target) / 2
	if v < 1 {
		return 1
	}
	return v
}
