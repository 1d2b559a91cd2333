package model

import "fmt"

// TopoOrder returns the processes of graph g in a topological order.
// The order is deterministic: among ready processes the one created
// first comes first. An error is returned if the graph has a cycle.
// The order is computed once with the adjacency caches; the returned
// slice is shared and must not be modified.
func (a *Application) TopoOrder(g int) ([]ProcID, error) {
	a.ensureAdjacency()
	return a.topo[g], a.topoErr[g]
}

// topoOrder computes TopoOrder(g) from the adjacency lists.
func (a *Application) topoOrder(g int) ([]ProcID, error) {
	members := a.Graphs[g].Procs
	indeg := make(map[ProcID]int, len(members))
	for _, p := range members {
		indeg[p] = len(a.in[p])
	}
	var order []ProcID
	// Repeatedly take the first (creation order) process with indegree 0.
	taken := make(map[ProcID]bool, len(members))
	for len(order) < len(members) {
		found := false
		for _, p := range members {
			if taken[p] || indeg[p] != 0 {
				continue
			}
			taken[p] = true
			order = append(order, p)
			for _, e := range a.out[p] {
				indeg[a.Edges[e].Dst]--
			}
			found = true
			break
		}
		if !found {
			return nil, fmt.Errorf("model: graph %q contains a cycle", a.Graphs[g].Name)
		}
	}
	return order, nil
}

// TopoOrderAll returns a topological order over all processes of the
// application (graph by graph), or the first graph's cycle error. Like
// TopoOrder, the returned slice is shared and must not be modified.
func (a *Application) TopoOrderAll() ([]ProcID, error) {
	a.ensureAdjacency()
	return a.topoAll, a.topoAllErr
}

// Sources returns the processes of graph g without predecessors.
func (a *Application) Sources(g int) []ProcID {
	var s []ProcID
	for _, p := range a.Graphs[g].Procs {
		if len(a.InEdges(p)) == 0 {
			s = append(s, p)
		}
	}
	return s
}

// Sinks returns the processes of graph g without successors. The
// worst-case response time of the graph is measured at its sinks.
func (a *Application) Sinks(g int) []ProcID {
	var s []ProcID
	for _, p := range a.Graphs[g].Procs {
		if len(a.OutEdges(p)) == 0 {
			s = append(s, p)
		}
	}
	return s
}

// LongestPathToSink returns, for every process, the length of the longest
// WCET-weighted path from that process (inclusive) to any sink of its
// graph. Communication costs are not included; the value is used as the
// partial-critical-path priority of the list scheduler.
func (a *Application) LongestPathToSink() (map[ProcID]Time, error) {
	lp := make(map[ProcID]Time, len(a.Procs))
	for g := range a.Graphs {
		order, err := a.TopoOrder(g)
		if err != nil {
			return nil, err
		}
		for i := len(order) - 1; i >= 0; i-- {
			p := order[i]
			best := Time(0)
			for _, e := range a.OutEdges(p) {
				if s := a.Edges[e].Dst; lp[s] > best {
					best = lp[s]
				}
			}
			lp[p] = best + a.Procs[p].WCET
		}
	}
	return lp, nil
}

// CriticalPath returns the WCET-weighted critical path length of graph g,
// a lower bound on its end-to-end response time (ignoring communication
// and resource contention).
func (a *Application) CriticalPath(g int) (Time, error) {
	lp, err := a.LongestPathToSink()
	if err != nil {
		return 0, err
	}
	var best Time
	for _, p := range a.Sources(g) {
		if lp[p] > best {
			best = lp[p]
		}
	}
	return best, nil
}

// Hyperperiod returns the least common multiple of all graph periods.
func (a *Application) Hyperperiod() (Time, error) {
	h := Time(1)
	for i := range a.Graphs {
		var err error
		h, err = LCM(h, a.Graphs[i].Period)
		if err != nil {
			return 0, fmt.Errorf("model: hyperperiod overflow: %w", err)
		}
	}
	return h, nil
}

// GCD returns the greatest common divisor of two positive times.
func GCD(a, b Time) Time {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// LCM returns the least common multiple of two positive times, failing on
// overflow.
func LCM(a, b Time) (Time, error) {
	if a <= 0 || b <= 0 {
		return 0, fmt.Errorf("model: LCM of non-positive values %d, %d", a, b)
	}
	g := GCD(a, b)
	q := a / g
	if q > 0 && b > (1<<62)/q {
		return 0, fmt.Errorf("model: LCM(%d, %d) overflows", a, b)
	}
	return q * b, nil
}

// UtilizationByNode returns the CPU utilization contributed by the
// processes mapped on each node, as a fraction of 1.0.
func (a *Application) UtilizationByNode(arch *Architecture) map[NodeID]float64 {
	u := make(map[NodeID]float64, len(arch.Nodes))
	for _, p := range a.Procs {
		u[p.Node] += float64(p.WCET) / float64(a.PeriodOf(p.ID))
	}
	return u
}
