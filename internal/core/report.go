package core

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/model"
)

// WriteScheduleTables renders the synthesized TT schedule tables and the
// MEDL in a human-readable form: per TT node the process start times,
// and per TDMA slot the statically scheduled frames. This is the
// "download" a TTP integrator would flash into the nodes (§2.3: local
// schedule tables and the MEDL).
func (a *Analysis) WriteScheduleTables(w io.Writer, app *model.Application, arch *model.Architecture) {
	fmt.Fprintf(w, "TTC schedule tables (cycle = %d ticks, TDMA round = %d ticks)\n",
		a.Schedule.Hyper, a.Schedule.Round.Period())

	// Per-node process tables.
	type entry struct {
		start, end model.Time
		name       string
	}
	byNode := make([][]entry, len(arch.Nodes))
	for pid, starts := range a.Schedule.ProcStart {
		p := &app.Procs[pid]
		for _, st := range starts {
			byNode[p.Node] = append(byNode[p.Node], entry{st, st + p.WCET, p.Name})
		}
	}
	for n, ents := range byNode {
		if len(ents) == 0 {
			continue
		}
		fmt.Fprintf(w, "node %s:\n", arch.Nodes[n].Name)
		sort.Slice(ents, func(i, j int) bool { return ents[i].start < ents[j].start })
		for _, e := range ents {
			fmt.Fprintf(w, "  [%6d, %6d)  %s\n", e.start, e.end, e.name)
		}
	}

	// MEDL: frames per slot occurrence.
	fmt.Fprintln(w, "MEDL (TTP frame schedule):")
	medl := a.Schedule.MEDL.Entries
	sorted := make([]int, len(medl))
	for i := range sorted {
		sorted[i] = i
	}
	sort.Slice(sorted, func(i, j int) bool {
		a, b := medl[sorted[i]], medl[sorted[j]]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Edge < b.Edge
	})
	for _, i := range sorted {
		e := medl[i]
		owner := arch.Nodes[a.Schedule.Round.Slots[e.Slot].Node].Name
		fmt.Fprintf(w, "  round %3d slot %d (%s) [%6d, %6d): %s (%d B)\n",
			e.Round, e.Slot, owner, e.Start, e.End, app.Edges[e.Edge].Name, e.Bytes)
	}

	// ET side: priority tables.
	fmt.Fprintln(w, "ETC priority tables:")
	etprocs := make([][]model.ProcID, len(arch.Nodes))
	for _, p := range app.Procs {
		if arch.Kind(p.Node) == model.EventTriggered {
			etprocs[p.Node] = append(etprocs[p.Node], p.ID)
		}
	}
	for n, ids := range etprocs {
		if len(ids) == 0 {
			continue
		}
		fmt.Fprintf(w, "node %s:\n", arch.Nodes[n].Name)
		for _, id := range ids {
			pr := a.Proc[id]
			fmt.Fprintf(w, "  %-24s O=%6d J=%6d W=%6d R=%6d\n",
				app.Procs[id].Name, pr.O, pr.J, pr.W, pr.R)
		}
	}
}
