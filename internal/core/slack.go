package core

import (
	"repro/internal/model"
)

// MoveInterval is the [ASAP, ALAP] window within which a TT activity can
// be shifted by the OptimizeResources hill climber (§5.1). ASAP is the
// activity's current start offset (the list scheduler places work as
// early as its constraints allow); ALAP adds the slack of the owning
// graph, the latest shift that cannot by itself break the end-to-end
// deadline. Moves are re-analyzed anyway, so the interval is a search
// window, not a guarantee.
type MoveInterval struct {
	ASAP, ALAP model.Time
}

// ProcMoveInterval returns the move window of a TT process, or ok=false
// for ET processes and processes missing from the schedule.
func (a *Analysis) ProcMoveInterval(app *model.Application, p model.ProcID) (MoveInterval, bool) {
	if a.Schedule.ProcStart[p] == nil {
		return MoveInterval{}, false
	}
	o := a.Proc[p].O
	return MoveInterval{ASAP: o, ALAP: o + a.graphSlack(app, app.Procs[p].Graph)}, true
}

// EdgeMoveInterval returns the move window of a TTP message (its slot
// occurrence start can be delayed up to the graph slack).
func (a *Analysis) EdgeMoveInterval(app *model.Application, e model.EdgeID) (MoveInterval, bool) {
	er := &a.Edge[e]
	if !er.Route.UsesTTP() {
		return MoveInterval{}, false
	}
	start := er.TTPArrival // delivery offset; the slot start lies one slot earlier
	return MoveInterval{ASAP: start, ALAP: start + a.graphSlack(app, app.Edges[e].Graph)}, true
}

// graphSlack is D_G - R_G, clamped at zero for overloaded graphs.
func (a *Analysis) graphSlack(app *model.Application, g int) model.Time {
	slack := app.Graphs[g].Deadline - a.GraphResp[g]
	if slack < 0 {
		return 0
	}
	return slack
}
