package core

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/tsched"
	"repro/internal/ttp"
)

// Config is the synthesized system configuration psi = <phi, beta, pi>.
type Config struct {
	// Round is beta: the TDMA slot sequence and lengths. Normalize pads
	// it so the round period divides the hyper-period.
	Round ttp.Round
	// ProcPriority is pi for the ET processes: unique per ET node
	// (globally unique values are simplest), smaller = higher priority.
	ProcPriority map[model.ProcID]int
	// MsgPriority is pi for the messages travelling on the CAN bus:
	// unique across the bus, smaller = higher priority (CAN identifier
	// order).
	MsgPriority map[model.EdgeID]int
	// PinnedProc and PinnedEdge are the phi adjustments explored by
	// OptimizeResources: "not before" in-period offsets for TT processes
	// and TTP messages.
	PinnedProc map[model.ProcID]model.Time
	PinnedEdge map[model.EdgeID]model.Time
}

// Clone returns a deep copy; the optimization heuristics mutate copies.
func (c *Config) Clone() *Config {
	d := &Config{
		Round:        c.Round.Clone(),
		ProcPriority: make(map[model.ProcID]int, len(c.ProcPriority)),
		MsgPriority:  make(map[model.EdgeID]int, len(c.MsgPriority)),
	}
	for k, v := range c.ProcPriority {
		d.ProcPriority[k] = v
	}
	for k, v := range c.MsgPriority {
		d.MsgPriority[k] = v
	}
	if c.PinnedProc != nil {
		d.PinnedProc = make(map[model.ProcID]model.Time, len(c.PinnedProc))
		for k, v := range c.PinnedProc {
			d.PinnedProc[k] = v
		}
	}
	if c.PinnedEdge != nil {
		d.PinnedEdge = make(map[model.EdgeID]model.Time, len(c.PinnedEdge))
		for k, v := range c.PinnedEdge {
			d.PinnedEdge[k] = v
		}
	}
	return d
}

// DefaultConfig builds the straightforward configuration used as the SF
// baseline's starting point (§6): slots allocated to the owners in
// ascending architecture order, each with its minimal allowed length
// (the largest message the owner sends), and priorities assigned in
// creation order.
func DefaultConfig(app *model.Application, arch *model.Architecture) *Config {
	cfg := &Config{
		Round: ttp.NewRound(arch.SlotOwners(), func(n model.NodeID) model.Time {
			return tsched.MinSlotLength(app, arch, n)
		}),
		ProcPriority: make(map[model.ProcID]int),
		MsgPriority:  make(map[model.EdgeID]int),
	}
	next := 0
	for _, p := range app.Procs {
		if arch.Kind(p.Node) == model.EventTriggered {
			cfg.ProcPriority[p.ID] = next
			next++
		}
	}
	next = 0
	for _, e := range app.Edges {
		if app.RouteOf(e.ID, arch).UsesCAN() {
			cfg.MsgPriority[e.ID] = next
			next++
		}
	}
	return cfg
}

// Normalize pads the round so its period divides the hyper-period.
// Call it after every slot-length or slot-order change. On a finalized
// application it searches the cached divisor list and allocates nothing.
func (c *Config) Normalize(app *model.Application) error {
	h, divs, err := app.HyperDivisors()
	if err != nil {
		return err
	}
	return c.Round.PadToDivide(h, divs)
}

// Validate checks the configuration against the application: one slot
// per owner, every ET process and CAN message has a priority, priorities
// unique per resource.
func (c *Config) Validate(app *model.Application, arch *model.Architecture) error {
	var owners [16]model.NodeID
	if err := c.Round.Validate(arch.AppendSlotOwners(owners[:0])); err != nil {
		return err
	}
	// Every earlier claim passed the uniqueness check, so at most one of
	// them shares the resource and priority of the next.
	claims := make([]prioClaim, 0, max(len(c.ProcPriority), len(c.MsgPriority)))
	for _, p := range app.Procs {
		if arch.Kind(p.Node) != model.EventTriggered {
			continue
		}
		prio, ok := c.ProcPriority[p.ID]
		if !ok {
			return fmt.Errorf("core: ET process %q has no priority", p.Name)
		}
		if prev, dup := claimant(claims, int(p.Node), prio); dup {
			return fmt.Errorf("core: processes %q and %q share priority %d on node %d", app.Procs[prev].Name, p.Name, prio, p.Node)
		}
		claims = append(claims, prioClaim{resource: int(p.Node), prio: prio, id: int(p.ID)})
	}
	claims = claims[:0]
	for _, e := range app.Edges {
		if !app.RouteOf(e.ID, arch).UsesCAN() {
			continue
		}
		prio, ok := c.MsgPriority[e.ID]
		if !ok {
			return fmt.Errorf("core: CAN message %q has no priority", e.Name)
		}
		if prev, dup := claimant(claims, 0, prio); dup {
			return fmt.Errorf("core: messages %q and %q share CAN priority %d", app.Edges[prev].Name, e.Name, prio)
		}
		claims = append(claims, prioClaim{prio: prio, id: int(e.ID)})
	}
	return nil
}

// prioClaim is one process's or message's priority on its resource.
type prioClaim struct{ resource, prio, id int }

// claimant returns the id that already claims prio on resource.
func claimant(claims []prioClaim, resource, prio int) (int, bool) {
	for _, c := range claims {
		if c.resource == resource && c.prio == prio {
			return c.id, true
		}
	}
	return 0, false
}

// PinProc returns a copy with an additional TT process pin.
func (c *Config) PinProc(p model.ProcID, off model.Time) *Config {
	d := c.Clone()
	if d.PinnedProc == nil {
		d.PinnedProc = make(map[model.ProcID]model.Time)
	}
	d.PinnedProc[p] = off
	return d
}

// PinEdge returns a copy with an additional TTP message pin.
func (c *Config) PinEdge(e model.EdgeID, off model.Time) *Config {
	d := c.Clone()
	if d.PinnedEdge == nil {
		d.PinnedEdge = make(map[model.EdgeID]model.Time)
	}
	d.PinnedEdge[e] = off
	return d
}
