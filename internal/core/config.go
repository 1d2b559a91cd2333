package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/model"
	"repro/internal/tsched"
	"repro/internal/ttp"
)

// NoPriority is the entry of a priority vector for a process or message
// that has no priority: a TT process, or a message that does not travel
// on the CAN bus.
const NoPriority = math.MinInt

// Config is the synthesized system configuration psi = <phi, beta, pi>.
type Config struct {
	// Round is beta: the TDMA slot sequence and lengths. Normalize pads
	// it so the round period divides the hyper-period.
	Round ttp.Round
	// ProcPriority is pi for the ET processes, one entry per process
	// indexed by ProcID: non-negative, unique per ET node (globally
	// unique values are simplest), smaller = higher priority. TT
	// processes hold NoPriority.
	ProcPriority []int
	// MsgPriority is pi for the messages travelling on the CAN bus, one
	// entry per edge indexed by EdgeID: non-negative, unique across the
	// bus, smaller = higher priority (CAN identifier order). Every other
	// edge holds NoPriority.
	MsgPriority []int
	// PinnedProc and PinnedEdge are the phi adjustments explored by
	// OptimizeResources: "not before" in-period offsets for TT processes
	// and TTP messages.
	PinnedProc map[model.ProcID]model.Time
	PinnedEdge map[model.EdgeID]model.Time
}

// NewPriorities returns the priority vectors of app, one entry per
// process and one per edge, every entry NoPriority. The two share one
// backing array.
func NewPriorities(app *model.Application) (proc, msg []int) {
	np := len(app.Procs)
	all := slices.Repeat([]int{NoPriority}, np+len(app.Edges))
	return all[:np:np], all[np:]
}

// Clone returns a deep copy; the optimization heuristics mutate copies.
// The copy's two priority vectors share one backing array.
func (c *Config) Clone() *Config {
	np := len(c.ProcPriority)
	all := make([]int, np+len(c.MsgPriority))
	copy(all, c.ProcPriority)
	copy(all[np:], c.MsgPriority)
	return &Config{
		Round:        c.Round.Clone(),
		ProcPriority: all[:np:np],
		MsgPriority:  all[np:],
		PinnedProc:   clonePins(c.PinnedProc),
		PinnedEdge:   clonePins(c.PinnedEdge),
	}
}

// clonePins copies a pin map; nil stays nil.
func clonePins[K comparable](m map[K]model.Time) map[K]model.Time {
	if m == nil {
		return nil
	}
	d := make(map[K]model.Time, len(m))
	for k, v := range m {
		d[k] = v
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
	}
	cfg.ProcPriority, cfg.MsgPriority = NewPriorities(app)
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
// per owner, one priority vector entry per process and per edge, every
// ET process and CAN message has a non-negative priority, priorities
// unique per resource.
func (c *Config) Validate(app *model.Application, arch *model.Architecture) error {
	var owners [16]model.NodeID
	if err := c.Round.Validate(arch.AppendSlotOwners(owners[:0])); err != nil {
		return err
	}
	if len(c.ProcPriority) != len(app.Procs) || len(c.MsgPriority) != len(app.Edges) {
		return fmt.Errorf("core: %d process and %d message priorities for %d processes and %d edges",
			len(c.ProcPriority), len(c.MsgPriority), len(app.Procs), len(app.Edges))
	}
	// Every earlier claim passed the uniqueness check, so at most one of
	// them shares the resource and priority of the next.
	claims := make([]prioClaim, 0, max(len(c.ProcPriority), len(c.MsgPriority)))
	for _, p := range app.Procs {
		if arch.Kind(p.Node) != model.EventTriggered {
			continue
		}
		prio := c.ProcPriority[p.ID]
		if prio == NoPriority {
			return fmt.Errorf("core: ET process %q has no priority", p.Name)
		}
		if prio < 0 {
			return fmt.Errorf("core: ET process %q has negative priority %d", p.Name, prio)
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
		prio := c.MsgPriority[e.ID]
		if prio == NoPriority {
			return fmt.Errorf("core: CAN message %q has no priority", e.Name)
		}
		if prio < 0 {
			return fmt.Errorf("core: CAN message %q has negative priority %d", e.Name, prio)
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
