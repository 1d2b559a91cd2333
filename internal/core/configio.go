package core

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/model"
	"repro/internal/ttp"
)

// configFile is the on-disk form of a Config: the priority vectors'
// present entries and the pin maps become slices sorted by ID, so the
// output is stable and diff-friendly.
type configFile struct {
	Round        ttp.Round      `json:"round"`
	ProcPriority []procPrioJSON `json:"procPriority"`
	MsgPriority  []msgPrioJSON  `json:"msgPriority"`
	PinnedProcs  []procPinJSON  `json:"pinnedProcs,omitempty"`
	PinnedEdges  []edgePinJSON  `json:"pinnedEdges,omitempty"`
}

type procPrioJSON struct {
	Proc     model.ProcID `json:"proc"`
	Priority int          `json:"priority"`
}

type msgPrioJSON struct {
	Edge     model.EdgeID `json:"edge"`
	Priority int          `json:"priority"`
}

type procPinJSON struct {
	Proc   model.ProcID `json:"proc"`
	Offset model.Time   `json:"offset"`
}

type edgePinJSON struct {
	Edge   model.EdgeID `json:"edge"`
	Offset model.Time   `json:"offset"`
}

// Save writes the configuration as stable, indented JSON. Priorities
// are written in ID order, skipping NoPriority entries.
func (c *Config) Save(w io.Writer) error {
	f := configFile{Round: c.Round}
	for p, prio := range c.ProcPriority {
		if prio != NoPriority {
			f.ProcPriority = append(f.ProcPriority, procPrioJSON{model.ProcID(p), prio})
		}
	}
	for e, prio := range c.MsgPriority {
		if prio != NoPriority {
			f.MsgPriority = append(f.MsgPriority, msgPrioJSON{model.EdgeID(e), prio})
		}
	}
	for p, off := range c.PinnedProc {
		f.PinnedProcs = append(f.PinnedProcs, procPinJSON{p, off})
	}
	sort.Slice(f.PinnedProcs, func(i, j int) bool { return f.PinnedProcs[i].Proc < f.PinnedProcs[j].Proc })
	for e, off := range c.PinnedEdge {
		f.PinnedEdges = append(f.PinnedEdges, edgePinJSON{e, off})
	}
	sort.Slice(f.PinnedEdges, func(i, j int) bool { return f.PinnedEdges[i].Edge < f.PinnedEdges[j].Edge })
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&f); err != nil {
		return fmt.Errorf("core: encoding config: %w", err)
	}
	return nil
}

// LoadConfig parses a configuration written by Save and validates it
// against the application and architecture. A priority entry whose ID
// names no process or edge of app, repeats an earlier entry's ID or
// holds NoPriority is an error, and so is whatever Validate refuses.
func LoadConfig(r io.Reader, app *model.Application, arch *model.Architecture) (*Config, error) {
	var f configFile
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("core: decoding config: %w", err)
	}
	c := &Config{Round: f.Round}
	c.ProcPriority, c.MsgPriority = NewPriorities(app)
	for i, p := range f.ProcPriority {
		if err := setPriority(c.ProcPriority, int(p.Proc), p.Priority); err != nil {
			return nil, fmt.Errorf("core: procPriority[%d] (process %d): %w", i, p.Proc, err)
		}
	}
	for i, m := range f.MsgPriority {
		if err := setPriority(c.MsgPriority, int(m.Edge), m.Priority); err != nil {
			return nil, fmt.Errorf("core: msgPriority[%d] (edge %d): %w", i, m.Edge, err)
		}
	}
	if len(f.PinnedProcs) > 0 {
		c.PinnedProc = make(map[model.ProcID]model.Time, len(f.PinnedProcs))
		for _, p := range f.PinnedProcs {
			c.PinnedProc[p.Proc] = p.Offset
		}
	}
	if len(f.PinnedEdges) > 0 {
		c.PinnedEdge = make(map[model.EdgeID]model.Time, len(f.PinnedEdges))
		for _, e := range f.PinnedEdges {
			c.PinnedEdge[e.Edge] = e.Offset
		}
	}
	if err := c.Validate(app, arch); err != nil {
		return nil, err
	}
	return c, nil
}

// setPriority stores one decoded priority entry in its vector.
func setPriority(prio []int, id, p int) error {
	switch {
	case id < 0 || id >= len(prio):
		return fmt.Errorf("ID out of range [0, %d)", len(prio))
	case p == NoPriority:
		return fmt.Errorf("priority %d is NoPriority", p)
	case prio[id] != NoPriority:
		return fmt.Errorf("duplicate ID")
	}
	prio[id] = p
	return nil
}
