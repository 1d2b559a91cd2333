package ttp

import (
	"fmt"

	"repro/internal/model"
)

// MEDLEntry is one statically scheduled frame fragment: message instance
// k of edge Edge occupies Bytes bytes of slot Slot's occurrence Round
// within the cycle.
type MEDLEntry struct {
	Edge     model.EdgeID `json:"edge"`
	Instance int          `json:"instance"`
	Slot     int          `json:"slot"`
	Round    int          `json:"round"`
	Bytes    int          `json:"bytes"`
	// Start and End are the absolute slot occurrence boundaries within
	// the cycle; the message is available to receivers at End.
	Start model.Time `json:"start"`
	End   model.Time `json:"end"`
}

// MEDL is the message descriptor list: the static schedule of all frames
// on the TTP bus over one cycle (= one application hyper-period).
type MEDL struct {
	Round   Round       `json:"round"`
	Cycle   model.Time  `json:"cycle"`
	Entries []MEDLEntry `json:"entries"`
}

// Validate checks structural consistency: the cycle is an integral
// number of rounds, every entry's window matches its slot occurrence,
// and no slot occurrence is filled beyond its byte capacity.
func (m *MEDL) Validate(tickPerByte model.Time) error {
	p := m.Round.Period()
	if p <= 0 || m.Cycle%p != 0 {
		return fmt.Errorf("ttp: cycle %d is not a multiple of the round period %d", m.Cycle, p)
	}
	rounds := int(m.Cycle / p)
	used := make(map[[2]int]int) // (round, slot) -> bytes
	for _, e := range m.Entries {
		if e.Round < 0 || e.Round >= rounds {
			return fmt.Errorf("ttp: entry of edge %d in round %d of %d", e.Edge, e.Round, rounds)
		}
		if e.Slot < 0 || e.Slot >= len(m.Round.Slots) {
			return fmt.Errorf("ttp: entry of edge %d in unknown slot %d", e.Edge, e.Slot)
		}
		start := m.Round.OccurrenceStart(e.Slot, e.Round)
		end := start + m.Round.Slots[e.Slot].Length
		if e.Start != start || e.End != end {
			return fmt.Errorf("ttp: entry of edge %d has window [%d,%d), slot occurrence is [%d,%d)", e.Edge, e.Start, e.End, start, end)
		}
		if e.Bytes <= 0 {
			return fmt.Errorf("ttp: entry of edge %d has %d bytes", e.Edge, e.Bytes)
		}
		used[[2]int{e.Round, e.Slot}] += e.Bytes
	}
	for key, b := range used {
		if cap := m.Round.Capacity(key[1], tickPerByte); b > cap {
			return fmt.Errorf("ttp: slot %d of round %d carries %d bytes, capacity %d", key[1], key[0], b, cap)
		}
	}
	return nil
}
