// Package ttp models the time-triggered protocol bus of the TTC: TDMA
// rounds made of per-node slots, slot timing arithmetic, and the message
// descriptor list (MEDL) that statically schedules frames onto slot
// occurrences.
//
// The bus access scheme follows §2.2 of the paper: every slot owner (each
// TT node plus the gateway) transmits in exactly one slot S_i per TDMA
// round; a round repeats periodically and several rounds form a cycle.
// This implementation pads the round so that the round period divides the
// application hyper-period, which makes the cycle exactly one hyper-period
// long and keeps static schedules strictly periodic.
package ttp

import (
	"fmt"
	"slices"

	"repro/internal/model"
)

// Slot is one TDMA slot: the owning node and the slot length in ticks.
// The byte capacity of the slot is Length / TickPerByte of the bus.
type Slot struct {
	Node   model.NodeID `json:"node"`
	Length model.Time   `json:"length"`
}

// Round is an ordered sequence of slots plus optional idle padding. The
// round period is the sum of the slot lengths and the padding.
type Round struct {
	Slots   []Slot     `json:"slots"`
	Padding model.Time `json:"padding"`
}

// NewRound builds a round with the given slot order and lengths.
func NewRound(order []model.NodeID, length func(model.NodeID) model.Time) Round {
	r := Round{Slots: make([]Slot, len(order))}
	for i, n := range order {
		r.Slots[i] = Slot{Node: n, Length: length(n)}
	}
	return r
}

// Clone returns a deep copy of the round.
func (r Round) Clone() Round {
	c := r
	c.Slots = append([]Slot(nil), r.Slots...)
	return c
}

// Period returns T_TDMA, the duration of one TDMA round.
func (r Round) Period() model.Time {
	var p model.Time
	for _, s := range r.Slots {
		p += s.Length
	}
	return p + r.Padding
}

// SlotOffset returns the start offset of slot i within the round.
func (r Round) SlotOffset(i int) model.Time {
	var off model.Time
	for j := 0; j < i; j++ {
		off += r.Slots[j].Length
	}
	return off
}

// SlotIndexOf returns the index of the slot owned by node, or -1.
func (r Round) SlotIndexOf(node model.NodeID) int {
	for i, s := range r.Slots {
		if s.Node == node {
			return i
		}
	}
	return -1
}

// Capacity returns the byte capacity of slot i given the bus speed.
func (r Round) Capacity(i int, tickPerByte model.Time) int {
	if tickPerByte <= 0 {
		return 0
	}
	return int(r.Slots[i].Length / tickPerByte)
}

// OccurrenceStart returns the absolute start time of the k-th occurrence
// (k >= 0) of slot i, assuming rounds start at time 0.
func (r Round) OccurrenceStart(i, k int) model.Time {
	return model.Time(k)*r.Period() + r.SlotOffset(i)
}

// NextOccurrence returns the smallest k such that the k-th occurrence of
// slot i starts at or after t.
func (r Round) NextOccurrence(i int, t model.Time) int {
	off := r.SlotOffset(i)
	p := r.Period()
	if t <= off {
		return 0
	}
	k := (t - off + p - 1) / p
	return int(k)
}

// NextSlotStart returns the earliest start time >= t of slot i.
func (r Round) NextSlotStart(i int, t model.Time) model.Time {
	return r.OccurrenceStart(i, r.NextOccurrence(i, t))
}

// Validate checks that the round has exactly one slot per owner, in any
// order, with positive lengths and non-negative padding.
func (r Round) Validate(owners []model.NodeID) error {
	if len(r.Slots) != len(owners) {
		return fmt.Errorf("ttp: round has %d slots, want one per owner (%d)", len(r.Slots), len(owners))
	}
	for i, s := range r.Slots {
		if s.Length <= 0 {
			return fmt.Errorf("ttp: slot of node %d has non-positive length %d", s.Node, s.Length)
		}
		if r.SlotIndexOf(s.Node) < i {
			return fmt.Errorf("ttp: node %d owns more than one slot", s.Node)
		}
		if !slices.Contains(owners, s.Node) {
			return fmt.Errorf("ttp: node %d is not a slot owner", s.Node)
		}
	}
	if r.Padding < 0 {
		return fmt.Errorf("ttp: negative padding %d", r.Padding)
	}
	return nil
}

// PadToDivide adjusts the round padding so that the round period divides
// cycle (the application hyper-period). The smallest divisor of cycle
// that is >= the unpadded slot sum is chosen. divisors must be the
// ascending divisors of cycle, as model.Divisors returns them
// (Application.HyperDivisors serves the hyper-period's from a cache). An
// error is returned when the slot sum exceeds the cycle.
func (r *Round) PadToDivide(cycle model.Time, divisors []model.Time) error {
	r.Padding = 0
	base := r.Period()
	if base > cycle {
		return fmt.Errorf("ttp: round length %d exceeds cycle %d", base, cycle)
	}
	if cycle%base == 0 {
		return nil
	}
	if len(divisors) == 0 || divisors[len(divisors)-1] != cycle {
		return fmt.Errorf("ttp: divisor list does not end at cycle %d", cycle)
	}
	// base <= cycle, the last divisor, so the search always finds one.
	i, _ := slices.BinarySearch(divisors, base)
	r.Padding = divisors[i] - base
	return nil
}

// String renders the round like "[N1:20 NG:20 pad:8]".
func (r Round) String() string {
	s := "["
	for i, sl := range r.Slots {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("n%d:%d", sl.Node, sl.Length)
	}
	if r.Padding > 0 {
		s += fmt.Sprintf(" pad:%d", r.Padding)
	}
	return s + "]"
}
