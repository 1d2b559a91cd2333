package ttp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/model"
)

// fig4Round is the paper's Figure 4(a) round: S_G (node 2) then S_1
// (node 0), 20 ticks each.
func fig4Round() Round {
	return Round{Slots: []Slot{{Node: 2, Length: 20}, {Node: 0, Length: 20}}}
}

func TestRoundBasics(t *testing.T) {
	r := fig4Round()
	if r.Period() != 40 {
		t.Errorf("Period = %d, want 40", r.Period())
	}
	if r.SlotOffset(0) != 0 || r.SlotOffset(1) != 20 {
		t.Errorf("SlotOffset = %d,%d want 0,20", r.SlotOffset(0), r.SlotOffset(1))
	}
	if r.SlotIndexOf(0) != 1 || r.SlotIndexOf(2) != 0 || r.SlotIndexOf(9) != -1 {
		t.Error("SlotIndexOf mismatch")
	}
	if r.Capacity(0, 1) != 20 || r.Capacity(0, 4) != 5 || r.Capacity(0, 0) != 0 {
		t.Error("Capacity mismatch")
	}
}

func TestOccurrenceStartAndNext(t *testing.T) {
	r := fig4Round()
	// Slot 1 (S_1) occurrences: 20, 60, 100, ...
	if got := r.OccurrenceStart(1, 0); got != 20 {
		t.Errorf("OccurrenceStart(1,0) = %d, want 20", got)
	}
	if got := r.OccurrenceStart(1, 2); got != 100 {
		t.Errorf("OccurrenceStart(1,2) = %d, want 100", got)
	}
	cases := []struct {
		t    model.Time
		want model.Time
	}{
		{0, 20}, {20, 20}, {21, 60}, {30, 60}, {60, 60}, {61, 100},
	}
	for _, c := range cases {
		if got := r.NextSlotStart(1, c.t); got != c.want {
			t.Errorf("NextSlotStart(1, %d) = %d, want %d", c.t, got, c.want)
		}
	}
	// The paper's §4.2 trace: m3 enters OutTTP at 160; the gateway slot
	// S_G (index 0) starts exactly at 160.
	if got := r.NextSlotStart(0, 160); got != 160 {
		t.Errorf("NextSlotStart(S_G, 160) = %d, want 160", got)
	}
}

func TestValidateRound(t *testing.T) {
	owners := []model.NodeID{0, 2}
	if err := fig4Round().Validate(owners); err != nil {
		t.Errorf("valid round rejected: %v", err)
	}
	bad := Round{Slots: []Slot{{Node: 0, Length: 20}}}
	if err := bad.Validate(owners); err == nil {
		t.Error("accepted round with missing slot")
	}
	bad = Round{Slots: []Slot{{Node: 0, Length: 20}, {Node: 0, Length: 20}}}
	if err := bad.Validate(owners); err == nil {
		t.Error("accepted duplicate slot owner")
	}
	bad = Round{Slots: []Slot{{Node: 0, Length: 0}, {Node: 2, Length: 20}}}
	if err := bad.Validate(owners); err == nil {
		t.Error("accepted zero-length slot")
	}
	bad = Round{Slots: []Slot{{Node: 0, Length: 20}, {Node: 7, Length: 20}}}
	if err := bad.Validate(owners); err == nil {
		t.Error("accepted foreign slot owner")
	}
}

func TestPadToDivide(t *testing.T) {
	r := fig4Round() // period 40
	if err := r.PadToDivide(240, model.Divisors(240)); err != nil {
		t.Fatalf("PadToDivide: %v", err)
	}
	if r.Padding != 0 || r.Period() != 40 {
		t.Errorf("240 %% 40 == 0, padding should stay 0, got %d", r.Padding)
	}
	r = Round{Slots: []Slot{{Node: 0, Length: 17}, {Node: 1, Length: 20}}} // 37
	if err := r.PadToDivide(240, model.Divisors(240)); err != nil {
		t.Fatalf("PadToDivide: %v", err)
	}
	if 240%r.Period() != 0 || r.Period() < 37 {
		t.Errorf("period %d does not divide 240 or shrank", r.Period())
	}
	if r.Period() != 40 { // smallest divisor of 240 that is >= 37
		t.Errorf("period = %d, want 40", r.Period())
	}
	r = Round{Slots: []Slot{{Node: 0, Length: 500}}}
	if err := r.PadToDivide(240, model.Divisors(240)); err == nil {
		t.Error("accepted round longer than the cycle")
	}
	r = Round{Slots: []Slot{{Node: 0, Length: 17}}}
	if err := r.PadToDivide(240, model.Divisors(120)); err == nil {
		t.Error("accepted the divisors of another cycle")
	}
}

func TestPropertyPadToDivide(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cycle := model.Time(60 * (1 + rng.Intn(50)))
		r := Round{Slots: []Slot{
			{Node: 0, Length: 1 + model.Time(rng.Intn(20))},
			{Node: 1, Length: 1 + model.Time(rng.Intn(20))},
		}}
		if err := r.PadToDivide(cycle, model.Divisors(cycle)); err != nil {
			return r.Period() > cycle+r.Padding // only legitimate failure: too long
		}
		return cycle%r.Period() == 0 && r.Padding >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMEDLValidate(t *testing.T) {
	r := fig4Round()
	m := &MEDL{Round: r, Cycle: 240}
	add := func(e model.EdgeID, inst, slot, round, bytes int) {
		start := r.OccurrenceStart(slot, round)
		m.Entries = append(m.Entries, MEDLEntry{
			Edge: e, Instance: inst, Slot: slot, Round: round, Bytes: bytes,
			Start: start, End: start + r.Slots[slot].Length,
		})
	}
	add(0, 0, 1, 1, 8) // m1 in S1 of round 2 (index 1): the Fig 3 trace
	add(1, 0, 1, 1, 8)
	if err := m.Validate(1); err != nil {
		t.Fatalf("valid MEDL rejected: %v", err)
	}
	// Capacity overflow: 20-byte capacity slot with 24 bytes.
	add(2, 0, 1, 1, 8)
	if err := m.Validate(1); err == nil {
		t.Error("accepted slot overflow")
	}
	m.Entries = m.Entries[:2]

	// Bad window.
	m.Entries = append(m.Entries, MEDLEntry{Edge: 3, Slot: 1, Round: 0, Bytes: 4, Start: 21, End: 40})
	if err := m.Validate(1); err == nil {
		t.Error("accepted entry with wrong window")
	}
	m.Entries = m.Entries[:2]

	// Round out of range.
	add(4, 0, 1, 6, 4)
	if err := m.Validate(1); err == nil {
		t.Error("accepted entry beyond the cycle")
	}

	// Cycle not multiple of round.
	m2 := &MEDL{Round: r, Cycle: 250}
	if err := m2.Validate(1); err == nil {
		t.Error("accepted cycle that is not a multiple of the round")
	}
}

func TestRoundStringAndClone(t *testing.T) {
	r := fig4Round()
	r.Padding = 8
	s := r.String()
	if s == "" || s[0] != '[' {
		t.Errorf("String = %q", s)
	}
	c := r.Clone()
	c.Slots[0].Length = 99
	if r.Slots[0].Length == 99 {
		t.Error("Clone shares slot storage")
	}
}

func TestNewRound(t *testing.T) {
	r := NewRound([]model.NodeID{3, 1}, func(n model.NodeID) model.Time { return model.Time(10 * (int(n) + 1)) })
	if len(r.Slots) != 2 || r.Slots[0].Node != 3 || r.Slots[0].Length != 40 || r.Slots[1].Length != 20 {
		t.Errorf("NewRound = %+v", r)
	}
}
