// Package client is a soft package that injects observers reading an
// allowed clock into the layer fixture solve, both as a method value
// and as a function literal. Injected values are the caller's
// responsibility: the suite reports nothing here, and nothing in solve
// beyond its import of util.
package client

import (
	"time"

	"repro/internal/lint/testdata/src/detimport/solve"
)

type stamper struct{ last time.Time }

// OnProgress records when the step was reported.
func (s *stamper) OnProgress(int) {
	s.last = time.Now() //mcs:allow wallclock progress timestamps are reporting-only
}

// Method injects a method value.
func Method(n int) int {
	s := &stamper{}
	return solve.Run(n, s.OnProgress)
}

// Literal injects a function literal.
func Literal(n int) (int, time.Time) {
	var last time.Time
	sum := solve.Run(n, func(int) {
		last = time.Now() //mcs:allow wallclock progress timestamps are reporting-only
	})
	return sum, last
}
