// Package client is a soft package that injects observers reading an
// allowed clock into the layer fixture solve, both as a named type and
// through the ObserverFunc adapter. Injected values are the caller's
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

// Named injects the named observer type.
func Named(n int) int {
	return solve.Run(n, &stamper{})
}

// Adapted injects a method value through the adapter.
func Adapted(n int) int {
	s := &stamper{}
	return solve.Run(n, solve.ObserverFunc(s.OnProgress))
}
