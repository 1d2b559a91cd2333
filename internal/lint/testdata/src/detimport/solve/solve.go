// Package solve is the hard-layer half of the cross-package detimport
// fixture: it imports the soft package util, whose annotated
// wall-clock reads its entry points reach. The import itself is the
// finding; util's local //mcs:allow does not shield it.
package solve

import "repro/internal/lint/testdata/src/detimport/util" // want `deterministic layer .*/detimport/solve imports .*/detimport/util, which is outside the deterministic layers`

// Timestamped crosses a package boundary into an annotated sink.
func Timestamped() int64 {
	return util.Stamp()
}

// ViaVar reaches the annotated sink through a package-level function
// variable in another package.
func ViaVar() int64 {
	return util.Clock()
}

// Observer receives progress from Run. It returns nothing, so what an
// implementation reads cannot feed Run's result; an injected observer
// is its caller's responsibility.
type Observer func(step int)

// Run sums the first n steps, reporting each to obs.
func Run(n int, obs Observer) int {
	sum := 0
	for i := 0; i < n; i++ {
		sum += i
		obs(i)
	}
	return sum
}
