// Package solve is the hard-layer half of the cross-package detreach
// fixture: its entry point reaches util's annotated wall-clock read,
// and the sink's local //mcs:allow does not shield the caller.
package solve

import "repro/internal/lint/testdata/src/detreach/util"

// Timestamped crosses a package boundary into an annotated sink.
func Timestamped() int64 { // want `exported Timestamped reaches nondeterministic time.Now — call chain: solve.Timestamped -> util.Stamp -> time.Now \(the sink's //mcs:allow justifies only its own package — it does not exempt hard-layer callers\)`
	return util.Stamp()
}

// ViaVar reaches the annotated sink through a package-level function
// variable in another package.
func ViaVar() int64 { // want `exported ViaVar reaches nondeterministic time.Now — call chain: solve.ViaVar -> util.Clock\$1 -> time.Now \(the sink's //mcs:allow justifies only its own package — it does not exempt hard-layer callers\)`
	return util.Clock()
}
