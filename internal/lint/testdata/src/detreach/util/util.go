// Package util is the soft-layer half of the cross-package detreach
// fixture: its wall-clock read is annotated for local use, which does
// not exempt hard-layer callers.
package util

import "time"

// Stamp is a reporting-only timestamp for this package's own use.
func Stamp() int64 {
	return time.Now().UnixNano() //mcs:allow wallclock reporting-only timestamp for log lines
}

// Clock is a package-level function variable: its literal is a
// call-graph node of its own, so hard-layer callers that call through
// the variable still reach the annotated sink.
var Clock = func() int64 {
	return time.Now().UnixNano() //mcs:allow wallclock reporting-only clock for log lines
}
