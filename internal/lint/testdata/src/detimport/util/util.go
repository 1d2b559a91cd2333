// Package util is the soft-layer half of the cross-package detimport
// fixture: its wall-clock reads are annotated for local use.
package util

import "time"

// Stamp is a reporting-only timestamp for this package's own use.
func Stamp() int64 {
	return time.Now().UnixNano() //mcs:allow wallclock reporting-only timestamp for log lines
}

// Clock is a package-level function variable over an annotated read.
var Clock = func() int64 {
	return time.Now().UnixNano() //mcs:allow wallclock reporting-only clock for log lines
}
