// Package a exercises the wallclock analyzer outside the deterministic
// layers: wall-clock reads fire but may carry an annotation; pure
// Duration/Time value arithmetic never fires.
package a

import "time"

func Measure() time.Duration {
	t0 := time.Now()      // want `wall-clock call time.Now`
	return time.Since(t0) // want `wall-clock call time.Since`
}

func Ticker() *time.Ticker {
	return time.NewTicker(time.Second) // want `wall-clock call time.NewTicker`
}

func Allowed() time.Time {
	//mcs:allow wallclock report timestamping only, the value never feeds a result
	return time.Now()
}

func Pure(d time.Duration) string {
	return d.Round(time.Millisecond).String()
}

// started is read once at package initialization, outside any function.
var started = time.Now() // want `wall-clock call time.Now`
