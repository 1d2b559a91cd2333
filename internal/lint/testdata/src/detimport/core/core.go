// Package core is a detimport fixture: a hard deterministic layer (the
// path contains the "core" segment). A chain that stays inside the
// layers ends at a sink the per-site analyzers report where it stands,
// however many frames below the exported entry point it sits.
package core

import (
	"math/rand"
	"time"
)

// Broken reaches time.Now through two intermediate helpers; wallclock
// reports the reads in helperB.
func Broken() time.Duration {
	return helperA()
}

func helperA() time.Duration { return helperB() }

func helperB() time.Duration {
	t := time.Now()      // want `time.Now in deterministic layer .*/detimport/core`
	return time.Since(t) // want `time.Since in deterministic layer .*/detimport/core`
}

type hooks struct{ eval func(int) int }

var defaultHooks = hooks{eval: jitter}

func jitter(n int) int { return n + rand.Intn(3) } // want `global math/rand.Intn uses the shared auto-seeded source`

// Dyn reaches the global math/rand through a function value stored in
// a struct field; detrand reports the draw in jitter.
func Dyn(n int) int {
	return defaultHooks.eval(n)
}

// Collect reaches an unsorted order-sensitive map range one frame
// down; maporder reports the range in flatten.
func Collect(m map[string]int) []int {
	return flatten(m)
}

func flatten(m map[string]int) []int {
	var out []int
	for _, v := range m { // want `range over map feeds append without a deterministic order`
		out = append(out, v)
	}
	return out
}

// Direct reads the clock in the entry point itself.
func Direct() int64 {
	return time.Now().UnixNano() // want `time.Now in deterministic layer .*/detimport/core`
}

// proven carries an order-independence proof: maporder is not hard in
// the layers, so the directive suppresses the range.
func proven(m map[string]int) []int {
	var out []int
	//mcs:allow maporder fixture proof: the collected values feed a commutative fold
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// ProvenCaller stays clean because proven carries its proof.
func ProvenCaller(m map[string]int) []int {
	return proven(m)
}

// Clean never reaches a sink.
func Clean(n int) int {
	return helperClean(n) * 2
}

func helperClean(n int) int { return n + 1 }
