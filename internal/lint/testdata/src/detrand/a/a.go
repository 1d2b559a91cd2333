// Package a exercises the detrand analyzer: global math/rand use
// fires, injected *rand.Rand use and the explicit-seed constructors do
// not, and //mcs:allow suppresses outside the deterministic layers.
package a

import (
	"math/rand"
	v2 "math/rand/v2"
)

func Global() int {
	return rand.Intn(10) // want `global math/rand.Intn uses the shared auto-seeded source`
}

func GlobalV2() int {
	return v2.IntN(10) // want `global math/rand/v2.IntN uses the shared auto-seeded source`
}

func Injected(seed int64) int {
	r := rand.New(rand.NewSource(seed)) // constructors build the sanctioned injected source
	return r.Intn(10)
}

func Suppressed() float64 {
	//mcs:allow detrand demo jitter for a backoff example, never reaches analysis results
	return rand.Float64()
}

// salt is drawn once at package initialization, outside any function.
var salt = rand.Int63() // want `global math/rand.Int63 uses the shared auto-seeded source`
