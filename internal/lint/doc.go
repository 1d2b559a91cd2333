// Package lint is the repo's custom static-analysis pass: a
// dependency-free analyzer framework (go/parser + go/ast + go/types,
// with a module-aware importer so the zero-dependency go.mod stays
// zero-dependency) plus the suite of repo-specific analyzers that
// enforce the determinism and concurrency invariants the dynamic
// harnesses (differential replay, delta fuzzing, race tests) can only
// catch after the fact:
//
//   - detrand: all randomness flows through an injected *rand.Rand;
//     the global math/rand functions are forbidden.
//   - maporder: a range over a map may not feed order-sensitive sinks
//     (append, writers, hashes/encoders) without a deterministic order.
//   - wallclock: no wall-clock reads (time.Now, time.Since, tickers,
//     timers) — in the deterministic layers they are forbidden
//     outright, elsewhere they must carry an //mcs:allow annotation.
//   - poolonly: no bare go statements outside internal/engine — all
//     fan-out rides engine.Map/EvaluateAll; legitimate detached
//     goroutines are annotated, never silently exempted.
//   - ctxloop: counter- or condition-driven work loops in exported
//     entry points that take a context must observe the context.
//   - detimport: a deterministic layer imports only other layers and
//     the standard library, and reads no process environment
//     (os.Getenv, LookupEnv, Environ).
//   - ctxflow: a function holding a context passes it on, never a
//     fresh context.Background/TODO, to context-aware callees.
//   - sharedcapture: closures run concurrently by the engine batches
//     or go statements must not write shared captured variables or
//     capture loop variables shared across batch items.
//
// detrand, wallclock, maporder and detimport read one sink table per
// package (sinks.go), scanned once per Run. Because the layers are
// closed under imports, a chain from a layer to a nondeterministic
// sink either crosses an import detimport reports or ends at a sink
// reported in the package that holds it.
//
// Findings at legitimate sites are suppressed with a directive on the
// offending line or on its own line immediately above:
//
//	//mcs:allow <analyzer> <reason>
//
// The reason is mandatory, unknown analyzer names and directives that
// suppress nothing are themselves findings, and suppression is not
// honoured inside the deterministic layers (core, rta, tsched, ttp,
// can, gateway, opt, sa, hopa, dse, delta, solve, model, engine, sim,
// obs) for the analyzers that guard bit-identity (detrand, wallclock,
// detimport) — those layers must be fixed, not annotated.
//
// The cmd/mcs-lint driver loads packages, runs the suite, and reports
// file:line diagnostics; scripts/lint.sh bundles it with gofmt and go
// vet as the repo's one static gate.
package lint
