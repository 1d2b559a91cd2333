package lint

// randConstructors are the math/rand entry points that build an
// explicitly seeded source — the only sanctioned way randomness enters
// the system. Everything else at package level (Intn, Float64, Perm,
// Shuffle, Seed, the v2 top-level helpers, ...) draws from the global
// auto-seeded source and is forbidden.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	// math/rand/v2 explicit-seed constructors.
	"NewPCG": true, "NewChaCha8": true,
}

// Detrand enforces the centralized-seed invariant: all randomness must
// flow through an injected *rand.Rand built from an explicit seed.
// The global math/rand functions share an auto-seeded process-wide
// source, so two runs (or two worker counts interleaving differently)
// diverge — exactly what the replay and differential harnesses forbid.
var Detrand = &Analyzer{
	Name: "detrand",
	Doc: "forbids the global math/rand functions (auto-seeded, process-wide state); " +
		"randomness must flow through an injected *rand.Rand built via rand.New(rand.NewSource(seed))",
	Hard: inDetLayer,
	Run: func(p *Pass) {
		reportSinks(p, func(s sink) string {
			return "global " + s.desc + " uses the shared auto-seeded source — inject a *rand.Rand seeded from the centralized seed instead"
		})
	},
}
