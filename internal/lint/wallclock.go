package lint

import "fmt"

// wallclockFuncs are the time-package entry points that read the wall
// clock or schedule on it. Any of them inside an analysis makes results
// depend on machine speed and scheduling, which breaks the replay and
// cache-hit-equals-cold-run contracts.
var wallclockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Tick": true, "NewTicker": true, "NewTimer": true,
	"After": true, "AfterFunc": true, "Sleep": true,
}

// Wallclock forbids wall-clock reads. In the deterministic layers the
// finding cannot be suppressed — timing must be threaded in by the
// caller; elsewhere (reporting, servers, CLIs) legitimate sites carry
// an //mcs:allow wallclock annotation stating why timing never feeds
// results.
var Wallclock = &Analyzer{
	Name: "wallclock",
	Doc: "forbids wall-clock reads (time.Now, time.Since, tickers, timers); hard in the " +
		"deterministic layers, annotation-gated everywhere else",
	Hard: inDetLayer,
	Run: func(p *Pass) {
		reportSinks(p, func(s sink) string {
			if inDetLayer(p.Pkg.Path) {
				return fmt.Sprintf("%s in deterministic layer %s — wall-clock reads break bit-identical replay; thread timing in from the caller", s.desc, p.Pkg.Path)
			}
			return fmt.Sprintf("wall-clock call %s — keep timing confined to reporting and annotate with //mcs:allow wallclock <reason>", s.desc)
		})
	},
}
