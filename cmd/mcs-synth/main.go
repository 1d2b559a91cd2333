// Command mcs-synth synthesizes a system configuration for a two-cluster
// application: the TDMA slot sequence and sizes, the ET process and CAN
// message priorities, and the TT schedule tables, together with the full
// schedulability analysis report (response times, degree of
// schedulability, gateway buffer bounds).
//
// The synthesis runs on a repro.Solver session: Ctrl-C cancels the
// search gracefully and still prints (and saves) the best configuration
// found so far, and -v streams live progress events while the
// optimizer runs.
//
// Examples:
//
//	mcs-gen -nodes 2 -o app.json
//	mcs-synth -in app.json -strategy or
//	mcs-synth -cruise -strategy os -v
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro"
	"repro/internal/cli"
)

const tool = "mcs-synth"

// strategyNames lists the accepted -strategy values from the same
// listing GET /v1/strategies serves, so the usage screen can never
// drift from repro.ParseStrategy or the wire surface.
func strategyNames() []string {
	var names []string
	for _, s := range repro.ListStrategies().Strategies {
		names = append(names, s.Name)
	}
	return names
}

func main() {
	var (
		in         = flag.String("in", "", "input system JSON (from mcs-gen)")
		cruiseFl   = flag.Bool("cruise", false, "use the built-in cruise-controller case study")
		strategy   = flag.String("strategy", "or", "synthesis strategy: "+strings.Join(strategyNames(), ", "))
		saIters    = flag.Int("sa-iterations", 300, "iteration budget for sas/sar")
		saRestarts = flag.Int("sa-restarts", 1, "independent annealing chains for sas/sar (best-ever wins)")
		seed       = flag.Int64("seed", 1, "seed for the randomized strategies")
		workers    = flag.Int("workers", runtime.NumCPU(), "parallel evaluation workers (1 = serial; results are identical)")
		useDelta   = flag.Bool("delta", true, "use the incremental delta-evaluation engine (results are identical either way)")
		verbose    = flag.Bool("v", false, "stream live progress and print per-process response times")
		tables     = flag.Bool("tables", false, "print the synthesized schedule tables and the MEDL")
		saveCfg    = flag.String("save-config", "", "write the synthesized configuration (round, priorities, pins) as JSON")
	)
	// -h appends the per-strategy descriptions below the flag listing.
	defaultUsage := flag.Usage
	flag.Usage = func() {
		defaultUsage()
		fmt.Fprintf(flag.CommandLine.Output(), "\nStrategies (also listed by GET /v1/strategies on mcs-serve):\n")
		for _, s := range repro.ListStrategies().Strategies {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-4s %s\n", s.Name, s.Description)
		}
	}
	flag.Parse()

	sys, err := cli.LoadSystem(*in, *cruiseFl)
	if err != nil {
		cli.Fatal(tool, err)
	}
	strat, err := repro.ParseStrategy(*strategy)
	if err != nil {
		cli.Fatal(tool, err)
	}

	opts := []repro.Option{
		repro.WithStrategy(strat),
		repro.WithSAIterations(*saIters),
		repro.WithSARestarts(*saRestarts),
		repro.WithSeed(*seed),
		repro.WithWorkers(*workers),
		repro.WithDelta(*useDelta),
	}
	if *verbose {
		opts = append(opts, repro.WithObserver(func(p repro.Progress) {
			fmt.Fprintf(os.Stderr, "progress %v/%s step=%d evals=%d delta=%d s_total=%d schedulable=%v\n",
				p.Strategy, p.Phase, p.Step, p.Evaluations, p.BestDelta, p.BestBuffers, p.Schedulable)
		}))
	}
	solver, err := repro.NewSolver(sys.Application, sys.Architecture, opts...)
	if err != nil {
		cli.Fatal(tool, err)
	}

	// Ctrl-C cancels the search within one evaluation granule; the
	// best-so-far configuration is still reported below.
	ctx, stop := cli.Context()
	defer stop()

	res, err := solver.Synthesize(ctx)
	interrupted := cli.Interrupted(tool, err, res != nil)
	report(sys, strat, res, *verbose)
	if *saveCfg != "" {
		f, err := os.Create(*saveCfg)
		if err != nil {
			cli.Fatal(tool, err)
		}
		if err := res.Config.Save(f); err != nil {
			cli.Fatal(tool, err)
		}
		if err := f.Close(); err != nil {
			cli.Fatal(tool, err)
		}
		fmt.Printf("configuration written to %s\n", *saveCfg)
	}
	if *tables {
		fmt.Println()
		res.Analysis.WriteScheduleTables(os.Stdout, sys.Application, sys.Architecture)
	}
	if interrupted {
		cli.Exit()
	}
	if !res.Analysis.Schedulable {
		os.Exit(2)
	}
}

func report(sys *repro.System, strat repro.Strategy, res *repro.SynthesisResult, verbose bool) {
	app := sys.Application
	a := res.Analysis
	fmt.Printf("application %q on %q, strategy %v (%d analyses)\n",
		app.Name, sys.Architecture.Name, strat, res.Evaluations)
	fmt.Printf("TDMA round: %v (period %d)\n", res.Config.Round, res.Config.Round.Period())
	fmt.Printf("schedulable: %v   delta_Gamma: %d   MCS iterations: %d\n",
		a.Schedulable, a.Delta, a.Iterations)
	fmt.Println("graph responses:")
	for g := range app.Graphs {
		gr := &app.Graphs[g]
		mark := "meets"
		if a.GraphResp[g] > gr.Deadline {
			mark = "MISSES"
		}
		fmt.Printf("  %-12s R=%6d  D=%6d  (%s)\n", gr.Name, a.GraphResp[g], gr.Deadline, mark)
	}
	fmt.Printf("buffers: OutCAN=%dB OutTTP=%dB", a.Buffers.OutCAN, a.Buffers.OutTTP)
	for n, bound := range a.Buffers.OutNode {
		if bound > 0 {
			fmt.Printf(" OutN%d=%dB", n, bound)
		}
	}
	fmt.Printf("  s_total=%dB\n", a.Buffers.Total)
	if verbose {
		fmt.Println("process completions (worst case, relative to release):")
		for _, p := range app.Procs {
			pr := &a.Proc[p.ID]
			fmt.Printf("  %-24s O=%6d J=%6d W=%6d C=%5d  done by %6d\n",
				p.Name, pr.O, pr.J, pr.W, p.WCET, pr.Completion())
		}
	}
}
