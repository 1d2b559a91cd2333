// Command mcs-dse explores the design space of a two-cluster system
// and reports a Pareto front over three minimized objectives — the
// degree of schedulability delta_Gamma, the total buffer need s_total,
// and the reserved TTP bus bandwidth of the TDMA round — instead of
// the single configuration mcs-synth synthesizes.
//
// The exploration warm-starts from the paper's OS/OR heuristics (so
// the front always weakly dominates their single-objective results),
// then evolves an NSGA-II-style population over the §5.1 design
// transformations. For a fixed -seed the front is bit-identical for
// every -workers value. Ctrl-C cancels the search gracefully and still
// writes the best-so-far front (exit 130).
//
// Examples:
//
//	mcs-gen -nodes 4 -seed 7 -o app.json
//	mcs-dse -in app.json -out front.csv
//	mcs-dse -cruise -generations 20 -json front.json -v
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"repro"
	"repro/internal/cli"
)

const tool = "mcs-dse"

func main() {
	var (
		in          = flag.String("in", "", "input system JSON (from mcs-gen)")
		cruiseFl    = flag.Bool("cruise", false, "use the built-in cruise-controller case study")
		seed        = flag.Int64("seed", 1, "exploration seed (the front is identical for every -workers value)")
		workers     = flag.Int("workers", runtime.NumCPU(), "parallel evaluation workers (1 = serial; results are identical)")
		useDelta    = flag.Bool("delta", true, "use the incremental delta-evaluation engine (the front is identical either way)")
		population  = flag.Int("population", 0, "NSGA-II population size (0 = default 16)")
		generations = flag.Int("generations", 0, "exploration generations (0 = default 12)")
		moveBudget  = flag.Int("move-budget", 0, "design transformations sampled per mutation (0 = default 16)")
		maxMut      = flag.Int("max-mutations", 0, "transformations stacked per offspring (0 = default 3)")
		archiveCap  = flag.Int("archive-cap", 0, "Pareto archive bound (0 = default 256)")
		noWarm      = flag.Bool("no-warm-start", false, "skip the OS/OR warm start (pure from-scratch exploration)")
		outCSV      = flag.String("out", "", "write the front as CSV (default stdout table only)")
		outJSON     = flag.String("json", "", "write the front as JSON, configurations included")
		verbose     = flag.Bool("v", false, "stream live progress events")
	)
	flag.Parse()

	sys, err := cli.LoadSystem(*in, *cruiseFl)
	if err != nil {
		cli.Fatal(tool, err)
	}
	opts := []repro.Option{repro.WithSeed(*seed), repro.WithWorkers(*workers), repro.WithDelta(*useDelta)}
	if *verbose {
		opts = append(opts, repro.WithObserver(func(p repro.Progress) {
			if p.Phase == "dse" {
				fmt.Fprintf(os.Stderr, "progress %v/%s generation=%d evals=%d front=%d hypervolume=%.0f\n",
					p.Strategy, p.Phase, p.Step, p.Evaluations, p.FrontSize, p.Hypervolume)
				return
			}
			fmt.Fprintf(os.Stderr, "progress %v/%s step=%d evals=%d delta=%d s_total=%d schedulable=%v\n",
				p.Strategy, p.Phase, p.Step, p.Evaluations, p.BestDelta, p.BestBuffers, p.Schedulable)
		}))
	}
	solver, err := repro.NewSolver(sys.Application, sys.Architecture, opts...)
	if err != nil {
		cli.Fatal(tool, err)
	}

	dseOpts := []repro.DSEOption{
		repro.WithPopulation(*population),
		repro.WithGenerations(*generations),
		repro.WithMoveBudget(*moveBudget),
		repro.WithMaxMutations(*maxMut),
		repro.WithArchiveCap(*archiveCap),
	}
	if *noWarm {
		dseOpts = append(dseOpts, repro.WithWarmStart(false))
	}

	ctx, stop := cli.Context()
	defer stop()
	res, err := solver.Explore(ctx, dseOpts...)
	interrupted := cli.Interrupted(tool, err, res != nil && len(res.Front) > 0)

	report(sys, res)
	if err := writeFront(res, *outCSV, *outJSON); err != nil {
		cli.Fatal(tool, err)
	}
	if interrupted {
		cli.Exit()
	}
}

// report prints the front as a table: one row per point, sorted by
// (delta, s_total, bandwidth).
func report(sys *repro.System, res *repro.ExploreResult) {
	fmt.Printf("application %q on %q: %d-point Pareto front, hypervolume %.0f (%d analyses, %d generations)\n",
		sys.Application.Name, sys.Architecture.Name, len(res.Front), res.Hypervolume, res.Evaluations, res.Generations)
	fmt.Printf("%12s %10s %14s  %s\n", "delta", "s_total", "bus_bandwidth", "schedulable")
	for _, p := range res.Front {
		o := p.Objectives()
		fmt.Printf("%12d %10d %14d  %v\n", o.Delta, o.Buffers, o.Bandwidth, p.Schedulable())
	}
}

// writeFront materializes the front through a fresh archive (the
// result points are mutually non-dominated, so the archive reproduces
// them exactly) into the CSV/JSON exports.
func writeFront(res *repro.ExploreResult, csvPath, jsonPath string) error {
	if csvPath == "" && jsonPath == "" {
		return nil
	}
	a := repro.NewParetoArchive(len(res.Front))
	for _, p := range res.Front {
		a.Add(p)
	}
	write := func(path string, render func(io.Writer) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := render(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("front written to %s\n", path)
		return nil
	}
	if csvPath != "" {
		if err := write(csvPath, a.WriteCSV); err != nil {
			return err
		}
	}
	if jsonPath != "" {
		if err := write(jsonPath, a.WriteJSON); err != nil {
			return err
		}
	}
	return nil
}
