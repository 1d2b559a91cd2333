// Package repro is a complete, from-scratch reproduction of
//
//	Paul Pop, Petru Eles, Zebo Peng:
//	"Schedulability Analysis and Optimization for the Synthesis of
//	 Multi-Cluster Distributed Embedded Systems", DATE 2003.
//
// It provides schedulability analysis and configuration synthesis for
// two-cluster embedded platforms: a time-triggered cluster (static cyclic
// schedules over a TTP/TDMA bus) and an event-triggered cluster
// (fixed-priority preemptive scheduling over a CAN bus), interconnected
// by a gateway whose queues are sized by the analysis.
//
// This root package is the public facade. The typical flow creates one
// Solver session per system and runs context-first operations on it:
//
//	sys, _ := repro.Generate(repro.GenSpec{Seed: 1, TTNodes: 2, ETNodes: 2})
//	solver, _ := repro.NewSolver(sys.Application, sys.Architecture,
//	    repro.WithStrategy(repro.StrategyOptimizeResources))
//	res, _ := solver.Synthesize(ctx)
//	fmt.Println(res.Analysis.Schedulable, res.Analysis.Buffers.Total)
//
// Solver.Analyze, AnalyzeAll and Simulate cover analysis and
// simulation of a given configuration; see solver.go.
//
// For serving workloads the same operations are exposed over a
// wire-format job API: NewService fronts cached Solver sessions with a
// bounded asynchronous job queue, and NewServiceHandler (the core of
// cmd/mcs-serve) serves it over HTTP; see service.go.
//
// The heavy lifting lives in the internal packages (model, ttp, can,
// rta, gateway, tsched, core, engine, solve, service, hopa, opt, sa,
// gen, sim, cruise, expt); see docs/ARCHITECTURE.md for the package map
// and README.md for the tool guide.
package repro

import (
	"io"

	"repro/internal/core"
	"repro/internal/cruise"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/solve"
)

// Re-exported model types: see package model for the full documentation.
type (
	// Time is a duration or instant in integer ticks.
	Time = model.Time
	// Application is a set of process graphs.
	Application = model.Application
	// Architecture is the two-cluster platform.
	Architecture = model.Architecture
	// ArchSpec parameterizes NewTwoClusterArchitecture.
	ArchSpec = model.ArchSpec
	// System bundles an application with its architecture.
	System = model.System
	// ProcID identifies a process, EdgeID a dependency/message, NodeID a
	// platform node.
	ProcID = model.ProcID
	EdgeID = model.EdgeID
	NodeID = model.NodeID
	// Config is the synthesized system configuration psi = <phi, beta, pi>.
	// Its priorities pi are two vectors, ProcPriority indexed by ProcID
	// and MsgPriority indexed by EdgeID, with NoPriority for TT
	// processes and for messages that do not use the CAN bus; its pins
	// phi are maps.
	Config = core.Config
	// Analysis is the outcome of the multi-cluster schedulability
	// analysis: response times, degree of schedulability, buffer bounds.
	// Its per-process, per-edge and per-node results are slices indexed
	// by ProcID, EdgeID and NodeID.
	Analysis = core.Analysis
	// GenSpec parameterizes the random application generator.
	GenSpec = gen.Spec
	// SimOptions and SimResult drive the discrete-event simulator;
	// SimExecMode selects its execution-time model.
	SimOptions  = sim.Options
	SimResult   = sim.Result
	SimExecMode = sim.ExecMode
)

// Execution-time modes for Simulate.
const (
	// ExecWorstCase runs every process for exactly its WCET.
	ExecWorstCase = sim.WorstCase
	// ExecBestCase runs every process for its BCET.
	ExecBestCase = sim.BestCase
	// ExecRandom draws execution times uniformly from [BCET, WCET].
	ExecRandom = sim.RandomCase
)

// NewApplication returns an empty application with the given name.
func NewApplication(name string) *Application { return model.NewApplication(name) }

// NewTwoClusterArchitecture builds the canonical TTC+ETC+gateway
// platform.
func NewTwoClusterArchitecture(spec ArchSpec) (*Architecture, error) {
	return model.NewTwoClusterArchitecture(spec)
}

// Generate builds a random two-cluster system with the paper's §6
// workload parameters.
func Generate(spec GenSpec) (*System, error) { return gen.Generate(spec) }

// Corpus returns n deterministic generator specs spanning the
// evaluation space (node counts, CPU/bus utilization targets,
// inter-cluster ratios, WCET distributions). Spec i uses seed base+i;
// procsPerNode <= 0 selects the paper's 40. The corpus backs
// `mcs-gen -n`, the DSE benchmarks and the property tests.
func Corpus(n int, base int64, procsPerNode int) []GenSpec {
	return gen.Corpus(n, base, procsPerNode)
}

// CruiseController builds the §6 vehicle cruise-controller case study
// (40 processes, 2 TT + 2 ET nodes, 250 ms deadline).
func CruiseController() (*System, error) { return cruise.System() }

// LoadSystem reads a system JSON file written by SaveSystem or mcs-gen.
func LoadSystem(path string) (*System, error) { return model.LoadFile(path) }

// SaveSystem writes the system as JSON.
func SaveSystem(sys *System, path string) error { return sys.SaveFile(path) }

// DefaultConfig returns the straightforward configuration (ascending
// slot order, minimal slot lengths, declaration-order priorities).
func DefaultConfig(app *Application, arch *Architecture) *Config {
	return core.DefaultConfig(app, arch)
}

// NoPriority is the entry of Config's priority vectors for a process or
// message that has no priority.
const NoPriority = core.NoPriority

// SaveConfig writes a synthesized configuration as stable JSON.
func SaveConfig(cfg *Config, w io.Writer) error { return cfg.Save(w) }

// LoadConfig parses a configuration written by SaveConfig and validates
// it against the application and architecture. A priority entry with an
// ID outside the system, a repeated ID or NoPriority is an error, and
// so is what Config.Validate refuses, such as a negative priority of an
// ET process or a CAN message.
func LoadConfig(r io.Reader, app *Application, arch *Architecture) (*Config, error) {
	return core.LoadConfig(r, app, arch)
}

// Strategy selects a synthesis algorithm.
type Strategy = solve.Strategy

const (
	// StrategyStraightforward is the SF baseline: ascending slot order,
	// minimal slot lengths, declaration-order priorities.
	StrategyStraightforward = solve.Straightforward
	// StrategyOptimizeSchedule is the greedy OS heuristic maximizing the
	// degree of schedulability (Fig. 8).
	StrategyOptimizeSchedule = solve.OptimizeSchedule
	// StrategyOptimizeResources is OS followed by the OR hill climber
	// minimizing the total buffer need (Fig. 7).
	StrategyOptimizeResources = solve.OptimizeResources
	// StrategySAS is the simulated-annealing baseline for the degree of
	// schedulability.
	StrategySAS = solve.SAS
	// StrategySAR is the simulated-annealing baseline for the buffer
	// need.
	StrategySAR = solve.SAR
)

// Strategies lists every synthesis strategy, in declaration order.
func Strategies() []Strategy { return solve.Strategies() }

// ParseStrategy maps the paper's algorithm names (sf, os, or, sas, sar;
// case-insensitive) to a Strategy. It round-trips with
// Strategy.String for every strategy.
func ParseStrategy(name string) (Strategy, error) { return solve.ParseStrategy(name) }

// SynthesisResult couples the chosen configuration with its analysis.
type SynthesisResult = solve.Result
