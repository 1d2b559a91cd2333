package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sync"

	"repro/internal/gen"
	"repro/internal/service"
)

const (
	synthesizePath = "/v1/synthesize"
	explorePath    = "/v1/explore"
	// corpusBase is the gen.Corpus base seed of the cold and durable
	// workloads. Every run draws from the same corpus, and the run's
	// seed only orders it, so runs of different seeds do the same work
	// and their figures differ by the machine's noise alone. A run is
	// one process, so each member is still never seen before within it.
	corpusBase = 1
	// shuffleBlock is the span of corpus positions the seed permutes: a
	// multiple of the rotation, so every block keeps its stratum mix.
	// Only the timed positions are permuted, so every seed warms up on
	// the same members.
	shuffleBlock = 64
)

// size scales a run's inputs. fullSize is the benchmark's; the
// self-check shrinks it.
type size struct {
	setupReps    int // set-ups per run; setup_s is their median
	minTimedJobs int // timed jobs that leave ten latency samples beyond p95
	digestJobs   int // timed jobs, by send order, in the result digest

	coldProcs, coldWarm int // synth-cold: processes per node, warm-up jobs

	sweepSystems, sweepProcs int // sweep-warm: the fixed systems
	sweepSeeds               int // optimizer seeds per system
	saIterations             int // SAS/SAR chain length
	population, generations  int // /v1/explore budget

	durableProcs    int // resubmit-durable: processes per node
	durablePopulate int // requests stored before the restart
	durableWarm     int // warm-up jobs after the restart

	replayJobs, coldConfigs int // side replay: jobs, cold re-runs per job
}

var fullSize = size{
	setupReps:    5,
	minTimedJobs: 200,
	digestJobs:   100,

	coldProcs: 4,
	coldWarm:  96,

	sweepSystems: 6,
	sweepProcs:   6,
	sweepSeeds:   2,
	saIterations: 150,
	population:   8,
	generations:  4,

	durableProcs:    10,
	durablePopulate: 64,
	durableWarm:     64,

	replayJobs:  6,
	coldConfigs: 24,
}

// workload is one traffic mix. Every workload is a closed loop of two
// clients: mcs-serve's callers (CLI scripts, DSE sweeps) submit and wait.
type workload struct {
	name, why string
	// durable journals to a file store, and set-up restarts the service
	// over it so the timed phase runs on a replayed journal.
	durable bool
	// warmReplay runs each side-replayed job once before timing it: the
	// workload's steady state has the evaluator warm.
	warmReplay bool
	inputs     func(seed int64, sz size) (*inputs, error)
}

// inputs are a run's generated requests: populate (durable only) runs
// before the restart, warm runs in every set-up, and timed(i) is the
// i-th request of the timed phase.
type inputs struct {
	populate []*request
	warm     []*request
	timed    func(i int) (*request, error)
}

// request is one generated wire request. The service receives only body.
type request struct {
	path         string
	strategy     string // sf, os, or, sas, sar, or explore
	seed         int64
	saIterations int
	population   int
	generations  int
	// resubmit marks a byte-identical resubmission of a stored request.
	resubmit bool
	body     []byte
	// key is shared by exactly the byte-identical requests.
	key string
}

var workloads = []*workload{
	{
		name: "synth-cold",
		why: "OR synthesis of never-seen gen.Corpus systems: every job misses the Solver LRU and the delta memo, " +
			"so the analysis stages inside the Fig. 5 fixed point do the work",
		inputs: func(seed int64, sz size) (*inputs, error) {
			c := &corpus{base: corpusBase, seed: seed, procs: sz.coldProcs, from: sz.coldWarm}
			in := &inputs{}
			for i := 0; i < sz.coldWarm; i++ {
				r, err := synthesis(c.spec(i), "or", 1, 0)
				if err != nil {
					return nil, err
				}
				in.warm = append(in.warm, r)
			}
			// Timed jobs use the corpus members after the warm-up ones,
			// so the service has never seen any of them.
			in.timed = func(i int) (*request, error) { return synthesis(c.spec(sz.coldWarm+i), "or", 1, 0) }
			return in, nil
		},
	},
	{
		name: "sweep-warm",
		why: "OS, OR, SAS, SAR and explore jobs cycling over a fixed set of systems: every job hits the Solver LRU " +
			"and the delta memo, so the optimizers' own work and SSE fan-out show",
		warmReplay: true,
		inputs: func(seed int64, sz size) (*inputs, error) {
			// The systems and optimizer seeds are fixed and the workload
			// seed orders the requests, so runs of different seeds repeat
			// the same work.
			var reqs []*request
			for _, spec := range gen.Corpus(sz.sweepSystems, 1, sz.sweepProcs) {
				sys, err := gen.Generate(spec)
				if err != nil {
					return nil, fmt.Errorf("generating system %d: %w", spec.Seed, err)
				}
				for k := 0; k < sz.sweepSeeds; k++ {
					s := int64(k) + 1
					for _, strat := range []string{"os", "or", "sas", "sar"} {
						iters := 0
						if strat == "sas" || strat == "sar" {
							iters = sz.saIterations
						}
						r := &request{path: synthesizePath, strategy: strat, seed: s, saIterations: iters}
						err := r.encode(service.SynthesisRequest{System: sys, Strategy: strat, Seed: s, SAIterations: iters})
						if err != nil {
							return nil, err
						}
						reqs = append(reqs, r)
					}
					r := &request{path: explorePath, strategy: "explore", seed: s, population: sz.population, generations: sz.generations}
					err := r.encode(service.ExploreRequest{System: sys, Seed: s, Population: sz.population, Generations: sz.generations})
					if err != nil {
						return nil, err
					}
					reqs = append(reqs, r)
				}
			}
			rand.New(rand.NewPCG(uint64(seed), 0)).Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
			// Set-up runs every request once; the timed phase cycles them.
			return &inputs{
				warm:  reqs,
				timed: func(i int) (*request, error) { return reqs[i%len(reqs)], nil },
			}, nil
		},
	},
	{
		name: "resubmit-durable",
		why: "SF/OS jobs on a file store, a quarter of them byte-identical resubmissions served from the store: " +
			"decode, Fingerprint, journal appends and result persistence dominate",
		durable: true,
		inputs: func(seed int64, sz size) (*inputs, error) {
			c := &corpus{base: corpusBase, seed: seed, procs: sz.durableProcs, from: sz.durablePopulate + sz.durableWarm}
			in := &inputs{}
			var resubmits []*request
			for i := 0; i < sz.durablePopulate; i++ {
				r, err := synthesis(c.spec(i), []string{"sf", "os"}[i%2], 1, 0)
				if err != nil {
					return nil, err
				}
				again := *r
				again.resubmit = true
				in.populate = append(in.populate, r)
				resubmits = append(resubmits, &again)
			}
			// Every fourth job resubmits a stored request; the others run
			// OS on fresh systems, starting at corpus member first.
			mix := func(i, first int) (*request, error) {
				if i%4 == 0 {
					return resubmits[(i/4)%len(resubmits)], nil
				}
				return synthesis(c.spec(first+i-i/4-1), "os", 1, 0)
			}
			for i := 0; i < sz.durableWarm; i++ {
				r, err := mix(i, sz.durablePopulate)
				if err != nil {
					return nil, err
				}
				in.warm = append(in.warm, r)
			}
			first := sz.durablePopulate + sz.durableWarm
			in.timed = func(i int) (*request, error) { return mix(i, first) }
			return in, nil
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// synthesis generates one corpus system and wraps it in a synthesis
// request.
func synthesis(spec gen.Spec, strategy string, seed int64, saIterations int) (*request, error) {
	sys, err := gen.Generate(spec)
	if err != nil {
		return nil, fmt.Errorf("generating system %d: %w", spec.Seed, err)
	}
	r := &request{path: synthesizePath, strategy: strategy, seed: seed, saIterations: saIterations}
	err = r.encode(service.SynthesisRequest{System: sys, Strategy: strategy, Seed: seed, SAIterations: saIterations})
	return r, err
}

// encode sets the request body and its identity key.
func (r *request) encode(v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("encoding request: %w", err)
	}
	sum := sha256.Sum256(append([]byte(r.path+"\x00"), body...))
	r.body, r.key = body, hex.EncodeToString(sum[:12])
	return nil
}

// corpus is gen.Corpus grown on demand and read in a fixed rotation
// over the axes that set a job's cost most (node count and forced
// inter-cluster messages), so every run sends the same mix whatever its
// seed. Corpus is prefix-stable, so growing it never changes a member.
// From position from on, the seed permutes the rotation within blocks
// of shuffleBlock positions: it changes which jobs meet in the service,
// not which jobs a run of a given length sends.
type corpus struct {
	mu     sync.Mutex
	base   int64
	seed   int64
	from   int
	procs  int
	specs  []gen.Spec
	strata map[stratum][]int // member indices per stratum, in corpus order
}

type stratum struct{ nodes, inter int }

// rotation lists every stratum gen.Corpus draws from.
var rotation = []stratum{{2, 0}, {4, 0}, {2, 4}, {4, 4}, {2, 8}, {4, 8}, {2, 12}, {4, 12}}

// spec returns member i of the seed's ordering; distinct i give
// distinct corpus members.
func (c *corpus) spec(i int) gen.Spec {
	if i >= c.from {
		block := (i - c.from) / shuffleBlock
		perm := rand.New(rand.NewPCG(uint64(c.seed), uint64(block))).Perm(shuffleBlock)
		i = c.from + block*shuffleBlock + perm[(i-c.from)%shuffleBlock]
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s, k := rotation[i%len(rotation)], i/len(rotation)
	for len(c.strata[s]) <= k {
		c.specs = gen.Corpus(max(2*len(c.specs), 64), c.base, c.procs)
		c.strata = make(map[stratum][]int)
		for j, sp := range c.specs {
			st := stratum{sp.TTNodes + sp.ETNodes, sp.InterClusterMsgs}
			c.strata[st] = append(c.strata[st], j)
		}
	}
	return c.specs[c.strata[s][k]]
}
