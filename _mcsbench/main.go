// Command mcsbench benchmarks mcs-serve end to end. It starts an
// in-process service.NewHandler behind a loopback listener, drives it
// with a closed loop of two HTTP clients (each POSTs a job, then reads
// that job's SSE stream up to its done event), verifies every result
// outside the timed phase, and prints the metrics by name with their
// units. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 812, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; --trace 1 runs
// the traced pass and prints the per-layer ones instead (layers.go).
// Run it from the repository root through run.sh, which builds it:
//
//	bash _mcsbench/run.sh --workload synth-cold --seed 1 --seconds 10 --trace 0
//
// The benchmark reads its load average and filesystem type through
// Linux system calls, so it builds on Linux only.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// hostCores is the core count of the reference host. GOMAXPROCS and the
// service's worker counts are pinned to it (mcs-serve's shipped defaults
// on such a host), so the numbers do not depend on the core count of
// the machine that runs the benchmark.
const hostCores = 2

// config is one benchmark run. The command line fills it; the
// self-check shrinks it.
type config struct {
	seed  int64
	timed time.Duration
	trace bool
	size  size
	// work holds the durable workload's stores and the traced run's
	// span dump.
	work string
}

// result is the last output line: the verification verdict and the
// metrics, each with its unit.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed; a fixed seed gives identical inputs")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	flag.Parse()
	w := workloadByName(*name)
	if w == nil || *seconds < 1 || *trace < 0 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(hostCores)
	res, err := run(w, config{
		seed:  *seed,
		timed: time.Duration(*seconds) * time.Second,
		trace: *trace == 1,
		size:  fullSize,
		work:  ".bench_build",
	}, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcsbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcsbench: encoding the result:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
}

// run executes one workload: generate the inputs, set up several times,
// run the timed phase, verify every job, and measure.
func run(w *workload, cfg config, out io.Writer) (*result, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "workload %s, seed %d: %s\n", w.name, cfg.seed, w.why)
	fmt.Fprintf(out, "env: %s\n", environment(cfg.work))
	in, err := w.inputs(cfg.seed, cfg.size)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}

	// One set-up is too short to repeat within a tenth, so set up
	// several times and report the median. The last set-up stays up for
	// the timed phase.
	var (
		b       *bench
		setups  []float64
		replays []float64
	)
	for r := 0; r < cfg.size.setupReps; r++ {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		if b, err = setUp(w, in, cfg, r); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		replays = append(replays, millis(b.replay))
	}
	defer b.close()

	var phases []*phase
	if cfg.trace {
		// The traced pass times an untraced half first, so the overhead
		// of the benchmark's own instrumentation is measured in the same
		// process against the same warm state.
		plain, err := b.timedPhase(in, 0, cfg.timed/2)
		if err != nil {
			return nil, err
		}
		b.instrument(true)
		traced, err := b.timedPhase(in, len(plain.outs), cfg.timed/2)
		b.instrument(false)
		if err != nil {
			return nil, err
		}
		phases = []*phase{plain, traced}
	} else {
		p, err := b.timedPhase(in, 0, cfg.timed)
		if err != nil {
			return nil, err
		}
		phases = []*phase{p}
	}
	rss := peakRSSMB()
	b.drain()

	var timed []*outcome
	for _, p := range phases {
		for i := range p.outs {
			timed = append(timed, &p.outs[i])
		}
	}
	ver := verifyRun(b.warm, timed, cfg.size.digestJobs, out)
	res := &result{Correct: ver.failed == 0, Attempted: ver.attempted, Failed: ver.failed}
	fmt.Fprintf(out, "verified: %d jobs (%d set-up, %d timed), %d failed\n",
		ver.attempted, len(b.warm), len(timed), ver.failed)
	fmt.Fprintf(out, "digest: %s over %d results\n", ver.digest, ver.digested)

	if !cfg.trace {
		p := phases[0]
		res.Metrics = endToEnd(p, setups, rss)
		n := len(p.outs)
		fmt.Fprintf(out, "timed: %d jobs in %.3f s, %d latency samples beyond p95; set-up ran %d times: %s s\n",
			n, p.elapsed.Seconds(), n-1-int(0.95*float64(n-1)), len(setups), formatList(setups))
		if n < cfg.size.minTimedJobs {
			fmt.Fprintf(out, "warning: %d timed jobs, fewer than the %d that leave ten samples beyond p95\n",
				n, cfg.size.minTimedJobs)
		}
		for _, e := range endToEndMetrics {
			fmt.Fprintf(out, "  %-18s %12.4f %s\n", e.name, res.Metrics[e.name].Value, e.unit)
		}
		return res, nil
	}
	rows, err := b.layers(w, in, cfg, phases[0], phases[1], replays, out)
	if err != nil {
		return nil, err
	}
	res.Metrics = make(map[string]metric, len(rows))
	for _, r := range rows {
		res.Metrics[r.name] = metric{Value: r.value, Unit: r.unit}
	}
	return res, nil
}

// endToEndMetrics are the --trace 0 metrics, in print order.
var endToEndMetrics = []struct{ name, unit string }{
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_p95_ms", "ms"},
	{"cpu_ms_per_job", "ms"},
	{"alloc_mb_per_job", "MB"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// endToEnd computes the user-visible metrics of a timed phase. Latency
// runs from the POST being sent to the SSE done event being read.
func endToEnd(p *phase, setups []float64, rss float64) map[string]metric {
	n := float64(len(p.outs))
	lat := make([]float64, 0, len(p.outs))
	for _, o := range p.outs {
		lat = append(lat, millis(o.latency))
	}
	sort.Float64s(lat)
	return map[string]metric{
		"jobs_per_s":       {n / p.elapsed.Seconds(), "1/s"},
		"job_p50_ms":       {quantile(lat, 0.50), "ms"},
		"job_p95_ms":       {quantile(lat, 0.95), "ms"},
		"cpu_ms_per_job":   {millis(p.cpu) / n, "ms"},
		"alloc_mb_per_job": {float64(p.alloc) / 1e6 / n, "MB"},
		"peak_rss_mb":      {rss, "MB"},
		"setup_s":          {median(setups), "s"},
	}
}

// quantile interpolates linearly between the closest ranks of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func formatList(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// environment records what lies behind a run's noise, so an outlier run
// can be explained rather than discarded.
func environment(dir string) string {
	load := "unknown"
	var si syscall.Sysinfo_t
	if syscall.Sysinfo(&si) == nil {
		const scale = 1 << 16 // SI_LOAD_SHIFT
		load = fmt.Sprintf("%.2f,%.2f,%.2f",
			float64(si.Loads[0])/scale, float64(si.Loads[1])/scale, float64(si.Loads[2])/scale)
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s datadir_fs=%s loadavg=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fsType(dir), load)
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}
