package dse

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/model"
)

// Objectives is the objective vector of one design point. All three
// coordinates are minimized:
//
//   - Delta is the degree of schedulability delta_Gamma (§5): positive =
//     sum of deadline overruns, negative = aggregate slack.
//   - Buffers is s_total, the total gateway/ETC buffer need (§5, Fig. 7).
//   - Bandwidth is the reserved TTP transmission time per TDMA round
//     (the sum of the slot lengths, padding excluded): the share of the
//     time-triggered bus the configuration claims. The single-objective
//     heuristics never look at it, yet it is the natural extensibility
//     cost of a round — longer slots buy schedulability with bus
//     bandwidth future functions can no longer use.
type Objectives struct {
	Delta     model.Time `json:"delta"`
	Buffers   int        `json:"buffers"`
	Bandwidth model.Time `json:"bandwidth"`
}

// WeaklyDominates reports whether a is at least as good as b in every
// objective (minimization).
func (a Objectives) WeaklyDominates(b Objectives) bool {
	return a.Delta <= b.Delta && a.Buffers <= b.Buffers && a.Bandwidth <= b.Bandwidth
}

// Dominates reports whether a is at least as good as b everywhere and
// strictly better somewhere.
func (a Objectives) Dominates(b Objectives) bool {
	return a != b && a.WeaklyDominates(b)
}

// Less orders objective vectors lexicographically (Delta, Buffers,
// Bandwidth). Within a mutually non-dominated set the vectors are
// pairwise distinct, so Less is a strict total order on a front.
func (a Objectives) Less(b Objectives) bool {
	if a.Delta != b.Delta {
		return a.Delta < b.Delta
	}
	if a.Buffers != b.Buffers {
		return a.Buffers < b.Buffers
	}
	return a.Bandwidth < b.Bandwidth
}

// Bandwidth returns the reserved TTP transmission time per TDMA round
// of a configuration: the sum of its slot lengths (padding excluded).
func Bandwidth(cfg *core.Config) model.Time {
	var sum model.Time
	for _, s := range cfg.Round.Slots {
		sum += s.Length
	}
	return sum
}

// Point is one evaluated design point: a configuration together with
// its schedulability analysis.
type Point struct {
	Config   *core.Config
	Analysis *core.Analysis
}

// Objectives projects the point onto the objective space.
func (p Point) Objectives() Objectives {
	return Objectives{
		Delta:     p.Analysis.Delta,
		Buffers:   p.Analysis.Buffers.Total,
		Bandwidth: Bandwidth(p.Config),
	}
}

// Schedulable reports the analysis verdict.
func (p Point) Schedulable() bool { return p.Analysis.Schedulable }

// DefaultArchiveCap bounds an archive when the caller does not.
const DefaultArchiveCap = 256

// Archive maintains a bounded set of mutually non-dominated points.
// Insertion order breaks every tie, so an archive fed the same point
// sequence always holds the same front — the worker-count independence
// of Explore rests on this. Archive is not safe for concurrent use;
// Explore feeds it from its serial reducing loop.
//
// Points inserted with AddPinned (the Solver's warm-start optima) are
// exempt from capacity pruning: a pinned point leaves the archive only
// for a point that weakly dominates it, so by transitivity the front
// always contains a point weakly dominating every pinned insertion —
// the domination guarantee of Solver.Explore — at the cost of the
// archive exceeding its cap by at most the pinned count (a handful of
// warm-start points) when everything else has been pruned.
type Archive struct {
	cap    int
	pts    []Point
	objs   []Objectives
	pinned []bool
}

// NewArchive returns an empty archive keeping at most cap points
// (cap <= 0 selects DefaultArchiveCap). Beyond the cap the most crowded
// point is dropped, preserving the front's extremes and spread.
func NewArchive(cap int) *Archive {
	if cap <= 0 {
		cap = DefaultArchiveCap
	}
	return &Archive{cap: cap}
}

// Len returns the number of archived points.
func (a *Archive) Len() int { return len(a.pts) }

// Add offers a point to the archive. It returns false when an archived
// point already weakly dominates the candidate (so a point with an
// already-seen objective vector never displaces the first holder);
// otherwise the dominated points are evicted, the candidate enters, and
// the most crowded unpinned point is pruned if the cap is exceeded.
func (a *Archive) Add(p Point) bool { return a.add(p, false) }

// AddPinned is Add for points the archive must keep representing (see
// the pruning exemption in the type documentation).
func (a *Archive) AddPinned(p Point) bool { return a.add(p, true) }

func (a *Archive) add(p Point, pin bool) bool {
	o := p.Objectives()
	for i, q := range a.objs {
		if q.WeaklyDominates(o) {
			// A refused pinned candidate transfers its pin to the
			// refusing dominator: the guarantee ("the front weakly
			// dominates every pinned insertion") must survive that
			// dominator being capacity-pruned later.
			if pin {
				a.pinned[i] = true
			}
			return false
		}
	}
	keepPts := a.pts[:0]
	keepObjs := a.objs[:0]
	keepPinned := a.pinned[:0]
	for i, q := range a.objs {
		if o.WeaklyDominates(q) {
			// Evicting a pinned point transfers its pin to the
			// candidate: the replacement weakly dominates it, so
			// keeping the replacement un-prunable keeps the front
			// weakly dominating the original pinned insertion.
			pin = pin || a.pinned[i]
			continue
		}
		keepPts = append(keepPts, a.pts[i])
		keepObjs = append(keepObjs, q)
		keepPinned = append(keepPinned, a.pinned[i])
	}
	a.pts = append(keepPts, p)
	a.objs = append(keepObjs, o)
	a.pinned = append(keepPinned, pin)
	if len(a.pts) > a.cap {
		a.prune()
	}
	return true
}

// prune drops the unpinned point with the smallest crowding distance
// (latest inserted on ties) — never an objective-space extreme, never
// a pinned point. With only pinned points left the archive is allowed
// to exceed its cap.
func (a *Archive) prune() {
	crowd := crowding(a.objs)
	worst := -1
	for i, c := range crowd {
		if a.pinned[i] {
			continue
		}
		if worst < 0 || c <= crowd[worst] {
			worst = i // later index wins ties: keep the earliest points
		}
	}
	if worst < 0 {
		return
	}
	a.pts = append(a.pts[:worst], a.pts[worst+1:]...)
	a.objs = append(a.objs[:worst], a.objs[worst+1:]...)
	a.pinned = append(a.pinned[:worst], a.pinned[worst+1:]...)
}

// Points returns the archived front sorted by Objectives.Less. The
// slice is a copy; the points' Config/Analysis are shared.
func (a *Archive) Points() []Point {
	out := append([]Point(nil), a.pts...)
	sort.Slice(out, func(i, j int) bool { return out[i].Objectives().Less(out[j].Objectives()) })
	return out
}

// Nadir returns the componentwise worst objective vector of the
// archive, offset by one in every coordinate — the canonical reference
// point of Hypervolume, strictly dominated by every archived point.
func (a *Archive) Nadir() Objectives {
	var n Objectives
	for i, o := range a.objs {
		if i == 0 || o.Delta > n.Delta {
			n.Delta = o.Delta
		}
		if i == 0 || o.Buffers > n.Buffers {
			n.Buffers = o.Buffers
		}
		if i == 0 || o.Bandwidth > n.Bandwidth {
			n.Bandwidth = o.Bandwidth
		}
	}
	n.Delta++
	n.Buffers++
	n.Bandwidth++
	return n
}

// Hypervolume returns the volume of objective space dominated by the
// archive, bounded by its own Nadir reference point. The indicator
// compares search configurations over one system (a larger value means
// a wider, deeper front); it is exactly reproducible — integer
// objectives, deterministic slicing order — so equal fronts report
// bit-equal volumes.
func (a *Archive) Hypervolume() float64 {
	if len(a.objs) == 0 {
		return 0
	}
	return Hypervolume(a.objs, a.Nadir())
}

// Hypervolume computes the 3-D dominated hypervolume of a point set
// with respect to a reference point (minimization): the measure of
// {x : some point weakly dominates x, x <= ref componentwise}. Points
// not strictly below ref in every coordinate contribute nothing.
func Hypervolume(objs []Objectives, ref Objectives) float64 {
	var pts []Objectives
	for _, o := range objs {
		if o.Delta < ref.Delta && o.Buffers < ref.Buffers && o.Bandwidth < ref.Bandwidth {
			pts = append(pts, o)
		}
	}
	if len(pts) == 0 {
		return 0
	}
	// Slice along Delta: between consecutive distinct delta levels the
	// dominated region's cross-section is the 2-D (Buffers, Bandwidth)
	// region of the points at or below the slice level.
	sort.Slice(pts, func(i, j int) bool { return pts[i].Less(pts[j]) })
	var levels []model.Time
	for _, p := range pts {
		if len(levels) == 0 || levels[len(levels)-1] != p.Delta {
			levels = append(levels, p.Delta)
		}
	}
	var vol float64
	for li, d := range levels {
		next := ref.Delta
		if li+1 < len(levels) {
			next = levels[li+1]
		}
		var slice []Objectives
		for _, p := range pts {
			if p.Delta <= d {
				slice = append(slice, p)
			}
		}
		vol += float64(next-d) * area2D(slice, ref)
	}
	return vol
}

// area2D computes the 2-D dominated area of the (Buffers, Bandwidth)
// projection: a staircase sweep over points sorted by Buffers, adding
// each point's rectangle up to the lowest bandwidth seen so far (the
// part of its rectangle no earlier point already covers).
func area2D(pts []Objectives, ref Objectives) float64 {
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Buffers != pts[j].Buffers {
			return pts[i].Buffers < pts[j].Buffers
		}
		return pts[i].Bandwidth < pts[j].Bandwidth
	})
	var area float64
	minBW := ref.Bandwidth
	for _, p := range pts {
		if p.Bandwidth >= minBW {
			continue // dominated within the slice
		}
		area += float64(ref.Buffers-p.Buffers) * float64(minBW-p.Bandwidth)
		minBW = p.Bandwidth
	}
	return area
}

// crowding computes the NSGA-II crowding distance of every point:
// per objective, the extremes get +Inf and interior points accumulate
// the normalized span of their neighbours. Deterministic: sorts break
// ties by index.
func crowding(objs []Objectives) []float64 {
	n := len(objs)
	d := make([]float64, n)
	if n <= 2 {
		for i := range d {
			d[i] = math.Inf(1)
		}
		return d
	}
	idx := make([]int, n)
	coord := func(o Objectives, k int) float64 {
		switch k {
		case 0:
			return float64(o.Delta)
		case 1:
			return float64(o.Buffers)
		default:
			return float64(o.Bandwidth)
		}
	}
	for k := 0; k < 3; k++ {
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(i, j int) bool {
			a, b := coord(objs[idx[i]], k), coord(objs[idx[j]], k)
			if a != b {
				return a < b
			}
			return idx[i] < idx[j]
		})
		lo, hi := coord(objs[idx[0]], k), coord(objs[idx[n-1]], k)
		d[idx[0]] = math.Inf(1)
		d[idx[n-1]] = math.Inf(1)
		if hi == lo {
			continue
		}
		for i := 1; i < n-1; i++ {
			d[idx[i]] += (coord(objs[idx[i+1]], k) - coord(objs[idx[i-1]], k)) / (hi - lo)
		}
	}
	return d
}

// WriteCSV renders the front (sorted by Objectives.Less) as CSV with a
// header row: delta, s_total, bus_bandwidth, schedulable. The numeric
// columns feed straight into plotting tools; see the README's "Pareto
// exploration" walkthrough.
func (a *Archive) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "delta,s_total,bus_bandwidth,schedulable"); err != nil {
		return err
	}
	for _, p := range a.Points() {
		o := p.Objectives()
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%v\n", o.Delta, o.Buffers, o.Bandwidth, p.Schedulable()); err != nil {
			return err
		}
	}
	return nil
}

// frontPointJSON is the JSON form of one front point: the objective
// vector, the verdict and the full configuration in the stable
// core.Config.Save encoding (so any front point feeds back into
// LoadConfig and the wire API unchanged).
type frontPointJSON struct {
	Objectives
	Schedulable bool            `json:"schedulable"`
	Config      json.RawMessage `json:"config"`
}

// WriteJSON renders the front (sorted by Objectives.Less) as a JSON
// array of {delta, buffers, bandwidth, schedulable, config} objects.
func (a *Archive) WriteJSON(w io.Writer) error {
	out := make([]frontPointJSON, 0, len(a.pts))
	for _, p := range a.Points() {
		var buf bytes.Buffer
		if err := p.Config.Save(&buf); err != nil {
			return err
		}
		out = append(out, frontPointJSON{
			Objectives:  p.Objectives(),
			Schedulable: p.Schedulable(),
			Config:      json.RawMessage(buf.Bytes()),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
