package rta

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/model"
)

const hz = 1 << 40

// analyzeAll runs AnalyzeStable with the task set's own priority index
// into fresh result and scratch slices.
func analyzeAll(tasks []Task, opt Options) ([]Result, bool, error) {
	res := make([]Result, len(tasks))
	stable, err := AnalyzeStable(tasks, HigherPriorityIndex(tasks), opt, res, make([]model.Time, len(tasks)))
	return res, stable, err
}

func analyze(t *testing.T, tasks []Task) []Result {
	t.Helper()
	res, _, err := analyzeAll(tasks, Options{Horizon: hz})
	if err != nil {
		t.Fatalf("AnalyzeStable: %v", err)
	}
	return res
}

// TestClassicRateMonotonic reproduces the textbook Liu/Layland style
// example: three tasks on one CPU, no offsets, no jitter.
func TestClassicRateMonotonic(t *testing.T) {
	tasks := []Task{
		{Name: "t1", Resource: 0, Priority: 0, C: 1, T: 4, Trans: -1},
		{Name: "t2", Resource: 0, Priority: 1, C: 2, T: 6, Trans: -1},
		{Name: "t3", Resource: 0, Priority: 2, C: 3, T: 12, Trans: -1},
	}
	res := analyze(t, tasks)
	// Different transactions: all offsets treated as 0.
	// r1 = 1; r2 = 2 + 1 = 3; r3: w=3+... classic busy window: 3+1+2=6, then
	// arrivals of t1 in 6: 2 -> w=3+2*1+1*2=7, t1:2,t2:2 -> 3+2+4=9, t1:3 ->
	// 3+3+4=10, -> 3+3+4=10 stable. r3=10.
	wants := []model.Time{1, 3, 10}
	for i, want := range wants {
		if !res[i].Converged || res[i].R != want {
			t.Errorf("r%d = %d (conv=%v), want %d", i+1, res[i].R, res[i].Converged, want)
		}
	}
}

// TestFig4aProcesses checks P2/P3 of the paper's §4.2 example on node N2:
// priorityP3 > priorityP2, O2=O3=80, J2=15, J3=25, C2=C3=20, T=240.
// Expected: w2 = 20 (one preemption by P3), r2 = 55; w3 = 0, r3 = 45.
func TestFig4aProcesses(t *testing.T) {
	tasks := []Task{
		{Name: "P2", Resource: 0, Priority: 2, C: 20, T: 240, O: 80, J: 15, Trans: 1},
		{Name: "P3", Resource: 0, Priority: 1, C: 20, T: 240, O: 80, J: 25, Trans: 1},
	}
	res := analyze(t, tasks)
	if res[0].W != 20 || res[0].R != 55 {
		t.Errorf("P2: w=%d r=%d, want w=20 r=55", res[0].W, res[0].R)
	}
	if res[1].W != 0 || res[1].R != 45 {
		t.Errorf("P3: w=%d r=%d, want w=0 r=45", res[1].W, res[1].R)
	}
}

// TestFig4aMessages checks m1/m2 on the CAN bus: Jm1=Jm2=5 (the gateway
// transfer process response), Cm=10, T=240, equal offsets 80.
// Expected: wm1 = 0, rm1 = 15 (=J2); wm2 = 10, rm2 = 25 (=J3).
func TestFig4aMessages(t *testing.T) {
	tasks := []Task{
		{Name: "m1", Resource: 1, Priority: 1, C: 10, T: 240, O: 80, J: 5, Trans: 1, NonPreemptive: true},
		{Name: "m2", Resource: 1, Priority: 2, C: 10, T: 240, O: 80, J: 5, Trans: 1, NonPreemptive: true},
	}
	res := analyze(t, tasks)
	if res[0].W != 0 || res[0].R != 15 {
		t.Errorf("m1: w=%d r=%d, want w=0 r=15", res[0].W, res[0].R)
	}
	if res[1].W != 10 || res[1].R != 25 {
		t.Errorf("m2: w=%d r=%d, want w=10 r=25", res[1].W, res[1].R)
	}
}

// TestFig4cPrioritySwap swaps the priorities of P2 and P3 (Figure 4c):
// P2 becomes the high-priority process, so it runs free of interference.
func TestFig4cPrioritySwap(t *testing.T) {
	tasks := []Task{
		{Name: "P2", Resource: 0, Priority: 1, C: 20, T: 240, O: 80, J: 15, Trans: 1},
		{Name: "P3", Resource: 0, Priority: 2, C: 20, T: 240, O: 80, J: 25, Trans: 1},
	}
	res := analyze(t, tasks)
	if res[0].W != 0 || res[0].R != 35 {
		t.Errorf("P2: w=%d r=%d, want w=0 r=35", res[0].W, res[0].R)
	}
	// P3 is preempted by P2 (whose activation window overlaps): w3 = 20.
	if res[1].W != 20 || res[1].R != 65 {
		t.Errorf("P3: w=%d r=%d, want w=20 r=65", res[1].W, res[1].R)
	}
}

// TestOffsetsReduceInterference verifies that a large relative offset
// inside a transaction removes interference that unrelated tasks would
// suffer (the point of the offset-based analysis, §4 of the paper).
func TestOffsetsReduceInterference(t *testing.T) {
	base := []Task{
		{Name: "hi", Resource: 0, Priority: 0, C: 10, T: 100, O: 90, Trans: 7},
		{Name: "lo", Resource: 0, Priority: 1, C: 10, T: 100, O: 0, Trans: 7},
	}
	res := analyze(t, base)
	// "hi" is released 90 after "lo"; lo's busy window of 10 never sees it.
	if res[1].W != 0 {
		t.Errorf("same transaction: w(lo) = %d, want 0", res[1].W)
	}
	// Different transactions: phasing unknown, interference counted.
	base[0].Trans = 8
	res = analyze(t, base)
	if res[1].W != 10 {
		t.Errorf("different transactions: w(lo) = %d, want 10", res[1].W)
	}
}

func TestBlockingTerm(t *testing.T) {
	tasks := []Task{
		{Name: "m", Resource: 0, Priority: 0, C: 5, T: 100, B: 7, Trans: -1, NonPreemptive: true},
	}
	res := analyze(t, tasks)
	if res[0].W != 7 || res[0].R != 12 {
		t.Errorf("w=%d r=%d, want 7, 12", res[0].W, res[0].R)
	}
}

func TestMaxLowerC(t *testing.T) {
	tasks := []Task{
		{Resource: 0, Priority: 0, C: 5, T: 100},
		{Resource: 0, Priority: 1, C: 9, T: 100},
		{Resource: 0, Priority: 2, C: 3, T: 100},
		{Resource: 1, Priority: 0, C: 50, T: 100}, // other resource: ignored
	}
	if b := MaxLowerC(tasks, 0); b != 9 {
		t.Errorf("B(task0) = %d, want 9", b)
	}
	if b := MaxLowerC(tasks, 1); b != 3 {
		t.Errorf("B(task1) = %d, want 3", b)
	}
	if b := MaxLowerC(tasks, 2); b != 0 {
		t.Errorf("B(task2) = %d, want 0", b)
	}
}

func TestDivergenceClampsAtHorizon(t *testing.T) {
	tasks := []Task{
		{Name: "hp1", Resource: 0, Priority: 0, C: 60, T: 100, Trans: -1},
		{Name: "hp2", Resource: 0, Priority: 1, C: 50, T: 100, Trans: -1},
		{Name: "lp", Resource: 0, Priority: 2, C: 10, T: 100, Trans: -1},
	}
	res, _, err := analyzeAll(tasks, Options{Horizon: 1000})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if res[2].Converged {
		t.Error("overloaded resource must not converge")
	}
	if res[2].W != 1000 {
		t.Errorf("diverged W = %d, want clamped at 1000", res[2].W)
	}
}

func TestValidateTasks(t *testing.T) {
	bad := [][]Task{
		{{C: 0, T: 10}},
		{{C: 1, T: 0}},
		{{C: 1, T: 10, J: -1}},
		{{C: 1, T: 10, Priority: 3}, {C: 1, T: 10, Priority: 3}}, // duplicate prio
	}
	for i, tasks := range bad {
		if _, _, err := analyzeAll(tasks, Options{Horizon: 100}); err == nil {
			t.Errorf("case %d: invalid tasks accepted", i)
		}
	}
	if _, _, err := analyzeAll(nil, Options{}); err == nil {
		t.Error("zero horizon accepted")
	}
	one := []Task{{C: 1, T: 10}}
	if _, err := AnalyzeStable(one, nil, Options{Horizon: 100}, make([]Result, 1), make([]model.Time, 1)); err == nil {
		t.Error("priority index of another task set accepted")
	}
	if _, err := AnalyzeStable(one, HigherPriorityIndex(one), Options{Horizon: 100}, nil, make([]model.Time, 1)); err == nil {
		t.Error("result slice of another length accepted")
	}
}

func TestRelOffset(t *testing.T) {
	if got := RelOffset(80, 80, 240, true); got != 0 {
		t.Errorf("RelOffset same = %d", got)
	}
	if got := RelOffset(0, 90, 100, true); got != 90 {
		t.Errorf("RelOffset = %d, want 90", got)
	}
	if got := RelOffset(90, 0, 100, true); got != 10 {
		t.Errorf("RelOffset wrap = %d, want 10", got)
	}
	if got := RelOffset(0, 90, 100, false); got != 0 {
		t.Errorf("RelOffset unrelated = %d, want 0", got)
	}
}

func TestNumArrivals(t *testing.T) {
	cases := []struct{ win, j, o, T, want model.Time }{
		{0, 0, 0, 10, 0},
		{1, 0, 0, 10, 1},
		{10, 0, 0, 10, 1},
		{11, 0, 0, 10, 2},
		{5, 0, 20, 10, 0}, // offset pushes the first arrival out of the window
		{5, 18, 20, 10, 1},
	}
	for _, c := range cases {
		if got := CountArrivals(c.win, c.j, c.o, c.T, 0, false, false); got != c.want {
			t.Errorf("CountArrivals(%d,%d,%d,%d, exclusive) = %d, want %d", c.win, c.j, c.o, c.T, got, c.want)
		}
	}
}

func randomTaskSet(r *rand.Rand) []Task {
	n := 2 + r.Intn(6)
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{
			Resource: r.Intn(2),
			Priority: i, // unique
			C:        1 + model.Time(r.Intn(5)),
			T:        model.Time(50 * (1 + r.Intn(4))),
			O:        model.Time(r.Intn(40)),
			J:        model.Time(r.Intn(10)),
			B:        model.Time(r.Intn(5)),
			Trans:    r.Intn(2),
		}
	}
	return tasks
}

// Response time must never decrease when C, J or B of any task grows
// (monotonicity of the fixed point).
func TestPropertyMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tasks := randomTaskSet(r)
		res, _, err := analyzeAll(tasks, Options{Horizon: hz})
		if err != nil {
			return false
		}
		grown := make([]Task, len(tasks))
		copy(grown, tasks)
		k := r.Intn(len(grown))
		switch r.Intn(3) {
		case 0:
			grown[k].C++
		case 1:
			grown[k].J += 3
		case 2:
			grown[k].B += 2
		}
		res2, _, err := analyzeAll(grown, Options{Horizon: hz})
		if err != nil {
			return false
		}
		for i := range res {
			if res2[i].R < res[i].R {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Permuting the task slice permutes the results — W, R, the converged
// flags and the stability verdict — and changes nothing else: each pass reads only the previous pass's responses, so
// no result depends on task order. internal/core relies on this to lay
// its task set out per resource.
func TestPropertyOrderIndependence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tasks := randomTaskSet(r)
		for i := range tasks {
			tasks[i].NonPreemptive = tasks[i].Resource == 1 && r.Intn(2) == 0
		}
		opt := Options{Horizon: hz}
		if r.Intn(4) == 0 {
			opt.Horizon = model.Time(1 + r.Intn(30)) // clamped, unconverged results
		}
		res, stable, err := analyzeAll(tasks, opt)
		if err != nil {
			return false
		}
		perm := r.Perm(len(tasks))
		shuffled := make([]Task, len(tasks))
		for k, i := range perm {
			shuffled[k] = tasks[i]
		}
		res2, stable2, err := analyzeAll(shuffled, opt)
		if err != nil || stable2 != stable {
			return false
		}
		for k, i := range perm {
			if res2[k] != res[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// coldReference is AnalyzeStable without the cross-pass warm start:
// every pass solves every interference fixed point from w = B.
func coldReference(tasks []Task, horizon model.Time) ([]Result, bool) {
	res := make([]Result, len(tasks))
	resp := make([]model.Time, len(tasks))
	hp := HigherPriorityIndex(tasks)
	for pass := 0; pass < maxResponsePasses; pass++ {
		changed := false
		for i := range tasks {
			res[i] = analyzeOne(tasks, i, horizon, resp, hp[i], tasks[i].B)
		}
		for i := range res {
			if res[i].R != resp[i] {
				resp[i] = res[i].R
				changed = true
			}
		}
		if !changed {
			return res, true
		}
	}
	for i := range res {
		res[i].Converged = false
	}
	return res, false
}

// Starting each pass's fixed point from the previous pass's W changes
// nothing: AnalyzeStable matches the cold-start reference in W, R,
// Converged and stability, also when small horizons clamp the fixed
// points.
func TestPropertyCrossPassWarmStartMatchesCold(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tasks := randomTaskSet(r)
		for i := range tasks {
			tasks[i].NonPreemptive = tasks[i].Resource == 1 && r.Intn(2) == 0
		}
		horizon := model.Time(hz)
		if r.Intn(4) == 0 {
			horizon = model.Time(1 + r.Intn(30))
		}
		res, stable, err := analyzeAll(tasks, Options{Horizon: horizon})
		if err != nil {
			return false
		}
		want, wantStable := coldReference(tasks, horizon)
		if stable != wantStable {
			return false
		}
		for i := range want {
			if res[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// The response of every task is at least B + C + J, and the highest
// priority preemptable task on a resource has w = B.
func TestPropertyLowerBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tasks := randomTaskSet(r)
		res, _, err := analyzeAll(tasks, Options{Horizon: hz})
		if err != nil {
			return false
		}
		for i, task := range tasks {
			if res[i].R < task.B+task.C+task.J {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Fixed point check: plugging W back into the interference sum
// reproduces W exactly (for converged results).
func TestPropertyFixedPoint(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tasks := randomTaskSet(r)
		res, _, err := analyzeAll(tasks, Options{Horizon: hz})
		if err != nil {
			return false
		}
		for i, me := range tasks {
			if !res[i].Converged {
				continue
			}
			win := res[i].W
			if !me.NonPreemptive {
				win += me.C
			}
			sum := me.B
			for j, o := range tasks {
				if j == i || o.Resource != me.Resource || o.Priority >= me.Priority {
					continue
				}
				same := o.Trans == me.Trans && o.Trans >= 0
				oij := RelOffset(me.O, o.O, o.T, same)
				sum += CountArrivals(win, o.J, oij, o.T, res[j].R, me.NonPreemptive, same) * o.C
			}
			if sum != res[i].W {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestNumQueued(t *testing.T) {
	cases := []struct{ win, j, o, T, want model.Time }{
		{0, 0, 0, 10, 1},  // simultaneous arrival counts
		{9, 0, 0, 10, 1},  // still within the first period
		{10, 0, 0, 10, 2}, // the boundary instance counts too
		{0, 0, 5, 10, 0},  // offset pushes the arrival out
		{-1, 0, 0, 10, 0}, // empty window
	}
	for _, c := range cases {
		if got := CountArrivals(c.win, c.j, c.o, c.T, 0, true, false); got != c.want {
			t.Errorf("CountArrivals(%d,%d,%d,%d, inclusive) = %d, want %d", c.win, c.j, c.o, c.T, got, c.want)
		}
	}
}

func TestCountArrivalsLingering(t *testing.T) {
	// Same transaction, the interferer released 90 ticks earlier
	// (oij = 10 means "j fires 10 after me"... use oij near T for an
	// earlier phase). j at relative offset 90 of a 100-period: its
	// previous instance fired at -10. With back (response) 15 it can
	// still be pending at my activation, so it must be counted even
	// though the forward window (5) never reaches offset 90.
	if got := CountArrivals(5, 0, 90, 100, 15, false, true); got != 1 {
		t.Errorf("lingering instance not counted: %d", got)
	}
	// With a response of at most 10 it finished exactly at my release.
	if got := CountArrivals(5, 0, 90, 100, 10, false, true); got != 0 {
		t.Errorf("finished instance counted: %d", got)
	}
	// Unrelated tasks: classic count, no backward extension.
	if got := CountArrivals(5, 0, 0, 100, 1000, false, false); got != 1 {
		t.Errorf("unrelated count = %d, want 1", got)
	}
}

func TestFloorCeilDiv(t *testing.T) {
	if floorDiv(-1, 10) != -1 || floorDiv(1, 10) != 0 || floorDiv(-10, 10) != -1 {
		t.Error("floorDiv wrong on negatives")
	}
	if ceilDiv(1, 10) != 1 || ceilDiv(-1, 10) != 0 || ceilDiv(10, 10) != 1 {
		t.Error("ceilDiv wrong")
	}
}
