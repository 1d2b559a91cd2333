// Package rta implements the offset-based response-time analysis used on
// the event-triggered cluster (§4.1 of the paper, after Tindell [14, 15]
// and Palencia/González Harbour [10]).
//
// Activities (preemptable processes on ET CPUs, non-preemptable messages
// on the CAN bus) are modelled as Tasks. The worst-case response time of
// task i is
//
//	r_i = J_i + w_i + C_i
//
// where the interference term w_i is the smallest solution of
//
//	w_i = B_i + sum over j in hp(i) of ceil0((win + J_j - O_ij)/T_j) * C_j
//
// with win = w_i for non-preemptable tasks (queuing delay) and
// win = w_i + C_i for preemptable tasks (level-i busy window, so that
// preemptions landing during the task's own execution are counted).
// O_ij is the relative offset of j with respect to i, meaningful only
// when both belong to the same transaction (process graph); unrelated
// tasks have unknown phasing and O_ij = 0. ceil0 clamps at zero.
//
// For non-preemptable tasks the arrival count uses the inclusive form
// floor(x/T)+1 instead of ceil(x/T) (CountArrivals inclusive): a
// higher-priority message entering the queue at the same instant is
// transmitted ahead, which the plain ceil form of the paper would miss
// when offsets are equal and jitters zero.
package rta

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/model"
)

// Task is one analyzable activity on a shared resource.
type Task struct {
	// Name is used in diagnostics only.
	Name string
	// Resource identifies the CPU or bus; tasks interfere only within
	// one resource.
	Resource int
	// Priority orders tasks on the resource: smaller value = higher
	// priority (CAN identifier convention). Priorities must be unique
	// per resource.
	Priority int
	// C is the WCET (processes) or worst-case transmission time
	// (messages).
	C model.Time
	// T is the period, inherited from the process graph.
	T model.Time
	// O is the offset: the earliest activation relative to the release
	// of the task's transaction.
	O model.Time
	// J is the release jitter: the activation happens in
	// [O, O+J] relative to the transaction release.
	J model.Time
	// B is the blocking factor from lower-priority non-preemptable work.
	B model.Time
	// Trans identifies the transaction (process graph). Offsets are
	// related only inside one transaction; use distinct values (or -1)
	// for independent tasks.
	Trans int
	// NonPreemptive marks CAN messages: once started they cannot be
	// interfered with, so the interference window excludes C.
	NonPreemptive bool
}

// Result is the analysis outcome for one task.
type Result struct {
	// W is the interference/queuing delay w_i.
	W model.Time
	// R is the worst-case response time J_i + w_i + C_i, measured from
	// the earliest activation O_i (i.e. the completion happens no later
	// than transaction release + O_i + R_i).
	R model.Time
	// Converged is false when the fixed point exceeded the horizon
	// (resource overload); W and R are then clamped at the horizon and
	// must be treated as "much too large" rather than exact.
	Converged bool
}

// Options tunes the analysis.
type Options struct {
	// Horizon caps every fixed point; a diverging w is clamped here.
	// Required, must be positive.
	Horizon model.Time
}

// RelOffset returns O_ij, the phase of task j relative to task i within
// j's period, when both belong to the same transaction; unrelated tasks
// get 0 (unknown phasing, worst case).
func RelOffset(oi, oj, tj model.Time, sameTrans bool) model.Time {
	if !sameTrans {
		return 0
	}
	d := (oj - oi) % tj
	if d < 0 {
		d += tj
	}
	return d
}

// CountArrivals is the general interference count used by the analysis:
// the number of instances of an interfering task j (jitter jj, relative
// offset oij, period tj) that can delay a window of length win starting
// at the analyzed task's activation.
//
// For unrelated tasks (sameTrans false) it reduces to the classic
// critical-instant counts, with num = win + jj - oij:
//
//   - inclusive false: ceil(num/tj) when num > 0, else 0 — how many
//     activations land inside an interference window of length win;
//   - inclusive true: floor(num/tj) + 1 when num >= 0, else 0 — the
//     closed window, counting an activation at the very first instant.
//     This is the right count for queue-style interference (a message
//     entering a priority queue at the same instant as m, with higher
//     priority, is transmitted ahead of m), where the paper's ceil form
//     would miss the simultaneous arrival.
//
// For tasks of the same transaction the relative offset anchors j's
// releases, and an instance released *before* the window can still be
// pending when the window opens (it lingers for up to back ticks after
// its release, where back is j's response time from the previous
// analysis pass). The paper's single forward window misses such
// lingering instances; the simulator exposed the resulting optimism, so
// the window is extended backward by jj + back.
func CountArrivals(win, jj, oij, tj, back model.Time, inclusive, sameTrans bool) model.Time {
	num := win + jj - oij
	var kmax model.Time
	if inclusive {
		kmax = floorDiv(num, tj)
	} else {
		kmax = ceilDiv(num, tj) - 1
	}
	var kmin model.Time
	if sameTrans {
		// Earliest instance that can still be pending when the window
		// opens; never above 0, because whether the k=0 instance lands
		// inside the window is decided by the forward bound alone.
		kmin = floorDiv(-oij-jj-back, tj) + 1
		if kmin > 0 {
			kmin = 0
		}
	}
	if kmax < kmin {
		return 0
	}
	return kmax - kmin + 1
}

// floorDiv returns floor(a/b) for b > 0 (Go's / truncates toward zero).
func floorDiv(a, b model.Time) model.Time {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// ceilDiv returns ceil(a/b) for b > 0.
func ceilDiv(a, b model.Time) model.Time {
	return floorDiv(a+b-1, b)
}

// maxResponsePasses caps the outer iteration that feeds response times
// back into the lingering-instance windows of same-transaction tasks.
const maxResponsePasses = 64

// AnalyzeStable computes the response times of all tasks into res. The
// jitters J are taken as inputs (the holistic propagation of jitters
// along process graphs is driven by the caller, see internal/core). res
// is parallel to tasks, and resp is scratch of the same length: the
// caller owns both, so an analysis that runs many passes over one task
// set allocates nothing here. Their contents on entry are ignored.
//
// Internally the analysis runs to a global fixed point: the lingering
// window of same-transaction interference (see CountArrivals) needs the
// interferers' response times, which start at zero and grow
// monotonically across passes until stable. stable reports whether it
// stabilized within the pass budget; when it did not, every task is
// marked unconverged. The per-resource analysis of internal/core's Memo
// uses the flag to keep that marking exact when the task set is
// analyzed one resource at a time.
//
// hp must be HigherPriorityIndex(tasks), or the index of a task set with
// the same resources and priorities: it depends on nothing else, so a
// caller that re-analyzes one task set with new offsets and jitters
// builds it once.
//
// The per-pass interference fixed points are warm-started from the
// previous pass's values: the response vector grows monotonically across
// passes and the interference count is monotone in it, so each pass's
// least fixed point bounds the next one's from below. The pass
// trajectory — and with it every W/R value, every convergence flag and
// the pass budget — is identical to a cold iteration.
func AnalyzeStable(tasks []Task, hp [][]int, opt Options, res []Result, resp []model.Time) (stable bool, err error) {
	if opt.Horizon <= 0 {
		return false, fmt.Errorf("rta: positive horizon required, got %d", opt.Horizon)
	}
	if err := ValidateTasks(tasks); err != nil {
		return false, err
	}
	if len(hp) != len(tasks) {
		return false, fmt.Errorf("rta: priority index covers %d tasks, want %d", len(hp), len(tasks))
	}
	if len(res) != len(tasks) || len(resp) != len(tasks) {
		return false, fmt.Errorf("rta: %d results and %d responses for %d tasks", len(res), len(resp), len(tasks))
	}
	clear(res)
	clear(resp)
	for pass := 0; pass < maxResponsePasses; pass++ {
		changed := false
		for i := range tasks {
			// res[i].W holds the previous pass's fixed point (zero
			// in the first pass, which analyzeOne raises to B_i).
			res[i] = analyzeOne(tasks, i, opt.Horizon, resp, hp[i], res[i].W)
		}
		for i := range res {
			if res[i].R != resp[i] {
				resp[i] = res[i].R
				changed = true
			}
		}
		if !changed {
			return true, nil
		}
	}
	for i := range res {
		res[i].Converged = false
	}
	return false, nil
}

// HigherPriorityIndex precomputes, per task, the indices of the tasks
// that can interfere with it (same resource, higher priority), so the
// fixed-point loops touch only relevant tasks. Priorities are unique per
// resource (ValidateTasks), so once the indices are sorted by resource
// and priority, each task's list is the run of its resource before it:
// every list is a window of one shared slice. The interference sums do
// not depend on the order of a list.
func HigherPriorityIndex(tasks []Task) [][]int {
	order := make([]int, len(tasks))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(tasks[a].Resource, tasks[b].Resource); c != 0 {
			return c
		}
		return cmp.Compare(tasks[a].Priority, tasks[b].Priority)
	})
	hp := make([][]int, len(tasks))
	start := 0
	for k, i := range order {
		if tasks[i].Resource != tasks[order[start]].Resource {
			start = k
		}
		hp[i] = order[start:k:k]
	}
	return hp
}

// ValidateTasks checks the structural requirements: positive C and T,
// non-negative J/B/O, unique priorities per resource.
func ValidateTasks(tasks []Task) error {
	for i, t := range tasks {
		if t.C <= 0 {
			return fmt.Errorf("rta: task %s has non-positive C %d", name(t, i), t.C)
		}
		if t.T <= 0 {
			return fmt.Errorf("rta: task %s has non-positive T %d", name(t, i), t.T)
		}
		if t.J < 0 || t.B < 0 || t.O < 0 {
			return fmt.Errorf("rta: task %s has negative J/B/O", name(t, i))
		}
		// Every earlier task passed this check, so at most one of them
		// shares t's resource and priority.
		for j := range tasks[:i] {
			if tasks[j].Resource == t.Resource && tasks[j].Priority == t.Priority {
				return fmt.Errorf("rta: tasks %s and %s share priority %d on resource %d", name(tasks[j], j), name(t, i), t.Priority, t.Resource)
			}
		}
	}
	return nil
}

func name(t Task, i int) string {
	if t.Name != "" {
		return t.Name
	}
	return fmt.Sprintf("#%d", i)
}

// analyzeOne solves the interference fixed point of task i under the
// current response vector, iterating from the warm starting point
// (warm == B_i for a cold start). Any warm value at or below the least
// fixed point yields the identical result: the iteration is monotone
// non-decreasing and every iterate stays bounded by the fixed point, so
// the horizon test and the converged flag cannot trigger differently.
func analyzeOne(tasks []Task, i int, horizon model.Time, resp []model.Time, hp []int, warm model.Time) Result {
	me := tasks[i]
	w := me.B
	if warm > w {
		w = warm
	}
	// Termination needs no iteration guard: below the least fixed point
	// every iterate strictly increases (f(w) <= w would make w a prefix
	// point below the least fixed point), so the loop either reaches the
	// fixed point or crosses the horizon within horizon steps.
	for {
		win := w
		if !me.NonPreemptive {
			win += me.C
		}
		next := me.B
		for _, j := range hp {
			o := &tasks[j]
			same := o.Trans == me.Trans && o.Trans >= 0
			oij := RelOffset(me.O, o.O, o.T, same)
			next += CountArrivals(win, o.J, oij, o.T, resp[j], me.NonPreemptive, same) * o.C
		}
		if next == w {
			return Result{W: w, R: me.J + w + me.C, Converged: true}
		}
		if next > horizon {
			return Result{W: horizon, R: me.J + horizon + me.C, Converged: false}
		}
		w = next
	}
}

func higher(a, b *Task) bool { return a.Priority < b.Priority }

// MaxLowerC returns the blocking factor B_m = max over lower-priority
// tasks on the same resource of C_k, the paper's CAN blocking term.
func MaxLowerC(tasks []Task, i int) model.Time {
	me := tasks[i]
	var b model.Time
	for j := range tasks {
		if j == i || tasks[j].Resource != me.Resource {
			continue
		}
		if higher(&me, &tasks[j]) && tasks[j].C > b {
			b = tasks[j].C
		}
	}
	return b
}
