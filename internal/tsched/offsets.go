package tsched

import (
	"repro/internal/model"
)

// OffsetOf returns the in-period offset of a TT process: the earliest
// start across its instances, relative to the instance release. The
// second value is the spread (max - min) across instances, used as an
// extra jitter term by the envelope treatment of multi-rate schedules
// (DESIGN.md decision 4). ok is false when the process is not in the
// schedule.
func (s *Schedule) OffsetOf(app *model.Application, p model.ProcID) (offset, spread model.Time, ok bool) {
	starts := s.ProcStart[p]
	if len(starts) == 0 {
		return 0, 0, false
	}
	period := app.PeriodOf(p)
	return envelope(starts, period)
}

// ArrivalOffsetOf returns the in-period worst-case bus delivery offset
// of a TTP-leg edge plus the spread across instances.
func (s *Schedule) ArrivalOffsetOf(app *model.Application, e model.EdgeID) (offset, spread model.Time, ok bool) {
	arr := s.EdgeArrival[e]
	if len(arr) == 0 {
		return 0, 0, false
	}
	return envelope(arr, app.EdgePeriod(e))
}

// envelope maps absolute per-instance times to (min in-period offset,
// spread). Instance k's in-period value is t_k - k*period; instances are
// sorted ascending by absolute time, which matches instance order
// because every job stays within (or near) its own period window.
func envelope(times []model.Time, period model.Time) (offset, spread model.Time, ok bool) {
	lo := times[0]
	hi := times[0]
	for k, t := range times {
		rel := t - model.Time(k)*period
		if k == 0 || rel < lo {
			lo = rel
		}
		if k == 0 || rel > hi {
			hi = rel
		}
	}
	return lo, hi - lo, true
}

// WorstArrivalOffset returns the largest in-period delivery offset of a
// TTP-leg edge across instances.
func (s *Schedule) WorstArrivalOffset(app *model.Application, e model.EdgeID) (model.Time, bool) {
	arr := s.EdgeArrival[e]
	if len(arr) == 0 {
		return 0, false
	}
	period := app.EdgePeriod(e)
	var worst model.Time
	for k, t := range arr {
		if rel := t - model.Time(k)*period; k == 0 || rel > worst {
			worst = rel
		}
	}
	return worst, true
}
