package rta_test

import (
	"fmt"
	"testing"

	"repro/internal/can"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/rta"
)

// etTasks builds the ET task set of a gen system (2 TT + 2 ET nodes, 8
// forced inter-cluster messages) under its default configuration: the
// ET processes per CPU and the CAN legs on the bus, at the offsets and
// jitters the converged analysis assigns them, with core's horizon.
func etTasks(b *testing.B, ppn int) ([]rta.Task, model.Time) {
	b.Helper()
	sys, err := gen.Generate(gen.Spec{Seed: 7, TTNodes: 2, ETNodes: 2, ProcsPerNode: ppn, InterClusterMsgs: 8})
	if err != nil {
		b.Fatal(err)
	}
	app, arch := sys.Application, sys.Architecture
	cfg := core.DefaultConfig(app, arch)
	if err := cfg.Normalize(app); err != nil {
		b.Fatal(err)
	}
	a, err := core.Analyze(app, arch, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var tasks []rta.Task
	for _, p := range app.Procs {
		if arch.Kind(p.Node) != model.EventTriggered {
			continue
		}
		pr := a.Proc[p.ID]
		tasks = append(tasks, rta.Task{
			Name: p.Name, Resource: int(p.Node), Priority: cfg.ProcPriority[p.ID],
			C: p.WCET, T: app.PeriodOf(p.ID), O: pr.O, J: pr.J, Trans: p.Graph,
		})
	}
	for _, e := range app.Edges {
		er := a.Edge[e.ID]
		if !er.Route.UsesCAN() {
			continue
		}
		tasks = append(tasks, rta.Task{
			Name: e.Name, Resource: len(arch.Nodes), Priority: cfg.MsgPriority[e.ID],
			C: can.TimeOf(&app.Edges[e.ID], arch.CAN), T: app.EdgePeriod(e.ID),
			O: er.CANO, J: er.CANJ, Trans: e.Graph, NonPreemptive: true,
		})
	}
	for i := range tasks {
		if tasks[i].NonPreemptive {
			tasks[i].B = rta.MaxLowerC(tasks, i)
		}
	}
	hyper, err := app.Hyperperiod()
	if err != nil {
		b.Fatal(err)
	}
	return tasks, 8 * hyper
}

// BenchmarkAnalyzeStable times one global response-time fixed point over
// every ET resource of a gen system.
func BenchmarkAnalyzeStable(b *testing.B) {
	for _, ppn := range []int{4, 10, 40} {
		b.Run(fmt.Sprintf("ppn=%d", ppn), func(b *testing.B) {
			tasks, horizon := etTasks(b, ppn)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := rta.AnalyzeStable(tasks, rta.Options{Horizon: horizon}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
