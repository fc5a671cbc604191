// report.go renders the paper's tables and figures from experiment runs:
// Table 1 (experiment matrix), Fig 4 (srun utilization ceiling), Fig 5
// (per-backend throughput), Fig 6 (flux_n instance sweep), Fig 7 (instance
// bootstrap overheads), Fig 8 (IMPECCABLE timelines), and the headline
// claims of the abstract. Output is text: tables plus ASCII plots.
package experiments

import (
	"fmt"
	"strings"

	"rpgo/internal/core"
	"rpgo/internal/metrics"
	"rpgo/internal/obs"
	"rpgo/internal/profiler"
	"rpgo/internal/spec"
)

// SuiteConfig controls the scope of a full report run.
type SuiteConfig struct {
	// Seed is the base seed; cells offset from it deterministically.
	Seed uint64
	// Reps per throughput cell.
	Reps int
	// Full includes the 1024-node cells (minutes of CPU); otherwise the
	// sweep stops at 256 nodes.
	Full bool
}

// ReportTable1 renders the experiment matrix (paper Table 1).
func ReportTable1() string {
	var b strings.Builder
	b.WriteString("Table 1: experiment matrix (workload counts: #tasks = nodes * cpn * 4, cpn = 56)\n\n")
	fmt.Fprintf(&b, "%-16s %-22s %-12s %-18s %-12s %-14s %s\n",
		"Exp ID", "workload", "launcher", "#nodes/pilot", "#partitions", "task types", "#cores/task")
	rows := [][]string{
		{"srun", "null, dummy(180s)", "srun", "1,2,4,8", "1", "exec", "1"},
		{"flux_1", "null, dummy(360s)", "flux", "1,4,16,64,256,1024", "1", "exec", "1"},
		{"flux_n", "null, dummy(180s)", "flux", "4,16,64,256,1024", "1,4,16,64", "exec", "1"},
		{"dragon", "null, dummy(180s)", "dragon", "1,4,16,64", "1", "exec", "1"},
		{"flux+dragon", "null, dummy(360s)", "flux & dragon", "2,4,8,16,64", "1..8 each", "exec & func", "1"},
		{"impeccable_srun", "impeccable", "srun", "256,1024", "1", "exec & func", "1-1344"},
		{"impeccable_flux", "impeccable", "flux", "256,1024", "1", "exec & func", "1-1344"},
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %-22s %-12s %-18s %-12s %-14s %s\n", r[0], r[1], r[2], r[3], r[4], r[5], r[6])
	}
	return b.String()
}

// ReportFig4 runs the srun ceiling experiment (896 single-core dummy 180 s
// tasks on 4 nodes) and renders the utilization timeline.
func ReportFig4(seed uint64) string {
	cfg := SrunCell(4, Dummy, seed, 1)
	res := RunThroughput(cfg)

	// Re-run a single rep to extract the concurrency series.
	sess, tasks := runForTraces(cfg, seed)
	_ = sess
	conc := metrics.ConcurrencySeries(tasks, 300)
	// Scale concurrency (1-core tasks) into utilization percent.
	for i := range conc.Points {
		conc.Points[i].V = conc.Points[i].V / float64(4*CoresPerNode) * 100
	}
	var b strings.Builder
	b.WriteString("Fig 4: srun resource utilization, 896 x 1-core dummy(180s) tasks on 4 nodes\n")
	b.WriteString("(Frontier's srun concurrency ceiling of 112 caps utilization at 50%)\n\n")
	b.WriteString(metrics.ASCIIPlot(conc, 72, 12, "CPU utilization [%] over time"))
	fmt.Fprintf(&b, "\nmeasured: utilization=%.1f%%  makespan=%.0fs  (paper: 50%%, ~1500s)\n",
		res.MeanUtil*100, res.MeanMakespan.Seconds())
	return b.String()
}

// fig5Row is one point of a Fig 5 panel.
type fig5Row struct {
	nodes int
	res   ThroughputResult
}

func renderThroughputPanel(title string, rows []fig5Row) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	fmt.Fprintf(&b, "  %-8s %-12s %-12s %-12s %s\n", "#nodes", "avg [t/s]", "max [t/s]", "peak1s [t/s]", "tasks")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-8d %-12.1f %-12.1f %-12.0f %d\n",
			r.nodes, r.res.AvgTput, r.res.MaxTput, r.res.PeakWindow, r.res.Config.taskCount())
	}
	return b.String()
}

// ReportFig5 runs the four throughput panels (srun, flux_1, dragon,
// flux+dragon) on null workloads.
func ReportFig5(sc SuiteConfig) string {
	var b strings.Builder
	b.WriteString("Fig 5: average task throughput per runtime system (null workload)\n\n")

	var rows []fig5Row
	for _, n := range []int{1, 2, 4, 8} {
		rows = append(rows, fig5Row{n, RunThroughput(SrunCell(n, Null, sc.Seed+1, sc.Reps))})
	}
	b.WriteString(renderThroughputPanel("(a) srun", rows))

	rows = nil
	nodes := []int{1, 4, 16, 64, 256}
	if sc.Full {
		nodes = append(nodes, 1024)
	}
	for _, n := range nodes {
		rows = append(rows, fig5Row{n, RunThroughput(Flux1Cell(n, Null, sc.Seed+2, sc.Reps))})
	}
	b.WriteString(renderThroughputPanel("\n(b) flux (single instance)", rows))

	rows = nil
	for _, n := range []int{1, 4, 16, 64} {
		rows = append(rows, fig5Row{n, RunThroughput(DragonCell(n, Null, sc.Seed+3, sc.Reps))})
	}
	b.WriteString(renderThroughputPanel("\n(c) dragon (single runtime, exec tasks)", rows))

	rows = nil
	for _, n := range []int{2, 4, 8, 16, 64} {
		k := n / 2
		if k > 8 {
			k = 8
		}
		rows = append(rows, fig5Row{n, RunThroughput(HybridCell(n, k, 0, sc.Seed+4, sc.Reps))})
	}
	b.WriteString(renderThroughputPanel("\n(d) flux+dragon (exec+func tasks, equal partitions per runtime)", rows))
	return b.String()
}

// ReportFig6 runs the flux_n node x instance sweep.
func ReportFig6(sc SuiteConfig) string {
	var b strings.Builder
	b.WriteString("Fig 6: flux throughput with 1-64 concurrent instances (null workload)\n\n")
	nodes := []int{4, 16, 64, 256}
	if sc.Full {
		nodes = append(nodes, 1024)
	}
	insts := []int{1, 4, 16, 64}
	fmt.Fprintf(&b, "  %-8s", "#nodes")
	for _, k := range insts {
		fmt.Fprintf(&b, " %-21s", fmt.Sprintf("%d inst avg/max", k))
	}
	b.WriteString("\n")
	for _, n := range nodes {
		fmt.Fprintf(&b, "  %-8d", n)
		for _, k := range insts {
			if k > n {
				fmt.Fprintf(&b, " %-21s", "-")
				continue
			}
			r := RunThroughput(FluxNCell(n, k, Null, sc.Seed+5, sc.Reps))
			fmt.Fprintf(&b, " %-21s", fmt.Sprintf("%.0f / %.0f", r.AvgTput, r.MaxTput))
		}
		b.WriteString("\n")
	}
	// Utilization on dummy(180 s) for representative cells.
	b.WriteString("\n  utilization (dummy 180s): ")
	for _, c := range []struct{ n, k int }{{16, 16}, {64, 16}} {
		r := RunThroughput(FluxNCell(c.n, c.k, Dummy, sc.Seed+6, 1))
		fmt.Fprintf(&b, "%dn/%di=%.1f%%  ", c.n, c.k, r.MeanUtil*100)
	}
	if sc.Full {
		r := RunThroughput(FluxNCell(1024, 16, Dummy, sc.Seed+6, 1))
		fmt.Fprintf(&b, "1024n/16i=%.1f%%  (paper: >=94.5%% up to 64n, 75.4%% at 1024n/16i)", r.MeanUtil*100)
	}
	b.WriteString("\n")
	return b.String()
}

// ReportFig7 measures instance bootstrap overheads.
func ReportFig7(sc SuiteConfig) string {
	var b strings.Builder
	b.WriteString("Fig 7: instance bootstrap overheads (paper: flux ~20s, dragon ~9s, flat in size)\n\n")
	fmt.Fprintf(&b, "  %-8s %-8s %-10s %-10s %-10s\n", "backend", "#nodes", "mean [s]", "min [s]", "max [s]")
	for _, r := range RunOverheads([]int{1, 2, 4, 16, 64}, sc.Seed+7, sc.Reps+2) {
		fmt.Fprintf(&b, "  %-8s %-8d %-10.1f %-10.1f %-10.1f\n", r.Backend, r.Nodes, r.Mean, r.Min, r.Max)
	}
	return b.String()
}

// ReportFig8 runs the four IMPECCABLE panels and renders concurrency and
// start-rate timelines.
func ReportFig8(sc SuiteConfig) string {
	var b strings.Builder
	b.WriteString("Fig 8: IMPECCABLE campaign (dummy sleep-180 tasks), srun vs flux backend\n\n")
	panels := []struct {
		label   string
		nodes   int
		backend spec.Backend
	}{
		{"(a) srun, 256 nodes", 256, spec.BackendSrun},
		{"(b) srun, 1024 nodes", 1024, spec.BackendSrun},
		{"(c) flux, 256 nodes", 256, spec.BackendFlux},
		{"(d) flux, 1024 nodes", 1024, spec.BackendFlux},
	}
	type summary struct {
		label    string
		makespan float64
		cpu, gpu float64
		tasks    int
		peak     float64
	}
	var sums []summary
	for _, p := range panels {
		res := RunImpeccable(ImpeccableConfig{Nodes: p.nodes, Backend: p.backend, Seed: sc.Seed + 8})
		b.WriteString(metrics.ASCIIPlot(res.Concurrency, 72, 10, p.label+" - running tasks"))
		b.WriteString(metrics.ASCIIPlot(res.StartRate, 72, 8, p.label+" - execution start rate [tasks/s]"))
		b.WriteString("\n")
		sums = append(sums, summary{p.label, res.Makespan.Seconds(), res.CPUUtil, res.GPUUtil, res.Tasks, res.PeakConcurrency})
	}
	fmt.Fprintf(&b, "%-22s %-12s %-10s %-10s %-8s %s\n", "panel", "makespan[s]", "cpu util", "gpu util", "#tasks", "peak conc")
	for _, s := range sums {
		fmt.Fprintf(&b, "%-22s %-12.0f %-10.2f %-10.2f %-8d %.0f\n", s.label, s.makespan, s.cpu, s.gpu, s.tasks, s.peak)
	}
	b.WriteString("\npaper: makespans ~26000/44000 (srun) vs ~22000/17500 (flux) seconds\n")
	return b.String()
}

// ReportClaims checks the abstract's headline numbers.
func ReportClaims(sc SuiteConfig) string {
	var b strings.Builder
	b.WriteString("Headline claims (abstract / Sec 6) - paper vs measured\n\n")

	srun1 := RunThroughput(SrunCell(1, Null, sc.Seed+10, sc.Reps))
	srun4 := RunThroughput(SrunCell(4, Null, sc.Seed+10, sc.Reps))
	fmt.Fprintf(&b, "  srun peaks ~152 t/s at 1 node:        measured avg %.0f, peak1s %.0f\n", srun1.AvgTput, srun1.PeakWindow)
	fmt.Fprintf(&b, "  srun degrades to ~61 t/s at 4 nodes:  measured avg %.0f\n", srun4.AvgTput)

	srunUtil := RunThroughput(SrunCell(4, Dummy, sc.Seed+11, 1))
	fmt.Fprintf(&b, "  srun utilization capped at 50%%:       measured %.1f%%\n", srunUtil.MeanUtil*100)

	fluxNodes := 256
	if sc.Full {
		fluxNodes = 1024
	}
	flux1 := RunThroughput(Flux1Cell(fluxNodes, Null, sc.Seed+12, sc.Reps))
	fmt.Fprintf(&b, "  flux_1 up to 744 t/s (avg ~300@1024): measured at %d nodes avg %.0f, max %.0f, peak1s %.0f\n",
		fluxNodes, flux1.AvgTput, flux1.MaxTput, flux1.PeakWindow)

	fluxN := RunThroughput(FluxNCell(64, 16, Null, sc.Seed+13, sc.Reps))
	fmt.Fprintf(&b, "  flux_n up to 930 t/s:                 measured 64n/16i avg %.0f, max %.0f, peak1s %.0f\n",
		fluxN.AvgTput, fluxN.MaxTput, fluxN.PeakWindow)

	hybrid := RunThroughput(HybridCell(64, 8, 0, sc.Seed+14, sc.Reps))
	hybridUtil := RunThroughput(HybridCell(64, 8, 360, sc.Seed+14, 1))
	fmt.Fprintf(&b, "  flux+dragon >1500 t/s peak:           measured 64n/8i peak1s %.0f (avg %.0f)\n",
		hybrid.PeakWindow, hybrid.AvgTput)
	fmt.Fprintf(&b, "  flux+dragon util 99.6-100%%:           measured %.2f%%\n", hybridUtil.MeanUtil*100)

	s256 := RunImpeccable(ImpeccableConfig{Nodes: 256, Backend: spec.BackendSrun, Seed: sc.Seed + 15})
	f256 := RunImpeccable(ImpeccableConfig{Nodes: 256, Backend: spec.BackendFlux, Seed: sc.Seed + 15})
	s1024 := RunImpeccable(ImpeccableConfig{Nodes: 1024, Backend: spec.BackendSrun, Seed: sc.Seed + 16})
	f1024 := RunImpeccable(ImpeccableConfig{Nodes: 1024, Backend: spec.BackendFlux, Seed: sc.Seed + 16})
	red256 := (1 - f256.Makespan.Seconds()/s256.Makespan.Seconds()) * 100
	red1024 := (1 - f1024.Makespan.Seconds()/s1024.Makespan.Seconds()) * 100
	fmt.Fprintf(&b, "  IMPECCABLE makespan reduced 30-60%%:   measured %.0f%% at 256 nodes, %.0f%% at 1024 nodes\n", red256, red1024)
	fmt.Fprintf(&b, "    makespans [s]: srun %.0f/%.0f, flux %.0f/%.0f (paper ~26000/44000 vs ~22000/17500)\n",
		s256.Makespan.Seconds(), s1024.Makespan.Seconds(), f256.Makespan.Seconds(), f1024.Makespan.Seconds())
	return b.String()
}

// ReportTelemetry runs one representative cell and renders the session's
// runtime-metrics snapshot: engine counters, placement machinery, data
// channels and the dispatch pipeline (DESIGN.md §6).
func ReportTelemetry(sc SuiteConfig) string {
	cfg := HybridCell(8, 2, 0, sc.Seed+17, 1)
	sess, _ := runForTraces(cfg, sc.Seed+17)
	var b strings.Builder
	b.WriteString("Runtime telemetry: flux+dragon cell, 8 nodes, 2 instances per runtime\n\n")
	b.WriteString(sess.MetricsSnapshot().Render())
	return b.String()
}

// ReportBlame runs a small sweep and prints one blame scorecard per cell:
// the critical-path engine's makespan decomposition (category sums equal
// makespan exactly) plus the online straggler detector's flags. Traces are
// replayed through the streaming obs.Blame sink — the same path a JSONL
// spill takes through `rptrace blame`.
func ReportBlame(sc SuiteConfig) string {
	cells := []ThroughputConfig{
		SrunCell(4, Dummy, sc.Seed+18, 1),
		Flux1Cell(16, Null, sc.Seed+18, 1),
		HybridCell(8, 2, 0, sc.Seed+18, 1),
	}
	var b strings.Builder
	b.WriteString("Blame scorecards: per-cell makespan decomposition (critical-path engine)\n")
	for _, cfg := range cells {
		_, traces := runForTraces(cfg, sc.Seed+18)
		sink := obs.NewBlame()
		for _, t := range traces {
			sink.OnTask(t)
		}
		rep := sink.Report()
		fmt.Fprintf(&b, "\n--- %s ---\n", cfg.Name)
		rep.WriteText(&b)
	}
	return b.String()
}

// runForTraces runs one repetition of a cell and returns the task traces,
// for reports that need timeline series rather than aggregates.
func runForTraces(cfg ThroughputConfig, seed uint64) (*core.Session, []*profiler.TaskTrace) {
	sess := core.NewSession(core.Config{Seed: seed, Params: cfg.Params})
	pilot, err := sess.SubmitPilot(spec.PilotDescription{
		Nodes: cfg.Nodes, SMT: 1, Partitions: cfg.Partitions,
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: %s: %v", cfg.Name, err))
	}
	tm := sess.TaskManager(pilot)
	tm.Submit(cfg.buildWorkload())
	if err := tm.Wait(); err != nil {
		panic(fmt.Sprintf("experiments: %s: %v", cfg.Name, err))
	}
	return sess, sess.Profiler.Tasks()
}
