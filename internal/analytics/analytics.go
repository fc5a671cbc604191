// Package analytics is the post-mortem analysis layer, mirroring
// RADICAL-Analytics: it consumes profiler traces and derives the paper's
// characterization quantities — per-state durations, overhead
// decomposition (middleware vs backend vs execution), per-backend
// breakdowns, and exportable timeline records.
//
// The paper (§3.2.1) relies on exactly this capability: "events such as
// task submission timestamps, Flux job IDs, and resource assignment
// details are recorded, supporting the fine-grained characterization of
// workflow performance".
package analytics

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"rpgo/internal/profiler"
	"rpgo/internal/sim"
)

// Durations decomposes one task's lifetime into the pipeline segments the
// paper's overhead analysis uses. All values are in seconds; segments whose
// boundary timestamps are unset are NaN.
type Durations struct {
	// Middleware is submit → scheduled: client pipe, staging, agent
	// scheduler queue.
	Middleware float64
	// Executor is scheduled → launch: executor serialization and
	// instance selection.
	Executor float64
	// Backend is launch → start: the task runtime system's queueing,
	// placement and process spawn — the quantity Figs 5–6 characterize.
	Backend float64
	// Execution is start → end: the task body itself.
	Execution float64
	// Finalize is end → final: output staging and bookkeeping.
	Finalize float64
}

func seg(a, b sim.Time) float64 {
	if a < 0 || b < 0 {
		return math.NaN()
	}
	return b.Sub(a).Seconds()
}

// Decompose splits one trace into segments.
func Decompose(tr *profiler.TaskTrace) Durations {
	return Durations{
		Middleware: seg(tr.Submit, tr.Scheduled),
		Executor:   seg(tr.Scheduled, tr.Launch),
		Backend:    seg(tr.Launch, tr.Start),
		Execution:  seg(tr.Start, tr.End),
		Finalize:   seg(tr.End, tr.Final),
	}
}

// Stat summarizes one segment across many tasks.
type Stat struct {
	N              int
	Mean, Min, Max float64
	P50, P95       float64
}

func computeStat(vals []float64) Stat {
	var clean []float64
	for _, v := range vals {
		if !math.IsNaN(v) {
			clean = append(clean, v)
		}
	}
	if len(clean) == 0 {
		return Stat{}
	}
	sort.Float64s(clean)
	s := Stat{
		N:   len(clean),
		Min: clean[0],
		Max: clean[len(clean)-1],
		P50: clean[len(clean)/2],
		P95: clean[int(float64(len(clean))*0.95)],
	}
	sum := 0.0
	for _, v := range clean {
		sum += v
	}
	s.Mean = sum / float64(len(clean))
	return s
}

// Breakdown aggregates segment statistics over a task set.
type Breakdown struct {
	Middleware Stat
	Executor   Stat
	Backend    Stat
	Execution  Stat
	Finalize   Stat
}

// Analyze builds the overhead breakdown for a set of traces.
func Analyze(tasks []*profiler.TaskTrace) Breakdown {
	var mw, ex, be, run, fin []float64
	for _, tr := range tasks {
		d := Decompose(tr)
		mw = append(mw, d.Middleware)
		ex = append(ex, d.Executor)
		be = append(be, d.Backend)
		run = append(run, d.Execution)
		fin = append(fin, d.Finalize)
	}
	return Breakdown{
		Middleware: computeStat(mw),
		Executor:   computeStat(ex),
		Backend:    computeStat(be),
		Execution:  computeStat(run),
		Finalize:   computeStat(fin),
	}
}

// String renders the breakdown as a table.
func (b Breakdown) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %8s %10s %10s %10s %10s\n", "segment", "n", "mean[s]", "p50[s]", "p95[s]", "max[s]")
	row := func(name string, s Stat) {
		fmt.Fprintf(&sb, "%-12s %8d %10.4f %10.4f %10.4f %10.4f\n", name, s.N, s.Mean, s.P50, s.P95, s.Max)
	}
	row("middleware", b.Middleware)
	row("executor", b.Executor)
	row("backend", b.Backend)
	row("execution", b.Execution)
	row("finalize", b.Finalize)
	return sb.String()
}

// BackendStats summarizes per-backend-instance activity.
type BackendStats struct {
	Backend string
	Tasks   int
	Failed  int
	// MeanLaunchLatency is launch → start in seconds.
	MeanLaunchLatency float64
	// FirstStart / LastEnd bound the instance's active window.
	FirstStart sim.Time
	LastEnd    sim.Time
}

// PerBackend groups traces by the backend instance that executed them.
func PerBackend(tasks []*profiler.TaskTrace) []BackendStats {
	byName := map[string]*BackendStats{}
	lat := map[string][]float64{}
	for _, tr := range tasks {
		name := tr.Backend
		if name == "" {
			name = "(unassigned)"
		}
		bs := byName[name]
		if bs == nil {
			bs = &BackendStats{Backend: name, FirstStart: -1, LastEnd: -1}
			byName[name] = bs
		}
		bs.Tasks++
		if tr.Failed {
			bs.Failed++
		}
		if tr.Start >= 0 {
			if bs.FirstStart < 0 || tr.Start < bs.FirstStart {
				bs.FirstStart = tr.Start
			}
		}
		if tr.End > bs.LastEnd {
			bs.LastEnd = tr.End
		}
		if tr.Launch >= 0 && tr.Start >= 0 {
			lat[name] = append(lat[name], tr.Start.Sub(tr.Launch).Seconds())
		}
	}
	var out []BackendStats
	for name, bs := range byName {
		if vs := lat[name]; len(vs) > 0 {
			sum := 0.0
			for _, v := range vs {
				sum += v
			}
			bs.MeanLaunchLatency = sum / float64(len(vs))
		}
		out = append(out, *bs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Backend < out[j].Backend })
	return out
}

// WriteCSV exports traces as a CSV table (one row per task), the format
// RADICAL-Analytics consumes.
func WriteCSV(w io.Writer, tasks []*profiler.TaskTrace) error {
	cw := csv.NewWriter(w)
	header := []string{"uid", "backend", "cores", "gpus", "retries", "failed",
		"submit", "scheduled", "launch", "start", "end", "final"}
	if err := cw.Write(header); err != nil {
		return err
	}
	ts := func(t sim.Time) string {
		if t < 0 {
			return ""
		}
		return strconv.FormatFloat(t.Seconds(), 'f', 6, 64)
	}
	for _, tr := range tasks {
		rec := []string{
			tr.UID, tr.Backend,
			strconv.Itoa(tr.Cores), strconv.Itoa(tr.GPUs),
			strconv.Itoa(tr.Retries), strconv.FormatBool(tr.Failed),
			ts(tr.Submit), ts(tr.Scheduled), ts(tr.Launch), ts(tr.Start), ts(tr.End), ts(tr.Final),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
