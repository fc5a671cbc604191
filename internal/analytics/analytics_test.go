package analytics

import (
	"bytes"
	"encoding/csv"
	"math"
	"strings"
	"testing"

	"rpgo/internal/profiler"
	"rpgo/internal/sim"
)

func fullTrace(uid string) *profiler.TaskTrace {
	tr := profiler.NewTaskTrace(uid)
	tr.Submit = sim.Time(0)
	tr.Scheduled = sim.Time(1 * sim.Second)
	tr.Launch = sim.Time(2 * sim.Second)
	tr.Start = sim.Time(4 * sim.Second)
	tr.End = sim.Time(14 * sim.Second)
	tr.Final = sim.Time(15 * sim.Second)
	tr.Backend = "flux.0"
	tr.Cores = 2
	return tr
}

func TestDecompose(t *testing.T) {
	d := Decompose(fullTrace("a"))
	if d.Middleware != 1 || d.Executor != 1 || d.Backend != 2 || d.Execution != 10 || d.Finalize != 1 {
		t.Fatalf("decompose: %+v", d)
	}
}

func TestDecomposeUnsetSegments(t *testing.T) {
	tr := profiler.NewTaskTrace("x")
	tr.Submit = 0
	d := Decompose(tr)
	if !math.IsNaN(d.Middleware) || !math.IsNaN(d.Execution) {
		t.Fatalf("unset segments should be NaN: %+v", d)
	}
}

func TestAnalyzeStats(t *testing.T) {
	var tasks []*profiler.TaskTrace
	for i := 0; i < 10; i++ {
		tr := fullTrace("t")
		tr.End = tr.Start.Add(sim.Duration(i+1) * sim.Second)
		tasks = append(tasks, tr)
	}
	b := Analyze(tasks)
	if b.Execution.N != 10 {
		t.Fatalf("N = %d", b.Execution.N)
	}
	if b.Execution.Min != 1 || b.Execution.Max != 10 {
		t.Fatalf("min/max = %v/%v", b.Execution.Min, b.Execution.Max)
	}
	if b.Execution.Mean != 5.5 {
		t.Fatalf("mean = %v", b.Execution.Mean)
	}
	if b.Middleware.Mean != 1 {
		t.Fatalf("middleware mean = %v", b.Middleware.Mean)
	}
	out := b.String()
	if !strings.Contains(out, "backend") || !strings.Contains(out, "execution") {
		t.Fatalf("breakdown table:\n%s", out)
	}
}

func TestPerBackend(t *testing.T) {
	a := fullTrace("a")
	b := fullTrace("b")
	b.Backend = "dragon.0"
	b.Failed = true
	c := fullTrace("c")
	stats := PerBackend([]*profiler.TaskTrace{a, b, c})
	if len(stats) != 2 {
		t.Fatalf("backends = %d", len(stats))
	}
	// Sorted by name: dragon.0 first.
	if stats[0].Backend != "dragon.0" || stats[0].Tasks != 1 || stats[0].Failed != 1 {
		t.Fatalf("dragon stats: %+v", stats[0])
	}
	if stats[1].Backend != "flux.0" || stats[1].Tasks != 2 {
		t.Fatalf("flux stats: %+v", stats[1])
	}
	if stats[1].MeanLaunchLatency != 2 {
		t.Fatalf("launch latency = %v", stats[1].MeanLaunchLatency)
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, []*profiler.TaskTrace{fullTrace("a"), fullTrace("b")}); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 { // header + 2
		t.Fatalf("rows = %d", len(recs))
	}
	if recs[0][0] != "uid" || recs[1][0] != "a" {
		t.Fatalf("csv content: %v", recs)
	}
	if recs[1][9] != "4.000000" { // start column
		t.Fatalf("start column = %q", recs[1][9])
	}
}
