package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"rpgo/internal/experiments"
	"rpgo/internal/obs"
	"rpgo/internal/spec"
)

// benchSpec is the part of BENCHMARK.json the tests hold the program to.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runBench runs one tiny-scale invocation in-process and parses its last
// line of output.
func runBench(t *testing.T, workload string, seed, trace int, spans string) result {
	t.Helper()
	args := []string{
		"--workload", workload, "--seed", strconv.Itoa(seed), "--seconds", "0.01",
		"--trace", strconv.Itoa(trace), "--smoke",
	}
	if spans != "" {
		args = append(args, "--spans", spans)
	}
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("%s: exit %d: %s", workload, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("%s trace=%d: correct=%v attempted=%d failed=%d: %s",
			workload, trace, r.Correct, r.Attempted, r.Failed, errb.String())
	}
	return r
}

// TestSmokeReportsEveryMetric runs each workload at a tiny scale, untraced
// and traced, and checks that the output carries exactly the metrics
// BENCHMARK.json names, each with its unit, and that the span file is
// valid trace-event JSON.
func TestSmokeReportsEveryMetric(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	for _, w := range names {
		r := runBench(t, w, 7, 0, "")
		if len(r.Metrics) != len(s.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d", w, len(r.Metrics), len(s.EndToEnd))
		}
		for _, m := range s.EndToEnd {
			got, ok := r.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v, want unit %s", w, m.Name, got, m.Unit)
			}
			if ok && got.Value == 0 {
				t.Errorf("%s: end-to-end metric %s is zero", w, m.Name)
			}
		}

		spans := filepath.Join(t.TempDir(), "spans.json")
		r = runBench(t, w, 7, 1, spans)
		if len(r.Metrics) != len(s.PerLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", w, len(r.Metrics), len(s.PerLayer))
		}
		for _, m := range s.PerLayer {
			if got, ok := r.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: per-layer metric %s = %+v, want unit %s", w, m.Name, got, m.Unit)
			}
		}
		f, err := os.Open(spans)
		if err != nil {
			t.Fatal(err)
		}
		n, err := obs.ValidateTraceEvents(f)
		f.Close()
		if err != nil || n < 2 {
			t.Errorf("%s: span file: %d events, %v", w, n, err)
		}
	}
}

// TestPredictionsCoverLayers: every per-layer metric has a recorded
// prediction naming an end-to-end metric and workloads that exist.
func TestPredictionsCoverLayers(t *testing.T) {
	s := loadSpec(t)
	b, err := os.ReadFile("predictions.json")
	if err != nil {
		t.Fatal(err)
	}
	var p struct {
		Workloads   map[string]string `json:"workloads"`
		Predictions []struct {
			Layer string   `json:"layer"`
			Moves string   `json:"moves"`
			On    []string `json:"on"`
		} `json:"predictions"`
	}
	if err := json.Unmarshal(b, &p); err != nil {
		t.Fatal(err)
	}
	e2e := map[string]bool{}
	for _, m := range s.EndToEnd {
		e2e[m.Name] = true
	}
	predicted := map[string]bool{}
	for _, pr := range p.Predictions {
		predicted[pr.Layer] = true
		if !e2e[pr.Moves] {
			t.Errorf("prediction for %s moves unknown metric %s", pr.Layer, pr.Moves)
		}
		for _, w := range pr.On {
			if _, ok := findWorkload(w); !ok {
				t.Errorf("prediction for %s names unknown workload %s", pr.Layer, w)
			}
		}
	}
	for _, m := range s.PerLayer {
		if !predicted[m.Name] {
			t.Errorf("per-layer metric %s has no prediction", m.Name)
		}
	}
	for _, w := range workloadNames() {
		if p.Workloads[w] == "" {
			t.Errorf("workload %s has no recorded reason", w)
		}
	}
}

// TestSameSeedReproduces: two runs with one seed report identical
// simulated metrics, and their traced runs identical exact layer counts.
func TestSameSeedReproduces(t *testing.T) {
	s := loadSpec(t)
	for _, w := range workloadNames() {
		a, b := runBench(t, w, 3, 0, ""), runBench(t, w, 3, 0, "")
		for _, k := range []string{"sim_tasks_per_s", "sim_makespan_s"} {
			if a.Metrics[k] != b.Metrics[k] {
				t.Errorf("%s: %s %v then %v", w, k, a.Metrics[k], b.Metrics[k])
			}
		}
		a, b = runBench(t, w, 3, 1, ""), runBench(t, w, 3, 1, "")
		for _, m := range s.PerLayer {
			if m.Unit == "count" && !strings.HasPrefix(m.Name, "runtime.") && a.Metrics[m.Name] != b.Metrics[m.Name] {
				t.Errorf("%s: %s %v then %v", w, m.Name, a.Metrics[m.Name], b.Metrics[m.Name])
			}
		}
	}
}

// TestSeedChangesInputs: the workload seed, and only it, decides the
// generated op inputs.
func TestSeedChangesInputs(t *testing.T) {
	for _, w := range workloads {
		a, again, b := w.inputs(1, fullScale), w.inputs(1, fullScale), w.inputs(2, fullScale)
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("%s: %d and %d inputs", w.name, len(a), len(b))
		}
		differ := false
		for i := range a {
			if a[i].seed != again[i].seed || a[i].path != again[i].path {
				t.Fatalf("%s: input %d not reproducible from its seed", w.name, i)
			}
			differ = differ || a[i].seed != b[i].seed
		}
		if !differ {
			t.Errorf("%s: seeds 1 and 2 generate the same inputs", w.name)
		}
	}
}

// smokeOp runs one input of a workload at the tiny scale.
func smokeOp(t *testing.T, name string, in *input) opResult {
	t.Helper()
	w, _ := findWorkload(name)
	r, err := runOp(&config{workload: w, scale: smokeScale}, in, &opCtx{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return r
}

// TestOpsMatchRunners: each op reproduces the simulated results of the
// experiments runner it mirrors, for the same configuration and seed.
func TestOpsMatchRunners(t *testing.T) {
	const seed = 9
	for _, path := range fig8Slots {
		backend := spec.BackendSrun
		if path == "flux" {
			backend = spec.BackendFlux
		}
		want := experiments.RunImpeccable(experiments.ImpeccableConfig{
			Nodes: smokeScale.fig8Nodes, Backend: backend, Seed: seed,
		})
		got := smokeOp(t, "fig8_impeccable", &input{path: path, seed: seed})
		if got.sim.Tasks != want.Tasks || got.sim.MakespanS != want.Makespan.Seconds() ||
			got.sim.CPUUtilPct != want.CPUUtil*100 {
			t.Errorf("fig8 %s: op %+v, runner %d tasks %v makespan %v util", path, got.sim, want.Tasks, want.Makespan, want.CPUUtil)
		}
	}

	for _, path := range nullSlots {
		cell := nullCell(path, smokeScale.nullNodes)
		cell.Seed = seed
		want := experiments.RunThroughput(cell).Reps[0]
		got := smokeOp(t, "null_launch_mix", &input{path: path, seed: seed, tasks: nullTasks(path, smokeScale.nullNodes)})
		if got.sim.MakespanS != want.Makespan.Seconds() || got.sim.CPUUtilPct != want.CPUUtil*100 {
			t.Errorf("null %s: op %+v, runner makespan %v util %v", path, got.sim, want.Makespan, want.CPUUtil)
		}
	}

	sh := experiments.RunShardedImpeccable(experiments.ShardedImpeccableConfig{
		Nodes: smokeScale.shardedNodes, Pilots: smokeScale.shardedPilots, Shards: shardedShards,
		Backend: spec.BackendFlux, Seed: seed,
	})
	got := smokeOp(t, "sharded_fig8", &input{path: "flux", seed: seed})
	if got.sim.Tasks != sh.Tasks || got.sim.MakespanS != sh.Makespan.Seconds() || got.sim.CPUUtilPct != sh.CPUUtil*100 {
		t.Errorf("sharded: op %+v, runner %d tasks %v makespan %v util", got.sim, sh.Tasks, sh.Makespan, sh.CPUUtil)
	}

	sweep := experiments.RunFailureSweep(experiments.FailureSweepConfig{
		Nodes: smokeScale.ckptNodes, MTBFs: []float64{ckptMTBF}, NodeDowntime: ckptDowntime,
		Shards: smokeScale.ckptShards, TasksPerShard: smokeScale.ckptPerShard, ShardBytes: ckptShardBytes,
		TaskSeconds: ckptTaskSeconds, CheckpointSeconds: ckptInterval, CheckpointBytes: ckptBytes,
		MaxRetries: ckptMaxRetries, Horizon: ckptHorizon, Seed: seed,
	})
	for _, in := range ckptInputs(1, smokeScale)[:len(ckptPolicies)] {
		in.seed = seed
		cell := sweep.Cells[0]
		if in.policy != cell.Policy {
			cell = sweep.Cells[1]
		}
		got := smokeOp(t, "ckpt_failures", in)
		if got.sim.MakespanS != cell.Makespan.Seconds() || got.sim.Tasks != cell.Done+cell.Failed {
			t.Errorf("ckpt %s: op %+v, runner %+v", in.policy, got.sim, cell)
		}
	}
}

// TestSelfTime: a span's self time excludes the union of its children.
func TestSelfTime(t *testing.T) {
	l := newSpanLog()
	at := func(ms int) time.Time { return l.epoch.Add(time.Duration(ms) * time.Millisecond) }
	root := l.begin("op", -1, 1, at(0))
	l.add("a", root, 1, at(1), at(4))
	l.add("b", root, 1, at(3), at(6)) // overlaps a
	l.add("a", root, 1, at(7), at(8))
	l.finish(root, at(10))
	self := l.selfNs()
	if got, want := self["op"][1], int64(4*time.Millisecond); got != want {
		t.Errorf("op self time %v, want %v", time.Duration(got), time.Duration(want))
	}
	if got, want := self["a"][1], int64(4*time.Millisecond); got != want {
		t.Errorf("a self time %v, want %v", time.Duration(got), time.Duration(want))
	}
}
