package agent

// Tests for the data-staging subsystem at the agent level: directive
// staging through the storage hierarchy, the legacy flat-cost fallback,
// data-aware placement, and determinism of staging traces under
// contention.

import (
	"reflect"
	"slices"
	"testing"

	"rpgo/internal/data"
	"rpgo/internal/profiler"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
	"rpgo/internal/states"
	"rpgo/internal/workload"
)

// submitAll pushes a workload through the rig's agent and runs to idle.
func (r *rig) submitAll(t *testing.T, tds []*spec.TaskDescription, prefix string) []*Task {
	t.Helper()
	out := make([]*Task, len(tds))
	for i, td := range tds {
		uid := prefix + "." + itoa6(i)
		out[i] = r.task(td, uid)
		r.agent.Submit(out[i], func(*Task) {})
	}
	r.eng.Run()
	return out
}

func itoa6(n int) string {
	buf := []byte{'0', '0', '0', '0', '0', '0'}
	for i := 5; i >= 0 && n > 0; i-- {
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf)
}

func TestStagingDirectiveMovesBytes(t *testing.T) {
	r := newRig(t, spec.PilotDescription{Nodes: 2})
	td := &spec.TaskDescription{
		Kind: spec.Executable, CoresPerRank: 1, Ranks: 1,
		Duration: 10 * sim.Second,
		InputData: []spec.StagingDirective{{
			Dataset: "weights", SizeBytes: 2 * data.GB,
			Source: spec.TierSharedFS, Dest: spec.TierNodeLocal,
		}},
		OutputData: []spec.StagingDirective{{
			Dataset: "result", SizeBytes: 1 * data.GB,
			Dest: spec.TierSharedFS,
		}},
	}
	tk := r.task(td, "t0")
	r.agent.Submit(tk, func(*Task) {})
	r.eng.Run()

	if tk.State != states.TaskDone {
		t.Fatalf("task state %v (%s)", tk.State, tk.Reason)
	}
	tr := tk.Trace
	if tr.BytesIn != 2*data.GB || tr.BytesOut != 1*data.GB {
		t.Errorf("bytes in/out = %d/%d", tr.BytesIn, tr.BytesOut)
	}
	if tr.StageIn <= 0 || tr.StageOut <= 0 {
		t.Errorf("stage durations = %v/%v, want > 0", tr.StageIn, tr.StageOut)
	}
	if tr.DataMisses != 1 {
		t.Errorf("misses = %d, want 1 (cold read)", tr.DataMisses)
	}
	// Wall time = staging + compute + write-back.
	wall := tr.End.Sub(tr.Start)
	if wall <= td.Duration {
		t.Errorf("wall %v must exceed compute %v (staging occupies the node)", wall, td.Duration)
	}
	trs := r.prof.Transfers()
	if len(trs) != 2 {
		t.Fatalf("transfers = %d, want 2 (one in, one out)", len(trs))
	}
	sys := r.agent.Data()
	if sys.BytesMoved() != 3*data.GB {
		t.Errorf("BytesMoved = %d, want 3GB", sys.BytesMoved())
	}
	if len(sys.Registry().NodesHolding("weights")) != 1 {
		t.Error("weights replica not registered")
	}
	if !sys.Registry().HasTier("result", spec.TierSharedFS) {
		t.Error("result not registered on shared FS")
	}
}

func TestSecondTaskHitsReplica(t *testing.T) {
	r := newRig(t, spec.PilotDescription{Nodes: 1, Placement: spec.PlaceDataAware})
	mk := func() *spec.TaskDescription {
		return &spec.TaskDescription{
			Kind: spec.Executable, CoresPerRank: 1, Ranks: 1,
			Duration: sim.Second,
			InputData: []spec.StagingDirective{{
				Dataset: "shard", SizeBytes: data.GB,
				Source: spec.TierSharedFS, Dest: spec.TierNodeLocal,
			}},
		}
	}
	a := r.task(mk(), "a")
	r.agent.Submit(a, func(*Task) {})
	r.eng.Run()
	b := r.task(mk(), "b")
	r.agent.Submit(b, func(*Task) {})
	r.eng.Run()
	if a.Trace.DataMisses != 1 || a.Trace.DataHits != 0 {
		t.Errorf("first task hits/misses = %d/%d, want 0/1", a.Trace.DataHits, a.Trace.DataMisses)
	}
	if b.Trace.DataHits != 1 || b.Trace.DataMisses != 0 {
		t.Errorf("second task hits/misses = %d/%d, want 1/0", b.Trace.DataHits, b.Trace.DataMisses)
	}
	if b.Trace.BytesIn != 0 {
		t.Errorf("hit moved %d bytes", b.Trace.BytesIn)
	}
}

func TestSharedTierStageInCoalesces(t *testing.T) {
	r := newRig(t, spec.PilotDescription{Nodes: 2})
	mk := func() *spec.TaskDescription {
		return &spec.TaskDescription{
			Kind: spec.Executable, CoresPerRank: 1, Ranks: 1,
			Duration: sim.Second,
			InputData: []spec.StagingDirective{{
				Dataset: "weights", SizeBytes: data.GB,
				Source: spec.TierSharedFS, Dest: spec.TierBurstBuffer,
			}},
		}
	}
	a := r.task(mk(), "a")
	b := r.task(mk(), "b")
	r.agent.Submit(a, func(*Task) {})
	r.agent.Submit(b, func(*Task) {})
	r.eng.Run()
	if a.State != states.TaskDone || b.State != states.TaskDone {
		t.Fatalf("states %v/%v", a.State, b.State)
	}
	// One logical copy: a single tier transfer, the second task rides it.
	if n := len(r.prof.Transfers()); n != 1 {
		t.Fatalf("transfers = %d, want 1 (concurrent tier stage-ins must coalesce)", n)
	}
	if got := a.Trace.DataMisses + b.Trace.DataMisses; got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
	if got := a.Trace.DataHits + b.Trace.DataHits; got != 1 {
		t.Errorf("hits = %d, want 1", got)
	}
	if got := r.agent.Data().BytesMoved(); got != data.GB {
		t.Errorf("bytes moved = %d, want 1GB", got)
	}
}

// TestLegacyFlatCostRegression pins the pre-subsystem behavior: a task
// with only file counts uses the flat per-file stager, moves no modelled
// bytes, and finishes at exactly the same virtual time as before the data
// subsystem existed (golden value, seed 21).
func TestLegacyFlatCostRegression(t *testing.T) {
	r := newRig(t, spec.PilotDescription{Nodes: 2})
	td := &spec.TaskDescription{
		Kind: spec.Executable, CoresPerRank: 1, Ranks: 1,
		Duration:   10 * sim.Second,
		InputFiles: 3, OutputFiles: 2,
	}
	tk := r.task(td, "legacy")
	r.agent.Submit(tk, func(*Task) {})
	r.eng.Run()
	if tk.State != states.TaskDone {
		t.Fatalf("state %v (%s)", tk.State, tk.Reason)
	}
	tr := tk.Trace
	if tr.BytesIn != 0 || tr.BytesOut != 0 || len(r.prof.Transfers()) != 0 {
		t.Error("legacy staging must not touch the data subsystem")
	}
	if tr.DataHits != 0 || tr.DataMisses != 0 {
		t.Error("legacy staging must not count locality")
	}
	// Golden final time for seed 21, verified bit-identical against the
	// pre-subsystem tree when the data subsystem landed; a change here
	// means the legacy path's timing drifted.
	const golden = sim.Time(12170238)
	if tr.Final != golden {
		t.Errorf("legacy task final at %d µs, want %d µs", tr.Final, golden)
	}
}

// locality scenario shared by the comparison and determinism tests:
// 64 shards × 6 readers on 4 nodes (224 slots) — the first wave spreads
// each shard onto only one or two nodes, so later readers reuse replicas
// only if placement sends them there.
func fanout() []*spec.TaskDescription {
	return workload.TrainingFanout(64, 6, 4*data.GB, 2*sim.Second)
}

func runFanout(t *testing.T, policy spec.PlacementPolicy) ([]*Task, *rig) {
	t.Helper()
	r := newRig(t, spec.PilotDescription{Nodes: 4, Placement: policy})
	tasks := r.submitAll(t, fanout(), "fan")
	for _, tk := range tasks {
		if tk.State != states.TaskDone {
			t.Fatalf("task %s: %v (%s)", tk.TD.UID, tk.State, tk.Reason)
		}
	}
	return tasks, r
}

func makespanOf(tasks []*Task) sim.Duration {
	trs := make([]*profiler.TaskTrace, len(tasks))
	for i, tk := range tasks {
		trs[i] = tk.Trace
	}
	var first, last sim.Time = -1, -1
	for _, tr := range trs {
		if first < 0 || tr.Submit < first {
			first = tr.Submit
		}
		if tr.Final > last {
			last = tr.Final
		}
	}
	return last.Sub(first)
}

// runHandoff drives a 3-stage producer→consumer pipeline with a stage
// barrier (eng.Run drains each batch): consumers can only read locally if
// placement sends them to their producer's node.
func runHandoff(t *testing.T, policy spec.PlacementPolicy) ([]*Task, *rig) {
	t.Helper()
	r := newRig(t, spec.PilotDescription{Nodes: 4, Placement: policy})
	var all []*Task
	for si, batch := range workload.Handoff(3, 448, 4*data.GB, 2*sim.Second) {
		all = append(all, r.submitAll(t, batch, "h"+itoa6(si))...)
	}
	for _, tk := range all {
		if tk.State != states.TaskDone {
			t.Fatalf("task %s: %v (%s)", tk.TD.UID, tk.State, tk.Reason)
		}
	}
	return all, r
}

func TestDataAwarePlacementReducesMakespan(t *testing.T) {
	packTasks, packRig := runHandoff(t, spec.PlacePack)
	awareTasks, awareRig := runHandoff(t, spec.PlaceDataAware)

	packSpan := makespanOf(packTasks)
	awareSpan := makespanOf(awareTasks)
	packBytes := packRig.agent.Data().BytesMoved()
	awareBytes := awareRig.agent.Data().BytesMoved()
	t.Logf("pack:  makespan=%v bytes=%dGB hit=%.2f", packSpan, packBytes>>30, packRig.agent.Data().HitRate())
	t.Logf("aware: makespan=%v bytes=%dGB hit=%.2f", awareSpan, awareBytes>>30, awareRig.agent.Data().HitRate())
	if awareBytes >= packBytes {
		t.Errorf("data-aware moved %d bytes, pack %d — locality should reduce traffic", awareBytes, packBytes)
	}
	if awareSpan >= packSpan {
		t.Errorf("data-aware makespan %v not below pack %v", awareSpan, packSpan)
	}
	if awareRig.agent.Data().HitRate() <= packRig.agent.Data().HitRate() {
		t.Errorf("data-aware hit rate %.3f not above pack %.3f",
			awareRig.agent.Data().HitRate(), packRig.agent.Data().HitRate())
	}
}

// TestStagingDeterminism: identical seeds produce bit-identical staging
// traces under contention, for both placement policies (the data-aware
// tie-break is stable across runs).
func TestStagingDeterminism(t *testing.T) {
	for _, policy := range []spec.PlacementPolicy{spec.PlacePack, spec.PlaceDataAware} {
		capture := func() ([]profiler.TransferTrace, []sim.Time, []string) {
			tasks, r := runFanout(t, policy)
			finals := make([]sim.Time, len(tasks))
			backends := make([]string, len(tasks))
			for i, tk := range tasks {
				finals[i] = tk.Trace.Final
				backends[i] = tk.Trace.Backend
			}
			return r.prof.Transfers(), finals, backends
		}
		t1, f1, b1 := capture()
		t2, f2, b2 := capture()
		if !reflect.DeepEqual(t1, t2) {
			t.Fatalf("%v: transfer traces diverge across identical seeds", policy)
		}
		if !reflect.DeepEqual(f1, f2) {
			t.Fatalf("%v: task final times diverge across identical seeds", policy)
		}
		if !reflect.DeepEqual(b1, b2) {
			t.Fatalf("%v: task→backend assignment diverges across identical seeds", policy)
		}
		if len(t1) == 0 {
			t.Fatalf("%v: no transfers recorded", policy)
		}
	}
}

// TestPreferenceCacheMatchesFresh: the per-dispatch preference cache
// returns exactly what a fresh preferNodes builds, at every point of a
// data-aware run with stage-ins in flight, coalescing riders, a node
// failure that evicts replicas, and tasks with more than one node-local
// input.
func TestPreferenceCacheMatchesFresh(t *testing.T) {
	r := newRig(t, spec.PilotDescription{Nodes: 4, Placement: spec.PlaceDataAware})
	tds := workload.TrainingFanout(3, 8, 2*data.GB, 20*sim.Second)
	for i, td := range tds {
		if i%2 == 1 {
			td.InputData = append(td.InputData, spec.StagingDirective{
				Dataset: "aux", SizeBytes: data.GB, Source: spec.TierSharedFS, Dest: spec.TierNodeLocal,
			})
		}
	}
	recs := make([]*attempt, len(tds))
	for i, td := range tds {
		recs[i] = &attempt{dispatchRec: dispatchRec{a: r.agent, t: &Task{TD: td}}, staged: true}
		r.agent.Submit(r.task(td, "p."+itoa6(i)), func(*Task) {})
	}
	hits, rebuilds := 0, 0
	check := func() {
		for _, sr := range recs {
			key := sr.key
			got := sr.Prefer()
			if want := r.agent.preferNodes(nil, sr.t.TD); !slices.Equal(got, want) {
				t.Fatalf("at %v: cached preference %v, fresh %v", r.eng.Now(), got, want)
			}
			if sr.key == key {
				hits++
			} else {
				rebuilds++
			}
		}
	}
	failed := false
	for r.eng.Pending() > 0 {
		r.eng.RunUntil(r.eng.Now().Add(5 * sim.Millisecond))
		check()
		if !failed && r.eng.Now() > sim.Time(15*sim.Second) {
			failed = true
			r.agent.alloc.Cluster.FailNode(1)
			r.agent.FailNode(1, "test failure")
			check()
		}
	}
	t.Logf("%d hits, %d rebuilds", hits, rebuilds)
	if hits == 0 || rebuilds < len(recs)+1 {
		t.Fatalf("cache never exercised both ways: %d hits, %d rebuilds", hits, rebuilds)
	}
}
