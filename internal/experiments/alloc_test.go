package experiments

import (
	"fmt"
	"testing"

	"rpgo/internal/analytics"
	"rpgo/internal/core"
	"rpgo/internal/model"
	"rpgo/internal/obs"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
	"rpgo/internal/workload"
)

// maxAllocsPerTask bounds the heap allocations of one task on the streaming
// null-task path: submit, agent pipeline, placement, launch, sink fold.
// The per-task records (trace, edges, launch request with its job and
// placement) come from arenas or from one dispatch record per attempt, so
// the count is a small constant, independent of host speed.
const maxAllocsPerTask = 2

// TestNullTaskAllocsPerTask runs the Table 1 null-task cell of every launch
// path at 16 nodes into an obs.Fold, with the task descriptions and UIDs
// built once up front, and bounds the session's allocations per task. It
// counts whole sessions, setup included.
func TestNullTaskAllocsPerTask(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const nodes, instances = 16, 4
	cells := []struct {
		path string
		cell ThroughputConfig
	}{
		{"srun", SrunCell(nodes, Null, 0, 1)},
		{"flux_n", FluxNCell(nodes, instances, Null, 0, 1)},
		{"dragon", DragonCell(nodes, Null, 0, 1)},
		{"flux_dragon", HybridCell(nodes, instances, 0, 0, 1)},
		{"prrte", ThroughputConfig{
			Name: "prrte", Nodes: nodes, Workload: Null,
			Partitions: []spec.PartitionConfig{{Backend: spec.BackendPRRTE, Instances: 1}},
		}},
	}
	for _, c := range cells {
		t.Run(c.path, func(t *testing.T) {
			n := workload.FullDensityCount(nodes, CoresPerNode)
			tds := workload.Null(n)
			if c.path == "flux_dragon" {
				tds = workload.Mixed(n/2, n-n/2, 0)
			}
			for i, td := range tds {
				td.UID = fmt.Sprintf("task.%06d", i)
			}
			var final int
			allocs := testing.AllocsPerRun(3, func() {
				sess := core.NewSession(core.Config{Seed: 1, Sink: obs.NewFold()})
				pilot, err := sess.SubmitPilot(spec.PilotDescription{
					Nodes: c.cell.Nodes, SMT: 1, Partitions: c.cell.Partitions,
				})
				if err != nil {
					t.Fatal(err)
				}
				tm := sess.TaskManager(pilot)
				tm.Submit(tds)
				if err := tm.Wait(); err != nil {
					t.Fatal(err)
				}
				final = tm.FinalCount()
			})
			if final != n {
				t.Fatalf("%d of %d tasks final", final, n)
			}
			if per := allocs / float64(n); per > maxAllocsPerTask {
				t.Errorf("%.2f allocs per task (%.0f per %d-task session), want ≤ %d",
					per, allocs, n, maxAllocsPerTask)
			} else {
				t.Logf("%.2f allocs per task", per)
			}
		})
	}
}

// maxCkptAllocsPerTask bounds the heap allocations of one task of a
// checkpointed training fan-out under node failures: node-local stage-in,
// periodic checkpoint writes, relocation with restore, retries, and the
// post-run blame decomposition. Each dispatch attempt is one record, each
// transfer reuses a recycled flow, and transfer UIDs, contention edges and
// retained transfer traces come from blocks, so the count per task is a
// small constant, independent of host speed.
const maxCkptAllocsPerTask = 30

// TestCheckpointAllocsPerTask runs the checkpoint/failure cell that the
// ckpt_failures benchmark runs — a 16×16 checkpointed TrainingFanout on
// one 16-node Flux pilot under seeded node failures with data-aware
// placement — plus its blame analysis, with the task descriptions built
// once up front, and bounds the allocations per task.
func TestCheckpointAllocsPerTask(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const nodes, shards, perShard = 16, 16, 16
	tds := workload.TrainingFanout(shards, perShard, 1<<28, 120*sim.Second)
	for i, td := range tds {
		td.UID = fmt.Sprintf("task.%06d", i)
		td.MaxRetries = 5
		td.CheckpointInterval = 10 * sim.Second
		td.CheckpointBytes = 1 << 27
		td.CheckpointDest = spec.TierSharedFS
	}
	params := model.Default()
	params.Fault = model.FaultParams{NodeMTBF: 120, NodeDowntime: 60, Horizon: 1200}
	var final, retries int
	allocs := testing.AllocsPerRun(3, func() {
		sess := core.NewSession(core.Config{Seed: 7, Params: &params})
		pilot, err := sess.SubmitPilot(spec.PilotDescription{
			Nodes: nodes, SMT: 1, Partitions: FluxPartitions(1), Placement: spec.PlaceDataAware,
		})
		if err != nil {
			t.Fatal(err)
		}
		tm := sess.TaskManager(pilot)
		tm.Submit(tds)
		if err := tm.Wait(); err != nil {
			t.Fatal(err)
		}
		analytics.BlameFromTraces(sess.Profiler.Tasks())
		final = tm.FinalCount()
		retries = pilot.Agent.Retries()
	})
	if final != len(tds) || retries == 0 {
		t.Fatalf("%d of %d tasks final after %d retries; the cell must finish under failures",
			final, len(tds), retries)
	}
	if per := allocs / float64(len(tds)); per > maxCkptAllocsPerTask {
		t.Errorf("%.2f allocs per task (%.0f per %d-task session), want ≤ %d",
			per, allocs, len(tds), maxCkptAllocsPerTask)
	} else {
		t.Logf("%.2f allocs per task, %d retries", per, retries)
	}
}

// TestRunThroughputRejectsBadLayout: a cell whose pilot layout cannot be
// built returns the error instead of panicking, and runs no repetition.
func TestRunThroughputRejectsBadLayout(t *testing.T) {
	res := RunThroughput(HybridCell(4, 3, 0, 0, 1))
	if res.Err == nil {
		t.Fatal("3 instances per runtime on 2 nodes each: want an error")
	}
	if len(res.Reps) != 0 {
		t.Fatalf("%d reps ran for an invalid cell", len(res.Reps))
	}
	if ok := RunThroughput(HybridCell(4, 2, 0, 0, 1)); ok.Err != nil || len(ok.Reps) != 1 {
		t.Fatalf("valid cell: err %v, %d reps", ok.Err, len(ok.Reps))
	}
}
