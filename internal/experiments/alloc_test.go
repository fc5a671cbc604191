package experiments

import (
	"fmt"
	"testing"

	"rpgo/internal/core"
	"rpgo/internal/obs"
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
