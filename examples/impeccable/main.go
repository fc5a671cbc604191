// IMPECCABLE: the paper's production-scale drug-discovery campaign — six
// concurrent workflow pipelines (docking, SST training, SST inference,
// MMPBSA scoring, ESMACS ensembles, REINVENT generation) with adaptive
// batch sizing, executed through one pilot with a Flux backend.
//
// Run with: go run ./examples/impeccable
// (Scaled to 64 nodes and 12 iterations per pipeline so it finishes in a
// couple of seconds; `rpsim -exp impeccable_srun|impeccable_flux` runs the
// paper's full 256/1024-node configurations, and `rpbench -only fig8`
// plots them.)
package main

import (
	"fmt"
	"log"

	"rpgo/internal/campaign"
	"rpgo/rp"
)

func main() {
	sess := rp.NewSession(rp.Config{Seed: 11})

	pilot, err := sess.SubmitPilot(rp.PilotDescription{
		Nodes:      64,
		Partitions: []rp.PartitionConfig{{Backend: rp.BackendFlux, Instances: 1}},
	})
	if err != nil {
		log.Fatal(err)
	}
	tm := sess.TaskManager(pilot)

	camp := campaign.New(campaign.Config{
		Nodes:      64,
		MaxIters:   12, // cap for a quick demo; 0 runs the full campaign
		MaxRetries: 2,
	}, sess, tm)

	fmt.Printf("campaign plan: %d tasks across %d pipelines\n",
		camp.PlannedTotal(), camp.NumPipelines())
	if err := camp.Start(); err != nil {
		log.Fatal(err)
	}
	if err := tm.Wait(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("campaign done: %d tasks submitted, %d failed\n",
		camp.TotalSubmitted(), camp.TotalFailed())

	// Per-workflow iteration summary.
	type agg struct {
		iters int
		tasks int
		span  float64
	}
	byWF := map[string]*agg{}
	for _, rec := range camp.Records() {
		a := byWF[rec.Workflow]
		if a == nil {
			a = &agg{}
			byWF[rec.Workflow] = a
		}
		a.iters++
		a.tasks += rec.Tasks
		a.span += rec.Completed.Sub(rec.Submitted).Seconds()
	}
	fmt.Println("\nworkflow pipelines:")
	for _, wf := range []string{"docking", "sst-training", "sst-inference", "scoring", "esmacs", "reinvent"} {
		if a := byWF[wf]; a != nil {
			fmt.Printf("  %-14s %3d iterations, %4d tasks, mean iteration %.1fs\n",
				wf, a.iters, a.tasks, a.span/float64(a.iters))
		}
	}
}
