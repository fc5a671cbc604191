// Package dragon models the Dragon distributed runtime: a lightweight,
// high-throughput dispatcher for Python functions and (less efficiently)
// executable tasks.
//
// Mechanisms mirrored from the paper (§3.2.2, §4.1.4):
//
//   - a single runtime spans its whole partition; there is no internal
//     partitioning or explicit co-scheduling — resource management is
//     implicit (worker processes occupy cores);
//   - dispatch is centralized: one dispatcher pushes work to node-local
//     workers over shared-memory queues, so throughput is largely
//     independent of node count at small scale and *degrades* as the
//     span grows (R(n) = R0/(1+n/N0));
//   - function tasks take the native in-memory fast path; executables pay
//     a fork/exec penalty (lower R0);
//   - completion events flow back asynchronously through a shmem queue to
//     a watcher;
//   - bootstrap is ≈9 s (Fig 7) and guarded by a startup timeout so a hung
//     runtime cannot stall RP.
package dragon

import (
	"math"

	"rpgo/internal/launch"
	"rpgo/internal/model"
	"rpgo/internal/platform"
	"rpgo/internal/rng"
	"rpgo/internal/sim"
	"rpgo/internal/slurm"
	"rpgo/internal/spec"
)

// Runtime is one Dragon runtime over a resource partition, on the
// launch.Daemon chassis.
type Runtime struct {
	launch.Daemon
	params model.DragonParams
	rand   *rng.Stream

	// dispatcher serializes task launches (the centralized design the
	// paper measures).
	dispatcher *sim.Server[*launch.Job]
	rateMult   float64
	eta        float64

	// Prebound hot-path callbacks for the engine's pooled events.
	arrivedFn func(any)
	hopFn     func(any)
}

// Config carries runtime construction options.
type Config struct {
	Name   string
	Params model.DragonParams
	// Eta is the multi-runtime coordination efficiency applied by the RP
	// executor when it drives several Dragon partitions (1 for a single
	// runtime).
	Eta float64
	// FailBootstrap makes initialization hang past the startup timeout
	// (failure-injection tests).
	FailBootstrap bool
}

// NewRuntime creates and starts a runtime over the partition.
func NewRuntime(cfg Config, eng *sim.Engine, ctrl *slurm.Controller, part *platform.Allocation,
	util *platform.UtilizationTracker, src *rng.Source) *Runtime {
	if cfg.Eta <= 0 {
		cfg.Eta = 1
	}
	d := &Runtime{
		params: cfg.Params,
		eta:    cfg.Eta,
		rand:   src.Stream("dragon." + cfg.Name),
	}
	d.Init(launch.Model{
		Name:    cfg.Name,
		Backend: spec.BackendDragon,
		Down:    "dragon runtime down",
		Unfit:   "task %s cannot fit partition of %d nodes",
		Pump:    d.pump,
		Report:  d.report,
		Noun:    "dragon runtime",
		Boot:    func() { d.boot(false) },
	}, eng, ctrl, part, util)
	d.rateMult = d.rand.LogNormal(1, cfg.Params.RunSigma)
	d.arrivedFn = d.submitArrived
	d.hopFn = d.completeHop
	d.dispatcher = sim.NewServer(eng, 1, d.serviceTime, d.dispatched)
	d.boot(cfg.FailBootstrap)
	return d
}

// boot brings the runtime up through one srun; worker bring-up cost is
// part of the bootstrap latency. A startup timeout guards it: if the
// runtime is not up in time, RP must not stall (§3.2.2). hang makes the
// runtime never come up, so the timeout fires instead.
func (d *Runtime) boot(hang bool) {
	d.GuardBoot(sim.Seconds(d.params.StartupTimeout), "dragon bootstrap timed out")
	boot := d.params.BootstrapMedian +
		d.params.BootstrapPerLogNode*math.Log2(float64(d.Nodes())+1)
	dur := sim.Seconds(d.rand.LogNormal(boot, d.params.BootstrapSigma))
	if hang {
		return
	}
	d.BootStep(dur)
}

// Rate returns the effective dispatch rate for a task kind.
func (d *Runtime) Rate(kind spec.TaskKind) float64 {
	var r float64
	if kind == spec.Function {
		r = d.params.FuncRate(d.Nodes())
	} else {
		r = d.params.ExecRate(d.Nodes())
	}
	return r * d.rateMult * d.eta
}

// Submit implements launch.Launcher: the task is serialized and pushed to
// the runtime over a shmem pipe.
func (d *Runtime) Submit(r *launch.Request) {
	d.Eng.AfterCall(sim.Seconds(d.params.ShmemLatency), d.arrivedFn, r)
}

// submitArrived runs admission when the serialized task reaches the
// runtime.
func (d *Runtime) submitArrived(arg any) { d.Daemon.Submit(arg.(*launch.Request)) }

// pump places queued tasks (implicit resource management: first free
// worker slots win) and feeds the centralized dispatcher.
func (d *Runtime) pump() {
	for j := d.Next(0); j != nil; j = d.Next(0) {
		d.dispatcher.Submit(j)
	}
}

func (d *Runtime) serviceTime(j *launch.Job) sim.Duration {
	rate := d.Rate(j.Req.TD.Kind)
	return sim.Seconds(d.rand.Exp(1 / rate))
}

// dispatched runs when the dispatcher finishes serializing a launch: the
// worker spawns the process (exec) or invokes the function in-memory.
func (d *Runtime) dispatched(j *launch.Job) {
	if !d.Live(j) {
		return
	}
	var spawn float64
	if j.Req.TD.Kind == spec.Executable {
		spawn = d.rand.LogNormal(0.020, d.params.SpawnSigma) // fork/exec
	} else {
		spawn = d.rand.LogNormal(0.002, d.params.SpawnSigma) // in-memory call
	}
	d.Eng.AfterCall(sim.Seconds(spawn), d.StartFn(), j)
}

// report sends a finished task's completion event back over the shmem
// queue.
func (d *Runtime) report(j *launch.Job) {
	d.Eng.AfterCall(sim.Seconds(d.params.ShmemLatency), d.hopFn, j)
}

// completeHop delivers the completion after the shmem return hop.
func (d *Runtime) completeHop(arg any) { d.Complete(arg.(*launch.Job)) }
