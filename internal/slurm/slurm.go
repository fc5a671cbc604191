// Package slurm models the system-level resource and job management layer:
// a Slurm controller with Frontier's concurrency ceiling on srun
// invocations, a step-registration service whose rate degrades with
// allocation size, and an srun-based task launcher.
//
// Two properties drive every srun result in the paper and are first-class
// mechanisms here:
//
//  1. a system-wide cap (112 on Frontier) on concurrently active srun
//     processes — each srun wraps its task for the task's entire lifetime,
//     so task concurrency is capped regardless of free cores (§4.1.1,
//     Fig 4);
//  2. step registration through the central controller, a serial bottleneck
//     whose service rate decays with the number of nodes in the allocation
//     (§6: 152 tasks/s at 1 node → 61 tasks/s at 4 nodes).
package slurm

import (
	"rpgo/internal/launch"
	"rpgo/internal/model"
	"rpgo/internal/platform"
	"rpgo/internal/profiler"
	"rpgo/internal/rng"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
)

// Controller is the machine-wide Slurm controller. All sruns in a session —
// task launches and backend-instance bootstraps alike — share its ceiling.
type Controller struct {
	eng     *sim.Engine
	params  model.SrunParams
	ceiling *sim.Semaphore
	// registrar serializes step creation through the central daemon.
	registrar *sim.Server[stepReq]
	rand      *rng.Stream
}

// stepReq is one step registration, queued by value: fn(arg) runs once
// the registrar has served it.
type stepReq struct {
	allocNodes int
	stepNodes  int
	fn         func(any)
	arg        any
}

// NewController returns a controller with the given parameters.
func NewController(eng *sim.Engine, params model.SrunParams, src *rng.Source) *Controller {
	c := &Controller{
		eng:     eng,
		params:  params,
		ceiling: sim.NewSemaphore(eng, params.Ceiling),
		rand:    src.Stream("slurm.controller"),
	}
	c.registrar = sim.NewServer(eng, 1, c.serviceTime, c.registered)
	return c
}

// Params returns the controller's parameter set.
func (c *Controller) Params() model.SrunParams { return c.params }

func (c *Controller) serviceTime(r stepReq) sim.Duration {
	mu := c.params.Mu(r.allocNodes)
	// Exponential service around the mean registration time models the
	// controller's RPC and bookkeeping variability; multi-node MPI steps
	// pay a co-scheduling surcharge.
	mean := c.params.StepCost(r.stepNodes) / mu
	return sim.Seconds(c.rand.Exp(mean))
}

// Ceiling exposes the srun concurrency semaphore (tests assert HighWater).
func (c *Controller) Ceiling() *sim.Semaphore { return c.ceiling }

// StartStep acquires an srun slot and registers a job step. allocNodes is
// the size of the surrounding allocation (controller contention scales with
// it); stepNodes is the size of the step being launched (multi-node steps
// pay a co-scheduling surcharge). started fires when the srun process may
// exec, receiving a release function the caller must invoke exactly once
// when the srun exits.
func (c *Controller) StartStep(allocNodes, stepNodes int, started func(release func())) {
	c.ceiling.Acquire(1, func() {
		c.register(allocNodes, stepNodes, func(any) {
			released := false
			started(func() {
				if released {
					panic("slurm: step released twice")
				}
				released = true
				c.endStep()
			})
		}, nil)
	})
}

// register queues a step with the registrar, the second half of a step
// start after its ceiling slot was granted; fn(arg) runs once the step is
// registered. Task launches call it through prebound callbacks
// (SrunLauncher.acquired), so a task's step costs no allocation.
func (c *Controller) register(allocNodes, stepNodes int, fn func(any), arg any) {
	c.registrar.Submit(stepReq{allocNodes: allocNodes, stepNodes: stepNodes, fn: fn, arg: arg})
}

// registered runs a served step's continuation.
func (c *Controller) registered(r stepReq) { r.fn(r.arg) }

// endStep frees the ceiling slot of an exited srun.
func (c *Controller) endStep() { c.ceiling.Release(1) }

// SrunLauncher launches tasks through srun within one resource partition.
// It implements launch.Launcher on the launch.Base chassis. Placement is
// done by RP's scheduler logic (the Placer); srun only starts the placed
// processes, gated by the controller ceiling each job holds for its whole
// lifetime (the chassis's Exit hook frees it). srun has no daemon: it is
// ready at once and cannot crash.
type SrunLauncher struct {
	launch.Base
	ctrl *Controller
	rand *rng.Stream
	// rateMult is the per-run variability multiplier on prolog latency.
	rateMult float64
	// acquiredFn and registeredFn are the prebound step stages, carrying
	// the *launch.Job as their event argument.
	acquiredFn   func(any)
	registeredFn func(any)
}

// NewSrunLauncher returns a launcher over the partition.
func NewSrunLauncher(name string, eng *sim.Engine, ctrl *Controller, part *platform.Allocation,
	util *platform.UtilizationTracker, src *rng.Source) *SrunLauncher {
	s := &SrunLauncher{ctrl: ctrl, rand: src.Stream("srun." + name)}
	s.Init(launch.Model{
		Name:    name,
		Backend: spec.BackendSrun,
		Down:    "launcher drained",
		Unfit:   "task %s cannot fit partition of %d nodes",
		Pump:    s.pump,
		Exit:    ctrl.endStep,
	}, eng, part, util)
	s.rateMult = s.rand.LogNormal(1, ctrl.params.RunSigma)
	s.acquiredFn = s.acquired
	s.registeredFn = s.registered
	return s
}

// pump places queued tasks and hands them to srun. Placement is FCFS with
// head-of-line blocking, like RP's default continuous scheduler — except
// that tasks whose input data already sits on a free node may jump the
// queue (the shared placer's data-aware affinity pass).
func (s *SrunLauncher) pump() {
	for j := s.Next(0); j != nil; j = s.Next(0) {
		s.launch(j)
	}
}

// launch acquires a ceiling slot and registers the step; the process
// starts once srun's prolog finished, and the slot frees when it exits.
func (s *SrunLauncher) launch(j *launch.Job) {
	j.StepAt = s.Eng.Now()
	s.ctrl.ceiling.AcquireCall(1, s.acquiredFn, j)
}

// acquired runs once the job holds a ceiling slot: register its step.
func (s *SrunLauncher) acquired(arg any) {
	j := arg.(*launch.Job)
	stepNodes := j.Req.TD.Nodes
	if stepNodes < 1 {
		stepNodes = 1
	}
	s.ctrl.register(s.Nodes(), stepNodes, s.registeredFn, j)
}

// registered runs once the job's step is registered: srun's prolog runs,
// then the process starts.
func (s *SrunLauncher) registered(arg any) {
	j := arg.(*launch.Job)
	// The wait for a ceiling slot (and the controller's serial step
	// registrar) is queueing behind a system-wide throttle, not
	// placement: Fig 4's utilization cap shows up here.
	if tr := j.Req.Trace; tr != nil {
		if now := s.Eng.Now(); now > j.StepAt {
			tr.AddEdge(profiler.CausalEdge{
				Kind: profiler.EdgeQueued, From: j.StepAt, To: now, Ref: "srun.ceiling",
			})
		}
	}
	prolog := s.ctrl.params.PrologMedian / s.rateMult
	d := sim.Seconds(s.rand.LogNormal(prolog, s.ctrl.params.PrologSigma))
	s.Eng.AfterCall(d, s.StartFn(), j)
}
