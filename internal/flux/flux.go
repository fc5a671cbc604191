// Package flux models a Flux instance: a hierarchical, policy-driven
// resource manager running inside a pilot allocation.
//
// Mechanisms mirrored from the paper (§3.2.1):
//
//   - instances are srun-launched and bootstrap in ≈20 s (Fig 7), holding
//     one slot of the system srun ceiling for their lifetime;
//   - task submission is an asynchronous RPC into the broker; the broker's
//     scheduler loop places queued jobs against the instance's resource
//     ledger each cycle, with FCFS order and bounded backfill;
//   - placed jobs start through parallel job shells, so dispatch rate grows
//     with partition size (R(n) = R0·n^α, fitted to §4.1.2);
//   - job lifecycle events (start, finish, exception) flow back to the
//     subscriber asynchronously;
//   - instances can spawn nested child instances on a sub-partition
//     (hierarchical scheduling).
package flux

import (
	"fmt"
	"math"

	"rpgo/internal/launch"
	"rpgo/internal/model"
	"rpgo/internal/platform"
	"rpgo/internal/rng"
	"rpgo/internal/sim"
	"rpgo/internal/slurm"
	"rpgo/internal/spec"
)

// Instance is one Flux broker + scheduler over a resource partition, on
// the launch.Daemon chassis.
type Instance struct {
	launch.Daemon
	params model.FluxParams
	rand   *rng.Stream
	nested bool

	// rateMult is the per-run lognormal rate multiplier (repetition
	// variability, §4.1.2); eta is the multi-instance coordination
	// efficiency applied by the executor when several instances share an
	// agent.
	rateMult float64
	eta      float64

	cycling    bool
	tokens     float64
	lastRefill sim.Time

	// Prebound hot-path callbacks (scheduled through the engine's pooled
	// arg-carrying events, so a task's trip through the broker allocates
	// one job record instead of a chain of closures).
	cycleFn   func()
	arrivedFn func(any)
}

// Config carries instance construction options.
type Config struct {
	Name   string
	Params model.FluxParams
	// Eta is the coordination efficiency (1 for a single instance).
	Eta float64
	// Nested marks a child instance launched by a parent Flux rather
	// than by srun: it skips the srun ceiling and bootstraps faster.
	Nested bool
}

// NewInstance creates and starts an instance over the partition. ctrl may
// be nil only for nested instances.
func NewInstance(cfg Config, eng *sim.Engine, ctrl *slurm.Controller, part *platform.Allocation,
	util *platform.UtilizationTracker, src *rng.Source) *Instance {
	if cfg.Eta <= 0 {
		cfg.Eta = 1
	}
	in := &Instance{
		params: cfg.Params,
		rand:   src.Stream("flux." + cfg.Name),
		nested: cfg.Nested || ctrl == nil,
		eta:    cfg.Eta,
	}
	in.Init(launch.Model{
		Name:    cfg.Name,
		Backend: spec.BackendFlux,
		Down:    "flux instance crashed",
		Unfit:   "job %s cannot fit instance partition of %d nodes",
		Pump:    in.kick,
		Noun:    "flux instance",
		Boot:    in.boot,
		Up:      in.fillBucket,
	}, eng, ctrl, part, util)
	in.rateMult = in.rand.LogNormal(1, cfg.Params.RunSigma)
	in.cycleFn = in.cycle
	in.arrivedFn = in.submitArrived
	in.boot()
	return in
}

func (in *Instance) boot() {
	boot := in.params.BootstrapMedian +
		in.params.BootstrapPerLogNode*math.Log2(float64(in.Nodes())+1)
	d := sim.Seconds(in.rand.LogNormal(boot, in.params.BootstrapSigma))
	if in.nested {
		// Children are spawned by the parent broker: no srun, and the
		// broker tree is already up, so bootstrap is cheaper.
		in.BootAfter(d / 2)
		return
	}
	// One srun registers the whole instance (`srun -N n flux start`);
	// the broker-tree startup cost is part of the bootstrap latency.
	in.BootStep(d)
}

// fillBucket starts the token bucket full: a freshly bootstrapped broker
// bursts.
func (in *Instance) fillBucket() {
	in.lastRefill = in.Eng.Now()
	in.tokens = in.Rate() * in.params.Cycle
}

// Rate returns the instance's effective dispatch rate (jobs/s).
func (in *Instance) Rate() float64 {
	return in.params.Rate(in.Nodes()) * in.eta * in.rateMult
}

// Submit implements launch.Launcher: an asynchronous RPC into the broker.
func (in *Instance) Submit(r *launch.Request) {
	in.Eng.AfterCall(sim.Seconds(in.params.RPCLatency), in.arrivedFn, r)
}

// submitArrived runs admission when the submit RPC reaches the broker.
func (in *Instance) submitArrived(arg any) { in.Daemon.Submit(arg.(*launch.Request)) }

// SpawnNested creates a child instance on the first free sub-range of n
// nodes of this instance's partition (hierarchical scheduling). The child
// claims whole nodes from the parent's ledger for its lifetime.
func (in *Instance) SpawnNested(name string, n int, src *rng.Source) (*Instance, error) {
	part := in.Partition()
	if n > part.Size() {
		return nil, fmt.Errorf("flux: nested instance of %d nodes exceeds parent partition %d", n, part.Size())
	}
	sub := part.Slice(0, n)
	child := NewInstance(Config{
		Name:   name,
		Params: in.params,
		Nested: true,
	}, in.Eng, nil, sub, in.Utilization(), src)
	return child, nil
}

// kick schedules a scheduler pass. The broker is event-driven: submits,
// completions, and bootstrap all trigger an immediate pass, while the token
// bucket bounds the sustained dispatch rate at R(n).
func (in *Instance) kick() {
	if in.cycling || !in.Pending() {
		return
	}
	in.cycling = true
	in.Eng.Immediately(in.cycleFn)
}

// refillTokens accrues dispatch tokens at the instance rate, capped at one
// scheduler-cycle's worth of burst.
func (in *Instance) refillTokens() {
	now := in.Eng.Now()
	rate := in.Rate()
	in.tokens += rate * now.Sub(in.lastRefill).Seconds()
	cap := rate * in.params.Cycle
	if cap < 1 {
		cap = 1
	}
	if in.tokens > cap {
		in.tokens = cap
	}
	in.lastRefill = now
}

// cycle is one pass of the broker's scheduler: place queued jobs while
// dispatch tokens and resources last, then reschedule at the next token.
func (in *Instance) cycle() {
	in.cycling = false
	if !in.Pending() {
		return
	}
	in.refillTokens()
	for in.tokens >= 1 {
		// Selection: data-affinity first, then FCFS, then a bounded
		// backfill window past a blocked head (FCFS + backfill policy).
		j := in.Next(in.params.BackfillDepth)
		if j == nil {
			// Either drained, or resource-blocked: completions re-kick.
			return
		}
		in.tokens--
		// The job shell spawn latency separates allocation from exec
		// start.
		shell := in.rand.LogNormal(in.params.ShellMedian, in.params.ShellSigma)
		in.Eng.AfterCall(sim.Seconds(shell), in.StartFn(), j)
	}
	if !in.Pending() {
		return
	}
	// Token-limited: resume when the next token accrues.
	wait := sim.Seconds((1 - in.tokens) / in.Rate())
	if wait < sim.Millisecond {
		wait = sim.Millisecond
	}
	in.cycling = true
	in.Eng.After(wait, in.cycleFn)
}
