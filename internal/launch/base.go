package launch

// The backend chassis. Every backend embeds Base — srun directly; Flux,
// Dragon and PRRTE through Daemon — and supplies only its execution model:
// a scheduling pump and the launch stages between placement and process
// start. The chassis owns the rest of the lifecycle: admission, the queue
// and placer, the in-flight record, the running list, start and finish
// accounting, node eviction, drain and telemetry and, for daemons, the
// srun-registered bootstrap, crash and restart.

import (
	"fmt"

	"rpgo/internal/platform"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
)

// Job is one placed request in flight through a backend, and the argument
// every launch stage receives through the engine's pooled arg-carrying
// events. It lives inside its Request, as does the placement Pl points to,
// so a launch allocates nothing inside a backend.
type Job struct {
	Req *Request
	Pl  *platform.Placement
	// StepAt is when the job's srun step was requested (srun only): the
	// wait from here to the registered step is the srun.ceiling queue
	// edge.
	StepAt sim.Time
	// runIdx is the slot in the running list, -1 when not running.
	runIdx int32
	// gen is the crash generation the job was placed in. A job that
	// surfaces from a launch stage after a crash is stale.
	gen uint32
}

// Model is what a backend supplies to the chassis: its identity, its
// failure reasons and its execution-model hooks.
type Model struct {
	Name    string
	Backend spec.Backend
	// Down is the failure reason for requests refused by, or stranded in
	// the launch stages of, a backend that is down: a drained srun
	// launcher or a crashed daemon.
	Down string
	// Unfit formats the failure reason for a request that can never fit
	// the partition, from its UID and the partition size in nodes.
	Unfit string
	// Pump is the backend's scheduling step: it takes placeable jobs from
	// Next and hands them to its launch stages. The chassis runs it after
	// admission, completions, evictions, bootstrap and Kick.
	Pump func()
	// Report, when set, delivers a finished job's completion in place of
	// an immediate Complete (Dragon's return hop over shared memory). It
	// must end in Complete.
	Report func(j *Job)
	// Exit, when set, runs once as each started job ends — finished,
	// evicted or killed — after its slots are released: an srun holds its
	// controller-ceiling slot for the task's whole lifetime.
	Exit func()

	// Daemons only.

	// Noun names the daemon in its shutdown reason ("flux instance").
	Noun string
	// Boot begins bootstrap, ending in BootStep or BootAfter. The backend
	// calls it once at creation; Restart calls it again.
	Boot func()
	// Up, when set, runs as the daemon comes up, before its Ready
	// callbacks are scheduled.
	Up func()
}

// Base is the chassis of a launcher without daemons of its own (srun): it
// is ready at once and cannot crash. Draining it closes admission.
type Base struct {
	// Eng is the engine driving the backend.
	Eng *sim.Engine

	m       Model
	plc     *Placer
	util    *platform.UtilizationTracker
	queue   Queue
	running []*Job
	stats   Stats

	ready     bool
	readyFns  []func()
	bootstrap sim.Duration
	// down refuses admission with m.Down: a drained srun launcher, or a
	// crashed daemon (a daemon's Drain leaves admission open).
	down   bool
	daemon bool
	gen    uint32

	// Prebound stage callbacks for the engine's pooled events.
	startFn func(any)
	doneFn  func(any)
}

// Init binds the chassis to a backend over the partition.
func (b *Base) Init(m Model, eng *sim.Engine, part *platform.Allocation, util *platform.UtilizationTracker) {
	b.Eng = eng
	b.m = m
	b.plc = NewPlacer(part)
	b.util = util
	b.ready = true
	b.startFn = b.start
	b.doneFn = b.done
}

// Name implements Launcher.
func (b *Base) Name() string { return b.m.Name }

// Backend implements Launcher.
func (b *Base) Backend() spec.Backend { return b.m.Backend }

// Nodes implements Launcher.
func (b *Base) Nodes() int { return b.plc.Partition().Size() }

// Partition returns the backend's resource partition.
func (b *Base) Partition() *platform.Allocation { return b.plc.Partition() }

// Utilization returns the tracker the backend reports busy slots to (nil
// when untracked).
func (b *Base) Utilization() *platform.UtilizationTracker { return b.util }

// Ready implements Launcher.
func (b *Base) Ready(fn func()) {
	if b.ready {
		b.Eng.Immediately(fn)
		return
	}
	b.readyFns = append(b.readyFns, fn)
}

// BootstrapOverhead implements Launcher.
func (b *Base) BootstrapOverhead() sim.Duration { return b.bootstrap }

// Stats implements Launcher.
func (b *Base) Stats() Stats {
	st := b.stats
	st.QueueLen = b.queue.Len()
	return st
}

// Telemetry implements Launcher.
func (b *Base) Telemetry() Telemetry {
	return Telemetry{Placer: b.plc.Stats(), QueueHighWater: b.queue.HighWater()}
}

// AttachPhase implements Launcher.
func (b *Base) AttachPhase(fn sim.PhaseFunc) { b.plc.Phase = fn }

// Submit implements Launcher: admission. A request the backend refuses
// (down, or too large for the partition ever to fit) fails at once;
// otherwise it queues and the pump runs.
func (b *Base) Submit(r *Request) {
	b.stats.Submitted++
	if b.down {
		b.fail(r, b.m.Down)
		return
	}
	if !b.plc.Fits(r.TD) {
		b.fail(r, fmt.Sprintf(b.m.Unfit, r.UID, b.Nodes()))
		return
	}
	r.Enqueue(b.Eng.Now())
	b.queue.Push(r)
	b.m.Pump()
}

// Drain implements Launcher.
func (b *Base) Drain(reason string) {
	if !b.daemon {
		b.down = true
	}
	for _, r := range b.queue.TakeAll() {
		b.fail(r, reason)
	}
}

// FailNode implements Launcher: every running job whose placement includes
// the node is killed — its slots release and its request fails, so the
// agent relocates the task. Jobs still in a launch stage are not running
// yet and survive. Returns the number of victims.
func (b *Base) FailNode(node int, reason string) int {
	now := b.Eng.Now()
	victims := 0
	for i := 0; i < len(b.running); {
		j := b.running[i]
		if !j.Pl.Includes(node) {
			i++
			continue
		}
		// stop swap-moves the tail into slot i; re-examine it.
		b.stop(j, now)
		b.fail(j.Req, reason)
		victims++
	}
	b.m.Pump()
	return victims
}

// Kick implements Launcher.
func (b *Base) Kick() { b.m.Pump() }

// Pending reports whether the backend is up with requests queued for
// placement.
func (b *Base) Pending() bool { return b.ready && !b.down && b.queue.Len() > 0 }

// Next is the pump's scheduling step: it places the next queued request
// (data affinity, then FCFS, then up to backfill requests past a blocked
// head) and returns the request's job, now in flight. It returns nil when
// the backend is not up, the queue is empty or nothing can place. A
// request is placed at most once; Next panics on a second placement,
// which would overwrite the slots of the first.
func (b *Base) Next(backfill int) *Job {
	if !b.Pending() {
		return nil
	}
	r, pl := b.plc.PopNext(b.Eng.Now(), &b.queue, backfill)
	if pl == nil {
		return nil
	}
	j := &r.job
	if j.Req != nil {
		panic(fmt.Sprintf("launch: %s placed request %s a second time at %v", b.m.Name, r.UID, b.Eng.Now()))
	}
	*j = Job{Req: r, Pl: pl, runIdx: -1, gen: b.gen}
	return j
}

// Live reports whether a job surfacing from a launch stage may go on. A
// job placed before a crash is stale: its slots release and its request
// fails with the Down reason, even if the daemon has restarted since.
func (b *Base) Live(j *Job) bool {
	if j.gen == b.gen {
		return true
	}
	b.plc.Partition().Release(b.Eng.Now(), j.Pl)
	b.fail(j.Req, b.m.Down)
	return false
}

// StartFn returns the prebound last launch stage: scheduled with a *Job
// as the pooled event's argument, it starts the task process unless the
// job went stale.
func (b *Base) StartFn() func(any) { return b.startFn }

func (b *Base) start(arg any) {
	j := arg.(*Job)
	if !b.Live(j) {
		return
	}
	now := b.Eng.Now()
	b.stats.Started++
	j.runIdx = int32(len(b.running))
	b.running = append(b.running, j)
	if b.util != nil {
		b.util.Add(now, j.Pl.TotalCPU(), j.Pl.TotalGPU())
	}
	j.Req.NotifyStart(now)
	j.Req.StartBodyCall(b.Eng, b.doneFn, j)
}

// done runs when the task's process body ends.
func (b *Base) done(arg any) {
	j := arg.(*Job)
	if j.runIdx < 0 {
		return // evicted or crashed: the stale body timer is inert
	}
	b.stop(j, b.Eng.Now())
	if b.m.Report != nil {
		b.m.Report(j)
	} else {
		b.Complete(j)
	}
	b.m.Pump()
}

// Complete delivers a finished job's successful completion.
func (b *Base) Complete(j *Job) {
	b.stats.Completed++
	j.Req.NotifyComplete(b.Eng.Now(), false, "")
}

// stop takes a running job off the running list (an O(1) swap-remove) and
// frees what it holds.
func (b *Base) stop(j *Job, at sim.Time) {
	last := len(b.running) - 1
	moved := b.running[last]
	b.running[j.runIdx] = moved
	moved.runIdx = j.runIdx
	b.running[last] = nil
	b.running = b.running[:last]
	j.runIdx = -1
	b.free(j, at)
}

// free returns a job's busy slots and its partition slots, then runs the
// backend's Exit hook.
func (b *Base) free(j *Job, at sim.Time) {
	if b.util != nil {
		b.util.Remove(at, j.Pl.TotalCPU(), j.Pl.TotalGPU())
	}
	b.plc.Partition().Release(at, j.Pl)
	if b.m.Exit != nil {
		b.m.Exit()
	}
}

func (b *Base) fail(r *Request, reason string) {
	b.stats.Failed++
	at := b.Eng.Now()
	b.Eng.Immediately(func() { r.NotifyComplete(at, true, reason) })
}

// Stepper registers srun job steps (slurm.Controller). started fires once
// the step may exec, with a release the caller invokes exactly once when
// the srun exits.
type Stepper interface {
	StartStep(allocNodes, stepNodes int, started func(release func()))
}

// Daemon is the chassis of a backend that runs its own daemons across the
// partition (Flux, Dragon, PRRTE). One srun step registers them and holds
// a ceiling slot for their lifetime. Requests queue until bootstrap ends.
// A daemon can crash — failing its queued, running and in-flight work —
// and restart, paying its bootstrap again.
type Daemon struct {
	Base

	// OnException, when set, receives daemon-level failures (a crash, a
	// bootstrap timeout); the agent marks the instance down.
	OnException func(reason string)

	ctrl        Stepper
	t0          sim.Time
	releaseSrun func()
	timeout     sim.Timer
	failed      bool
}

// Init binds the chassis to a daemon backend over the partition. ctrl
// registers the daemon's srun step (BootStep).
func (d *Daemon) Init(m Model, eng *sim.Engine, ctrl Stepper, part *platform.Allocation, util *platform.UtilizationTracker) {
	d.Base.Init(m, eng, part, util)
	d.ready = false
	d.daemon = true
	d.ctrl = ctrl
	d.t0 = eng.Now()
}

// BootStep brings the daemon up through one srun step: once the step is
// granted, the rest of dur — counted from the start of bootstrap — passes
// and the daemon is up.
func (d *Daemon) BootStep(dur sim.Duration) {
	gen := d.gen
	d.ctrl.StartStep(d.Nodes(), 1, func(release func()) {
		if gen != d.gen {
			release() // crashed while the step was pending
			return
		}
		d.releaseSrun = release
		left := sim.Duration(0)
		if spent := d.Eng.Now().Sub(d.t0); spent < dur {
			left = dur - spent
		}
		d.Eng.After(left, func() { d.up(gen) })
	})
}

// BootAfter brings the daemon up after dur without an srun step (a nested
// Flux instance spawned by its parent broker).
func (d *Daemon) BootAfter(dur sim.Duration) {
	gen := d.gen
	d.Eng.After(dur, func() { d.up(gen) })
}

// GuardBoot bounds bootstrap: a daemon not up within after fails
// permanently with reason, so a hung runtime cannot stall RP.
func (d *Daemon) GuardBoot(after sim.Duration, reason string) {
	gen := d.gen
	d.timeout = d.Eng.After(after, func() {
		if d.ready || gen != d.gen {
			return
		}
		d.failed = true
		d.Crash(reason)
	})
}

func (d *Daemon) up(gen uint32) {
	if gen != d.gen {
		return
	}
	d.timeout.Stop()
	d.ready = true
	d.bootstrap = d.Eng.Now().Sub(d.t0)
	if d.m.Up != nil {
		d.m.Up()
	}
	fns := d.readyFns
	d.readyFns = nil
	for _, fn := range fns {
		d.Eng.Immediately(fn)
	}
	d.m.Pump()
}

// Crash fails the daemon: its srun slot frees, queued and running jobs
// fail with reason and release their slots, jobs still in a launch stage
// fail as they surface, and OnException fires.
func (d *Daemon) Crash(reason string) {
	if d.down {
		return
	}
	d.down = true
	d.gen++
	if d.releaseSrun != nil {
		d.releaseSrun()
		d.releaseSrun = nil
	}
	d.Drain(reason)
	now := d.Eng.Now()
	run := d.running
	d.running = nil
	for _, j := range run {
		j.runIdx = -1
		d.free(j, now)
		d.fail(j.Req, reason)
	}
	if d.OnException != nil {
		d.OnException(reason)
	}
}

// Crashed reports whether the daemon is down.
func (d *Daemon) Crashed() bool { return d.down }

// Failed reports whether bootstrap timed out (GuardBoot): the failure is
// permanent.
func (d *Daemon) Failed() bool { return d.failed }

// Restart recovers a crashed daemon: it bootstraps from scratch, paying
// the srun step and bootstrap latency again, then fires the Ready
// callbacks registered meanwhile and resumes scheduling. It reports false
// unless the daemon crashed, and after a bootstrap timeout.
func (d *Daemon) Restart() bool {
	if !d.down || d.failed {
		return false
	}
	d.down = false
	d.ready = false
	d.t0 = d.Eng.Now()
	d.m.Boot()
	return true
}

// Shutdown drains the daemon and releases its srun slot.
func (d *Daemon) Shutdown() {
	d.Drain(d.m.Noun + " shutdown")
	if d.releaseSrun != nil {
		d.releaseSrun()
		d.releaseSrun = nil
	}
}
