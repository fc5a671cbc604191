package flux

import (
	"testing"

	"rpgo/internal/launch"
	"rpgo/internal/model"
	"rpgo/internal/platform"
	"rpgo/internal/rng"
	"rpgo/internal/sim"
	"rpgo/internal/slurm"
	"rpgo/internal/spec"
)

func newRig(nodes int) (*sim.Engine, *Instance, *platform.UtilizationTracker, *slurm.Controller) {
	eng := sim.NewEngine()
	src := rng.New(11)
	params := model.Default()
	ctrl := slurm.NewController(eng, params.Srun, src)
	cluster := platform.NewCluster(platform.Frontier(1), nodes)
	alloc := cluster.Allocate(nodes)
	util := platform.NewUtilizationTracker(alloc.TotalCPU(), alloc.TotalGPU())
	in := NewInstance(Config{Name: "flux.t", Params: params.Flux}, eng, ctrl, alloc, util, src)
	return eng, in, util, ctrl
}

// events adapts a test's start/done funcs to launch.Events; a nil func
// ignores its callback.
type events struct {
	start func(sim.Time)
	done  func(sim.Time, bool, string)
}

func (e events) OnStart(at sim.Time) {
	if e.start != nil {
		e.start(at)
	}
}

func (e events) OnComplete(at sim.Time, failed bool, reason string) {
	if e.done != nil {
		e.done(at, failed, reason)
	}
}

func req(dur sim.Duration, onStart func(sim.Time), onDone func(sim.Time, bool, string)) *launch.Request {
	return &launch.Request{
		UID:    "t",
		TD:     &spec.TaskDescription{CoresPerRank: 1, Ranks: 1, Duration: dur},
		Events: events{onStart, onDone},
	}
}

func TestBootstrapTakesAbout20s(t *testing.T) {
	eng, in, _, ctrl := newRig(4)
	var readyAt sim.Time = -1
	in.Ready(func() { readyAt = eng.Now() })
	eng.Run()
	boot := in.BootstrapOverhead().Seconds()
	if boot < 14 || boot > 30 {
		t.Fatalf("flux bootstrap = %.1fs, want ~20s (Fig 7)", boot)
	}
	if readyAt < 0 {
		t.Fatal("Ready callback never fired")
	}
	// The instance holds one srun ceiling slot while alive.
	if ctrl.Ceiling().InUse() != 1 {
		t.Fatalf("instance should hold 1 srun slot, holds %d", ctrl.Ceiling().InUse())
	}
	in.Shutdown()
	if ctrl.Ceiling().InUse() != 0 {
		t.Fatal("shutdown did not release the srun slot")
	}
}

func TestSubmitBeforeReadyQueues(t *testing.T) {
	eng, in, _, _ := newRig(2)
	var startAt sim.Time = -1
	in.Submit(req(sim.Second, func(at sim.Time) { startAt = at }, nil))
	eng.Run()
	if startAt < 0 {
		t.Fatal("task never started")
	}
	if startAt.Seconds() < 14 {
		t.Fatalf("task started at %.1fs, before bootstrap completed", startAt.Seconds())
	}
}

func TestDispatchRateMatchesModel(t *testing.T) {
	eng, in, _, _ := newRig(4)
	const n = 500
	var starts []sim.Time
	for i := 0; i < n; i++ {
		in.Submit(req(0, func(at sim.Time) { starts = append(starts, at) }, nil))
	}
	eng.Run()
	if len(starts) != n {
		t.Fatalf("started %d of %d", len(starts), n)
	}
	span := starts[len(starts)-1].Sub(starts[0]).Seconds()
	rate := float64(n-1) / span
	want := in.Rate()
	if rate < 0.5*want || rate > 1.5*want {
		t.Fatalf("measured rate %.1f t/s vs model %.1f t/s", rate, want)
	}
}

func TestBackfillLetsSmallTasksPassBlockedHead(t *testing.T) {
	eng, in, _, _ := newRig(2)
	// Fill the whole partition with a long task per slot.
	for i := 0; i < 112; i++ {
		in.Submit(req(500*sim.Second, nil, nil))
	}
	// Head-of-line: a 2-node task that cannot fit until everything
	// drains; behind it, a small task that backfill should start once
	// any slot frees.
	bigStarted := sim.Time(-1)
	smallStarted := sim.Time(-1)
	in.Submit(&launch.Request{
		UID:    "big",
		TD:     &spec.TaskDescription{Nodes: 2, Ranks: 16, CoresPerRank: 7, Duration: sim.Second},
		Events: events{start: func(at sim.Time) { bigStarted = at }},
	})
	in.Submit(req(sim.Second, func(at sim.Time) { smallStarted = at }, nil))
	eng.Run()
	if smallStarted < 0 || bigStarted < 0 {
		t.Fatal("tasks did not run")
	}
	if smallStarted >= bigStarted {
		t.Fatalf("backfill: small at %v should start before blocked 2-node head at %v", smallStarted, bigStarted)
	}
}

func TestCrashFailsQueuedAndRunning(t *testing.T) {
	eng, in, util, ctrl := newRig(1)
	var failures, successes int
	for i := 0; i < 80; i++ { // 56 run, 24 queue
		in.Submit(req(1000*sim.Second, nil, func(_ sim.Time, failed bool, _ string) {
			if failed {
				failures++
			} else {
				successes++
			}
		}))
	}
	exception := false
	in.OnException = func(string) { exception = true }
	eng.RunUntil(sim.Time(60 * sim.Second)) // bootstrap + launches done
	in.Crash("injected failure")
	eng.Run()
	if failures != 80 || successes != 0 {
		t.Fatalf("failures=%d successes=%d, want 80/0", failures, successes)
	}
	if !exception {
		t.Fatal("OnException not invoked")
	}
	if util.BusyCPU() != 0 {
		t.Fatalf("crash leaked %d busy slots", util.BusyCPU())
	}
	if ctrl.Ceiling().InUse() != 0 {
		t.Fatal("crash did not release the srun slot")
	}
	// Post-crash submissions fail immediately.
	late := 0
	in.Submit(req(0, nil, func(_ sim.Time, failed bool, _ string) {
		if failed {
			late++
		}
	}))
	eng.Run()
	if late != 1 {
		t.Fatal("submission to crashed instance should fail")
	}
}

func TestNestedInstance(t *testing.T) {
	eng, in, _, _ := newRig(4)
	src := rng.New(77)
	var child *Instance
	in.Ready(func() {
		c, err := in.SpawnNested("flux.child", 2, src)
		if err != nil {
			t.Errorf("SpawnNested: %v", err)
			return
		}
		child = c
	})
	started := false
	eng.RunUntil(sim.Time(60 * sim.Second))
	if child == nil {
		t.Fatal("child never created")
	}
	child.Submit(req(sim.Second, func(sim.Time) { started = true }, nil))
	eng.Run()
	if !started {
		t.Fatal("nested instance did not execute the task")
	}
	if child.Nodes() != 2 {
		t.Fatalf("child nodes = %d", child.Nodes())
	}
	// Oversized nested request errors.
	if _, err := in.SpawnNested("too-big", 99, src); err == nil {
		t.Fatal("oversized nested instance should error")
	}
}

func TestUtilizationAccounting(t *testing.T) {
	eng, in, util, _ := newRig(1)
	for i := 0; i < 56; i++ {
		in.Submit(req(100*sim.Second, nil, nil))
	}
	eng.Run()
	if util.PeakCPU != 56 {
		t.Fatalf("peak busy = %d, want 56", util.PeakCPU)
	}
	if util.BusyCPU() != 0 {
		t.Fatal("slots leaked after completion")
	}
}

func TestEtaReducesRate(t *testing.T) {
	params := model.Default().Flux
	if params.Eta(1) != 1 {
		t.Fatal("single instance eta must be 1")
	}
	if params.Eta(16) >= params.Eta(4) {
		t.Fatal("eta must decrease with instance count")
	}
}
