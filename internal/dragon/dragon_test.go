package dragon

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

func newRig(nodes int, cfg Config) (*sim.Engine, *Runtime, *platform.UtilizationTracker, *slurm.Controller) {
	eng := sim.NewEngine()
	src := rng.New(13)
	params := model.Default()
	if cfg.Params.ExecR0 == 0 {
		cfg.Params = params.Dragon
	}
	if cfg.Name == "" {
		cfg.Name = "dragon.t"
	}
	ctrl := slurm.NewController(eng, params.Srun, src)
	cluster := platform.NewCluster(platform.Frontier(1), nodes)
	alloc := cluster.Allocate(nodes)
	util := platform.NewUtilizationTracker(alloc.TotalCPU(), alloc.TotalGPU())
	rt := NewRuntime(cfg, eng, ctrl, alloc, util, src)
	return eng, rt, util, ctrl
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

func req(kind spec.TaskKind, dur sim.Duration, onStart func(sim.Time), onDone func(sim.Time, bool, string)) *launch.Request {
	return &launch.Request{
		UID:    "t",
		TD:     &spec.TaskDescription{Kind: kind, CoresPerRank: 1, Ranks: 1, Duration: dur},
		Events: events{onStart, onDone},
	}
}

func TestBootstrapTakesAbout9s(t *testing.T) {
	eng, rt, _, ctrl := newRig(4, Config{})
	eng.Run()
	boot := rt.BootstrapOverhead().Seconds()
	if boot < 6 || boot > 14 {
		t.Fatalf("dragon bootstrap = %.1fs, want ~9s (Fig 7)", boot)
	}
	if rt.Failed() {
		t.Fatal("bootstrap should succeed")
	}
	if ctrl.Ceiling().InUse() != 1 {
		t.Fatal("runtime should hold one srun slot")
	}
	rt.Shutdown()
	if ctrl.Ceiling().InUse() != 0 {
		t.Fatal("shutdown did not release the srun slot")
	}
}

func TestBootstrapTimeoutTriggersFailover(t *testing.T) {
	eng, rt, _, _ := newRig(2, Config{FailBootstrap: true})
	exception := ""
	rt.OnException = func(r string) { exception = r }
	failed := 0
	rt.Submit(req(spec.Executable, 0, func(sim.Time) {
		t.Error("task must not start on a hung runtime")
	}, func(_ sim.Time, f bool, _ string) {
		if f {
			failed++
		}
	}))
	eng.Run()
	if !rt.Failed() || !rt.Crashed() {
		t.Fatalf("hung bootstrap: failed=%v crashed=%v", rt.Failed(), rt.Crashed())
	}
	if exception == "" {
		t.Fatal("OnException not invoked on startup timeout")
	}
	if failed != 1 {
		t.Fatalf("queued task failures = %d, want 1", failed)
	}
	// The timeout must fire at the configured deadline.
	if got := eng.Now().Seconds(); got < model.Default().Dragon.StartupTimeout {
		t.Fatalf("timeout fired at %.1fs, before the %.0fs deadline", got, model.Default().Dragon.StartupTimeout)
	}
}

func TestFunctionFasterThanExec(t *testing.T) {
	rate := func(kind spec.TaskKind) float64 {
		eng, rt, _, _ := newRig(4, Config{})
		const n = 400
		var starts []sim.Time
		for i := 0; i < n; i++ {
			rt.Submit(req(kind, 0, func(at sim.Time) { starts = append(starts, at) }, nil))
		}
		eng.Run()
		span := starts[len(starts)-1].Sub(starts[0]).Seconds()
		return float64(n-1) / span
	}
	execRate := rate(spec.Executable)
	funcRate := rate(spec.Function)
	if funcRate <= execRate {
		t.Fatalf("function dispatch (%.0f t/s) must beat exec dispatch (%.0f t/s)", funcRate, execRate)
	}
}

func TestThroughputDeclinesWithNodes(t *testing.T) {
	p := model.Default().Dragon
	if p.ExecRate(64) >= p.ExecRate(4) {
		t.Fatal("dragon exec rate must decline with node count")
	}
	if p.FuncRate(64) >= p.FuncRate(4) {
		t.Fatal("dragon func rate must decline with node count")
	}
}

func TestCrashReleasesEverything(t *testing.T) {
	eng, rt, util, ctrl := newRig(1, Config{})
	outcomes := map[bool]int{}
	for i := 0; i < 70; i++ {
		rt.Submit(req(spec.Executable, 1000*sim.Second, nil, func(_ sim.Time, f bool, _ string) {
			outcomes[f]++
		}))
	}
	eng.RunUntil(sim.Time(30 * sim.Second))
	rt.Crash("injected")
	eng.Run()
	if outcomes[false] != 0 || outcomes[true] != 70 {
		t.Fatalf("outcomes: %v, want all 70 failed", outcomes)
	}
	if util.BusyCPU() != 0 {
		t.Fatalf("leaked %d busy slots", util.BusyCPU())
	}
	if ctrl.Ceiling().InUse() != 0 {
		t.Fatal("srun slot leaked")
	}
}

func TestCompletionEventsArriveAsynchronously(t *testing.T) {
	eng, rt, _, _ := newRig(1, Config{})
	var endAt, completeAt sim.Time
	rt.Submit(&launch.Request{
		UID: "t",
		TD:  &spec.TaskDescription{Kind: spec.Function, CoresPerRank: 1, Ranks: 1, Duration: 5 * sim.Second},
		Events: events{
			func(at sim.Time) { endAt = at.Add(5 * sim.Second) },
			func(at sim.Time, _ bool, _ string) { completeAt = at },
		},
	})
	eng.Run()
	if completeAt <= endAt {
		t.Fatalf("completion at %v should trail task end %v by the shmem hop", completeAt, endAt)
	}
}

func TestStatsAccounting(t *testing.T) {
	eng, rt, _, _ := newRig(2, Config{})
	for i := 0; i < 50; i++ {
		rt.Submit(req(spec.Function, sim.Second, nil, nil))
	}
	eng.Run()
	st := rt.Stats()
	if st.Submitted != 50 || st.Started != 50 || st.Completed != 50 || st.Failed != 0 {
		t.Fatalf("stats: %+v", st)
	}
}
