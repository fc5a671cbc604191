package slurm

import (
	"testing"

	"rpgo/internal/launch"
	"rpgo/internal/model"
	"rpgo/internal/platform"
	"rpgo/internal/rng"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
)

func newRig(nodes int) (*sim.Engine, *Controller, *SrunLauncher, *platform.UtilizationTracker) {
	eng := sim.NewEngine()
	src := rng.New(7)
	params := model.Default()
	ctrl := NewController(eng, params.Srun, src)
	cluster := platform.NewCluster(platform.Frontier(1), nodes)
	alloc := cluster.Allocate(nodes)
	util := platform.NewUtilizationTracker(alloc.TotalCPU(), alloc.TotalGPU())
	l := NewSrunLauncher("srun.0", eng, ctrl, alloc, util, src)
	return eng, ctrl, l, util
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

func req(uid string, dur sim.Duration, onStart func(sim.Time), onDone func(sim.Time, bool, string)) *launch.Request {
	return &launch.Request{
		UID:    uid,
		TD:     &spec.TaskDescription{CoresPerRank: 1, Ranks: 1, Duration: dur},
		Events: events{onStart, onDone},
	}
}

func TestSrunLifecycle(t *testing.T) {
	eng, _, l, util := newRig(1)
	var started, completed bool
	var startAt, endAt sim.Time
	l.Submit(req("t", 10*sim.Second,
		func(at sim.Time) { started = true; startAt = at },
		func(at sim.Time, failed bool, _ string) {
			completed = true
			endAt = at
			if failed {
				t.Error("unexpected failure")
			}
		}))
	eng.Run()
	if !started || !completed {
		t.Fatalf("started=%v completed=%v", started, completed)
	}
	if d := endAt.Sub(startAt); d != 10*sim.Second {
		t.Fatalf("execution spanned %v, want 10s", d)
	}
	if util.BusyCPU() != 0 {
		t.Fatalf("utilization not released: %d busy", util.BusyCPU())
	}
	st := l.Stats()
	if st.Submitted != 1 || st.Started != 1 || st.Completed != 1 || st.Failed != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCeilingCapsConcurrency(t *testing.T) {
	eng, ctrl, l, util := newRig(4)
	for i := 0; i < 400; i++ {
		l.Submit(req("", 100*sim.Second, nil, nil))
	}
	eng.Run()
	if hw := ctrl.Ceiling().HighWater; hw != 112 {
		t.Fatalf("ceiling high water = %d, want exactly 112 under saturation", hw)
	}
	if util.PeakCPU > 112 {
		t.Fatalf("peak running tasks %d exceeds ceiling", util.PeakCPU)
	}
}

func TestRegistrationRateDegradesWithNodes(t *testing.T) {
	rate := func(nodes int) float64 {
		eng, _, l, _ := newRig(nodes)
		const n = 300
		var starts []sim.Time
		for i := 0; i < n; i++ {
			l.Submit(req("", 0, func(at sim.Time) { starts = append(starts, at) }, nil))
		}
		eng.Run()
		span := starts[len(starts)-1].Sub(starts[0]).Seconds()
		return float64(n-1) / span
	}
	r1, r4 := rate(1), rate(4)
	if r1 < 90 || r1 > 220 {
		t.Errorf("1-node srun rate = %.1f t/s, want ~120-160", r1)
	}
	if r4 > 0.7*r1 {
		t.Errorf("4-node rate %.1f should be well below 1-node rate %.1f", r4, r1)
	}
}

func TestStepCostAppliesToMultiNodeSteps(t *testing.T) {
	params := model.Default().Srun
	if params.StepCost(1) >= params.StepCost(8) {
		t.Fatal("multi-node steps must cost more")
	}
	if params.StepCost(1000) != 4 {
		t.Fatalf("step cost cap = %v, want 4", params.StepCost(1000))
	}
}

func TestDrainFailsQueued(t *testing.T) {
	eng, _, l, _ := newRig(1)
	failures := 0
	// 60 one-core tasks on 56 slots: 4 stay queued for placement.
	for i := 0; i < 60; i++ {
		l.Submit(req("", 1000*sim.Second, nil, func(_ sim.Time, failed bool, _ string) {
			if failed {
				failures++
			}
		}))
	}
	eng.RunUntil(sim.Time(10 * sim.Second))
	l.Drain("test drain")
	eng.RunUntil(sim.Time(20 * sim.Second))
	if failures != 4 {
		t.Fatalf("drained failures = %d, want 4", failures)
	}
	st := l.Stats()
	if st.QueueLen != 0 {
		t.Fatalf("queue not drained: %d", st.QueueLen)
	}
}

func TestOversizedTaskFailsFast(t *testing.T) {
	eng, _, l, _ := newRig(1)
	var failed bool
	var reason string
	l.Submit(&launch.Request{
		UID: "big",
		TD:  &spec.TaskDescription{Nodes: 2, Ranks: 2, CoresPerRank: 1},
		Events: events{
			func(sim.Time) { t.Error("oversized task must not start") },
			func(_ sim.Time, f bool, r string) {
				failed = f
				reason = r
			},
		},
	})
	eng.Run()
	if !failed || reason == "" {
		t.Fatalf("oversized task: failed=%v reason=%q", failed, reason)
	}
}

func TestStepReleaseTwicePanics(t *testing.T) {
	eng := sim.NewEngine()
	ctrl := NewController(eng, model.Default().Srun, rng.New(1))
	var rel func()
	ctrl.StartStep(1, 1, func(release func()) { rel = release })
	eng.Run()
	rel()
	defer func() {
		if recover() == nil {
			t.Fatal("double release should panic")
		}
	}()
	rel()
}

func TestMuModel(t *testing.T) {
	p := model.Default().Srun
	if p.Mu(1) != p.Mu1 {
		t.Fatalf("Mu(1) = %v", p.Mu(1))
	}
	// Fitted anchors: ~61 t/s at 4 nodes, ~30-40 at 8 (Fig 5a).
	if mu := p.Mu(4); mu < 50 || mu > 75 {
		t.Errorf("Mu(4) = %.1f, want ~63", mu)
	}
	if mu := p.Mu(8); mu < 25 || mu > 45 {
		t.Errorf("Mu(8) = %.1f, want ~35", mu)
	}
	// Super-linear decay at scale.
	if p.Mu(1024) > 0.2 {
		t.Errorf("Mu(1024) = %v, want < 0.2", p.Mu(1024))
	}
}
