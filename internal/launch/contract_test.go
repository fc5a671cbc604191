package launch_test

// The backend contract: the lifecycle every backend gets from the launch
// chassis, checked on all four backends. Model-specific behavior (rates,
// bootstrap times, the srun ceiling, backfill, nested instances, the token
// bucket) stays in each backend's own tests.

import (
	"strings"
	"testing"

	"rpgo/internal/dragon"
	"rpgo/internal/flux"
	"rpgo/internal/launch"
	"rpgo/internal/model"
	"rpgo/internal/platform"
	"rpgo/internal/prrte"
	"rpgo/internal/rng"
	"rpgo/internal/sim"
	"rpgo/internal/slurm"
	"rpgo/internal/spec"
)

// backend builds one launcher on a rig; dm is its daemon chassis, nil for
// srun.
type backend struct {
	name string
	// hop marks a completion that trails the end of the task body.
	hop  bool
	make func(r *rig, src *rng.Source) (l launch.Launcher, dm *launch.Daemon)
}

var backends = []backend{
	{name: "srun", make: func(r *rig, src *rng.Source) (launch.Launcher, *launch.Daemon) {
		return slurm.NewSrunLauncher("srun.0", r.eng, r.ctrl, r.part, r.util, src), nil
	}},
	{name: "flux", make: func(r *rig, src *rng.Source) (launch.Launcher, *launch.Daemon) {
		in := flux.NewInstance(flux.Config{Name: "flux.0", Params: model.Default().Flux}, r.eng, r.ctrl, r.part, r.util, src)
		return in, &in.Daemon
	}},
	{name: "dragon", hop: true, make: func(r *rig, src *rng.Source) (launch.Launcher, *launch.Daemon) {
		rt := dragon.NewRuntime(dragon.Config{Name: "dragon.0", Params: model.Default().Dragon}, r.eng, r.ctrl, r.part, r.util, src)
		return rt, &rt.Daemon
	}},
	{name: "prrte", make: func(r *rig, src *rng.Source) (launch.Launcher, *launch.Daemon) {
		d := prrte.NewDVM("prrte.0", prrte.DefaultParams(), r.eng, r.ctrl, r.part, r.util, src)
		return d, &d.Daemon
	}},
}

type rig struct {
	eng  *sim.Engine
	ctrl *slurm.Controller
	part *platform.Allocation
	util *platform.UtilizationTracker
	l    launch.Launcher
	dm   *launch.Daemon
	// kind is the task kind submit gives its requests.
	kind spec.TaskKind
	// readyAt lists every time a Ready callback fired.
	readyAt []sim.Time
}

func newRig(b backend, nodes int) *rig {
	eng := sim.NewEngine()
	src := rng.New(21)
	ctrl := slurm.NewController(eng, model.Default().Srun, src)
	part := platform.NewCluster(platform.Frontier(1), nodes).Allocate(nodes)
	util := platform.NewUtilizationTracker(part.TotalCPU(), part.TotalGPU())
	r := &rig{eng: eng, ctrl: ctrl, part: part, util: util}
	r.l, r.dm = b.make(r, src)
	r.l.Ready(func() { r.readyAt = append(r.readyAt, eng.Now()) })
	return r
}

// freeCPU sums the partition's free CPU slots.
func (r *rig) freeCPU() int {
	n := 0
	for _, node := range r.part.Nodes {
		n += node.FreeCPU()
	}
	return n
}

// task records one request's outcome.
type task struct {
	nodes    []int
	startAt  sim.Time
	endAt    sim.Time
	starts   int
	finals   int
	failed   bool
	reason   string
	onStart  func(*task)
	duration sim.Duration
}

// OnStart implements launch.Events.
func (tk *task) OnStart(at sim.Time) {
	tk.starts++
	tk.startAt = at
	if tk.onStart != nil {
		tk.onStart(tk)
	}
}

// OnComplete implements launch.Events.
func (tk *task) OnComplete(at sim.Time, failed bool, reason string) {
	tk.finals++
	tk.endAt = at
	tk.failed = failed
	tk.reason = reason
}

func (r *rig) submit(n int, dur sim.Duration) []*task {
	out := make([]*task, n)
	for i := range out {
		tk := &task{startAt: -1, duration: dur}
		r.l.Submit(&launch.Request{
			UID:      "t",
			TD:       &spec.TaskDescription{Kind: r.kind, CoresPerRank: 1, Ranks: 1, Duration: dur},
			Events:   tk,
			OnPlaced: func(_ sim.Time, ids []int) { tk.nodes = ids },
		})
		out[i] = tk
	}
	return out
}

func count(tasks []*task, pred func(*task) bool) int {
	n := 0
	for _, tk := range tasks {
		if pred(tk) {
			n++
		}
	}
	return n
}

// TestBackendAccounting: submit → start → complete, with every counter,
// busy slot and partition slot accounted for, for executables and for
// function tasks (which Dragon runs on its own path).
func TestBackendAccounting(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			for _, kind := range []spec.TaskKind{spec.Executable, spec.Function} {
				t.Run(kind.String(), func(t *testing.T) {
					r := newRig(b, 2)
					r.kind = kind
					const n = 150 // 112 slots: 38 queue for placement
					tasks := r.submit(n, 100*sim.Second)
					r.eng.Run()
					if len(r.readyAt) != 1 {
						t.Fatalf("Ready fired %d times, want 1", len(r.readyAt))
					}
					for _, tk := range tasks {
						if tk.starts != 1 || tk.finals != 1 || tk.failed {
							t.Fatalf("task: starts=%d finals=%d failed=%v (%s)", tk.starts, tk.finals, tk.failed, tk.reason)
						}
						if tk.startAt < r.readyAt[0] {
							t.Fatalf("task started at %v, before Ready at %v", tk.startAt, r.readyAt[0])
						}
						ran := tk.endAt.Sub(tk.startAt)
						if ran < tk.duration || (!b.hop && ran != tk.duration) {
							t.Fatalf("task ran %v, want %v", ran, tk.duration)
						}
					}
					st := r.l.Stats()
					if st.Submitted != n || st.Started != n || st.Completed != n || st.Failed != 0 || st.QueueLen != 0 {
						t.Fatalf("stats: %+v", st)
					}
					if r.util.PeakCPU != 112 || r.util.BusyCPU() != 0 {
						t.Fatalf("busy slots: peak %d (want 112), left %d", r.util.PeakCPU, r.util.BusyCPU())
					}
					if free := r.freeCPU(); free != r.part.TotalCPU() {
						t.Fatalf("partition leaked slots: %d of %d free", free, r.part.TotalCPU())
					}
					if tel := r.l.Telemetry(); tel.Placer.Placed != n || tel.QueueHighWater == 0 {
						t.Fatalf("telemetry: %+v", tel)
					}
					if r.l.Nodes() != 2 || r.l.Backend().String() != b.name {
						t.Fatalf("identity: %d nodes, backend %v", r.l.Nodes(), r.l.Backend())
					}
					if (r.dm != nil) != (r.l.BootstrapOverhead() > 0) {
						t.Fatalf("bootstrap overhead %v", r.l.BootstrapOverhead())
					}
				})
			}
		})
	}
}

// TestBackendOversizedFailsFast: a request no idle partition could hold
// fails at admission instead of queueing forever.
func TestBackendOversizedFailsFast(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			r := newRig(b, 1)
			tk := &task{startAt: -1}
			r.l.Submit(&launch.Request{
				UID:    "big",
				TD:     &spec.TaskDescription{Nodes: 2, Ranks: 2, CoresPerRank: 1},
				Events: tk,
			})
			r.eng.Run()
			if tk.starts != 0 {
				t.Error("oversized task must not start")
			}
			if tk.finals != 1 || !tk.failed || !strings.Contains(tk.reason, "big") {
				t.Fatalf("oversized task: finals=%d failed=%v reason=%q", tk.finals, tk.failed, tk.reason)
			}
			if st := r.l.Stats(); st.Submitted != 1 || st.Failed != 1 || st.Started != 0 {
				t.Fatalf("stats: %+v", st)
			}
		})
	}
}

// TestBackendDrain: Drain fails exactly the queued requests; running work
// is untouched. A drained srun launcher refuses later submissions.
func TestBackendDrain(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			r := newRig(b, 1)
			tasks := r.submit(60, 1000*sim.Second) // 56 slots: 4 stay queued
			r.eng.RunUntil(sim.Time(60 * sim.Second))
			r.l.Drain("test drain")
			r.eng.RunUntil(sim.Time(70 * sim.Second))
			if got := count(tasks, func(tk *task) bool { return tk.failed && tk.reason == "test drain" }); got != 4 {
				t.Fatalf("drained failures = %d, want 4", got)
			}
			if got := count(tasks, func(tk *task) bool { return tk.starts == 1 && tk.finals == 0 }); got != 56 {
				t.Fatalf("running after drain = %d, want 56", got)
			}
			if st := r.l.Stats(); st.QueueLen != 0 || st.Failed != 4 {
				t.Fatalf("stats: %+v", st)
			}
			if r.dm == nil {
				late := r.submit(1, sim.Second)
				r.eng.RunUntil(sim.Time(80 * sim.Second))
				if !late[0].failed {
					t.Fatal("a drained srun launcher must refuse submissions")
				}
			}
		})
	}
}

// TestBackendFailNode: FailNode kills exactly the running jobs placed on
// the node, releases their slots and fails their requests; the rest run
// to completion.
func TestBackendFailNode(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			r := newRig(b, 2)
			tasks := r.submit(80, 1000*sim.Second)
			r.eng.RunUntil(sim.Time(60 * sim.Second))
			node := r.part.Nodes[0].ID
			onNode := count(tasks, func(tk *task) bool {
				return tk.starts == 1 && len(tk.nodes) == 1 && tk.nodes[0] == node
			})
			victims := r.l.FailNode(node, "node lost")
			if victims == 0 || victims != onNode {
				t.Fatalf("victims = %d, want the %d tasks running on node %d", victims, onNode, node)
			}
			if busy := r.util.BusyCPU(); busy != 80-victims {
				t.Fatalf("busy after eviction = %d, want %d", busy, 80-victims)
			}
			if free := r.freeCPU(); free != r.part.TotalCPU()-(80-victims) {
				t.Fatalf("evicted slots not released: %d free", free)
			}
			r.eng.Run()
			if got := count(tasks, func(tk *task) bool { return tk.failed && tk.reason == "node lost" }); got != victims {
				t.Fatalf("failed victims = %d, want %d", got, victims)
			}
			if got := count(tasks, func(tk *task) bool { return tk.finals == 1 && !tk.failed }); got != 80-victims {
				t.Fatalf("survivors completed = %d, want %d", got, 80-victims)
			}
			if r.util.BusyCPU() != 0 || r.freeCPU() != r.part.TotalCPU() {
				t.Fatal("slots leaked")
			}
		})
	}
}

// TestBackendCrash: a daemon crash fails queued and running work, frees
// every slot including its srun step, fires OnException and refuses later
// submissions. srun cannot crash.
func TestBackendCrash(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			r := newRig(b, 1)
			if r.dm == nil {
				if _, ok := r.l.(interface{ Crash(string) }); ok {
					t.Fatal("srun must not be crashable")
				}
				return
			}
			exception := ""
			r.dm.OnException = func(reason string) { exception = reason }
			tasks := r.submit(70, 1000*sim.Second) // 56 run, 14 queue
			r.eng.RunUntil(sim.Time(60 * sim.Second))
			r.dm.Crash("injected")
			r.eng.Run()
			if got := count(tasks, func(tk *task) bool { return tk.finals == 1 && tk.failed && tk.reason == "injected" }); got != 70 {
				t.Fatalf("crash failures = %d, want 70", got)
			}
			if exception != "injected" || !r.dm.Crashed() {
				t.Fatalf("exception=%q crashed=%v", exception, r.dm.Crashed())
			}
			if r.util.BusyCPU() != 0 || r.freeCPU() != r.part.TotalCPU() || r.ctrl.Ceiling().InUse() != 0 {
				t.Fatalf("crash leaked: busy=%d free=%d srun=%d", r.util.BusyCPU(), r.freeCPU(), r.ctrl.Ceiling().InUse())
			}
			late := r.submit(1, 0)
			r.eng.Run()
			if !late[0].failed || late[0].starts != 0 {
				t.Fatal("submission to a crashed daemon must fail")
			}
		})
	}
}

// TestBackendRestart: a daemon crashed while jobs are still in its launch
// stages and restarted at once bootstraps again. No pre-crash job may
// start on it: each fails and releases its slots as it surfaces, and
// nothing starts before Ready fires again.
func TestBackendRestart(t *testing.T) {
	for _, b := range backends[1:] {
		t.Run(b.name, func(t *testing.T) {
			r := newRig(b, 1)
			var crashAt sim.Time = -1
			tasks := r.submit(56, 1000*sim.Second)
			// Crash at the first process start, when the other jobs are
			// placed but still in flight, and restart at once.
			for _, tk := range tasks {
				tk.onStart = func(*task) {
					if crashAt >= 0 {
						return
					}
					crashAt = r.eng.Now()
					r.eng.Immediately(func() {
						r.dm.Crash("injected")
						if !r.dm.Restart() {
							t.Error("Restart of a crashed daemon returned false")
						}
						r.l.Ready(func() { r.readyAt = append(r.readyAt, r.eng.Now()) })
					})
				}
			}
			r.eng.Run()
			if crashAt < 0 || len(r.readyAt) != 2 {
				t.Fatalf("crash at %v, Ready fired %d times, want 2", crashAt, len(r.readyAt))
			}
			for _, tk := range tasks {
				if tk.finals != 1 || !tk.failed {
					t.Fatalf("pre-crash task: finals=%d failed=%v", tk.finals, tk.failed)
				}
				if tk.startAt > crashAt {
					t.Fatalf("pre-crash task started at %v on the daemon restarted at %v (up at %v)",
						tk.startAt, crashAt, r.readyAt[1])
				}
			}
			if r.readyAt[1] <= crashAt || r.dm.Crashed() || r.l.BootstrapOverhead() <= 0 {
				t.Fatalf("restart: up at %v after crash at %v, crashed=%v", r.readyAt[1], crashAt, r.dm.Crashed())
			}
			if r.util.BusyCPU() != 0 || r.freeCPU() != r.part.TotalCPU() || r.ctrl.Ceiling().InUse() != 1 {
				t.Fatalf("after restart: busy=%d free=%d srun=%d, want 0/%d/1",
					r.util.BusyCPU(), r.freeCPU(), r.ctrl.Ceiling().InUse(), r.part.TotalCPU())
			}
			after := r.submit(1, sim.Second)
			r.eng.Run()
			if after[0].finals != 1 || after[0].failed || after[0].startAt < r.readyAt[1] {
				t.Fatalf("post-restart task: finals=%d failed=%v start=%v", after[0].finals, after[0].failed, after[0].startAt)
			}
			if r.dm.Restart() {
				t.Fatal("Restart of a live daemon must report false")
			}
		})
	}
}
