package data

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"rpgo/internal/model"
	"rpgo/internal/platform"
	"rpgo/internal/profiler"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
)

// call runs a func() passed as a transfer completion's argument.
func call(x any) { x.(func())() }

// zeroLatencyParams makes transfer math exact for hand-computed cases.
func zeroLatencyParams() model.DataParams {
	return model.DataParams{
		NVMeBandwidth:   5e9,
		SharedFSBase:    1e12, // effectively uncontended
		SharedFSPerNode: 0,
	}
}

func newSystem(t *testing.T, nodes int, p model.DataParams) (*sim.Engine, *System, *profiler.Profiler) {
	t.Helper()
	eng := sim.NewEngine()
	cluster := platform.NewCluster(platform.Frontier(1), nodes)
	prof := profiler.New()
	return eng, NewSystem(eng, cluster.Allocate(nodes), p, prof, nil), prof
}

func TestSingleFlowBottleneck(t *testing.T) {
	eng, sys, prof := newSystem(t, 2, zeroLatencyParams())
	var done sim.Time = -1
	// 10 GB onto node 0: bottleneck is the 5 GB/s NVMe → 2 s.
	sys.StageToNode("t0", "ds", 10e9, spec.TierSharedFS, 0, call, func() { done = eng.Now() })
	eng.Run()
	if done < 0 {
		t.Fatal("transfer never completed")
	}
	if got := done.Seconds(); math.Abs(got-2.0) > 1e-3 {
		t.Errorf("10GB at 5GB/s took %.6fs, want 2s", got)
	}
	trs := prof.Transfers()
	if len(trs) != 1 || trs[0].Bytes != 10e9 || trs[0].Dst != "nvme:0" {
		t.Fatalf("transfer trace: %+v", trs)
	}
	if !sys.Registry().HasNode("ds", 0) {
		t.Error("registry missing node replica after stage-in")
	}
}

func TestFairShareContention(t *testing.T) {
	eng, sys, _ := newSystem(t, 1, zeroLatencyParams())
	var doneA, doneB sim.Time = -1, -1
	// A: 10 GB at t=0. B: 5 GB at t=0.5s. Both share node 0's 5 GB/s.
	// A alone for 0.5s (2.5 GB), then 2.5 GB/s each: B's 5 GB ends at
	// t=2.5s; A (2.5 GB left) finishes alone at t=3.0s.
	sys.StageToNode("a", "dsA", 10e9, spec.TierSharedFS, 0, call, func() { doneA = eng.Now() })
	eng.At(sim.Time(500*sim.Millisecond), func() {
		sys.StageToNode("b", "dsB", 5e9, spec.TierSharedFS, 0, call, func() { doneB = eng.Now() })
	})
	eng.Run()
	if math.Abs(doneB.Seconds()-2.5) > 1e-3 {
		t.Errorf("flow B completed at %.6fs, want 2.5s", doneB.Seconds())
	}
	if math.Abs(doneA.Seconds()-3.0) > 1e-3 {
		t.Errorf("flow A completed at %.6fs, want 3.0s", doneA.Seconds())
	}
}

func TestSharedChannelAggregateContention(t *testing.T) {
	p := zeroLatencyParams()
	p.SharedFSBase = 8e9 // aggregate PFS pipe smaller than 2×NVMe
	eng, sys, _ := newSystem(t, 2, p)
	var ends []sim.Time
	// Two flows to different nodes: NVMe channels are private, but both
	// cross the 8 GB/s shared pipe → 4 GB/s each for 8 GB → 2 s.
	for n := 0; n < 2; n++ {
		sys.StageToNode("t", "ds", 8e9, spec.TierSharedFS, n, call, func() { ends = append(ends, eng.Now()) })
	}
	eng.Run()
	if len(ends) != 2 {
		t.Fatalf("completed %d flows, want 2", len(ends))
	}
	for _, e := range ends {
		if math.Abs(e.Seconds()-2.0) > 1e-3 {
			t.Errorf("flow completed at %.6fs, want 2.0s (shared-pipe bound)", e.Seconds())
		}
	}
	occ := sys.SharedChannel().MeanOccupancy(0, sim.Time(2*sim.Second))
	if math.Abs(occ-1.0) > 0.01 {
		t.Errorf("shared occupancy = %.3f, want ~1.0 while saturated", occ)
	}
}

func TestZeroByteTransfer(t *testing.T) {
	eng, sys, prof := newSystem(t, 1, zeroLatencyParams())
	fired := false
	sys.StageToNode("t", "empty", 0, spec.TierSharedFS, 0, call, func() { fired = true })
	eng.Run()
	if !fired {
		t.Fatal("zero-byte transfer never completed")
	}
	if len(prof.Transfers()) != 1 {
		t.Fatalf("want a trace for the zero-byte transfer")
	}
}

func TestBurstBufferFallsBackToShared(t *testing.T) {
	p := zeroLatencyParams() // BurstBufferPerNode zero → tier disabled
	eng, sys, prof := newSystem(t, 1, p)
	if sys.BurstChannel() != nil {
		t.Fatal("burst channel should be disabled")
	}
	sys.StageToNode("t", "ds", 1e9, spec.TierBurstBuffer, 0, call, func() {})
	eng.Run()
	if got := prof.Transfers()[0].Src; got != "sharedfs" {
		t.Errorf("disabled burst buffer should degrade to sharedfs, got src %q", got)
	}
}

func TestTierTransferRegisters(t *testing.T) {
	p := zeroLatencyParams()
	p.BurstBufferPerNode = 4e9
	p.BurstBufferLatency = 0
	eng, sys, _ := newSystem(t, 2, p)
	sys.TierTransfer("t", "weights", 2e9, spec.TierSharedFS, spec.TierBurstBuffer, call, func() {})
	eng.Run()
	if !sys.Registry().HasTier("weights", spec.TierBurstBuffer) {
		t.Error("tier transfer must register destination presence")
	}
	if sys.Registry().HasNode("weights", 0) {
		t.Error("tier transfer must not create node replicas")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.RegisterNode("ds", 100, 3)
	r.RegisterNode("ds", 100, 1)
	r.RegisterNode("other", 50, 2)
	if got := r.NodesHolding("ds"); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Errorf("NodesHolding = %v, want sorted [1 3]", got)
	}
	if !r.HasNode("ds", 1) || r.HasNode("ds", 2) {
		t.Error("HasNode wrong")
	}
	if r.Bytes("ds") != 100 {
		t.Errorf("Bytes = %d", r.Bytes("ds"))
	}
	r.Evict("ds", 1)
	if r.HasNode("ds", 1) {
		t.Error("Evict did not drop the replica")
	}
	if r.Replicas() != 2 {
		t.Errorf("Replicas = %d, want 2", r.Replicas())
	}
}

// TestTransferDeterminism: the same schedule of transfers produces
// bit-identical traces across runs.
func TestTransferDeterminism(t *testing.T) {
	run := func() []profiler.TransferTrace {
		p := model.Default().Data
		eng, sys, prof := newSystem(t, 4, p)
		for i := 0; i < 16; i++ {
			n := i % 4
			at := sim.Time(i) * sim.Time(100*sim.Millisecond)
			sz := int64(1+i%5) * 500 * MB
			i := i
			eng.At(at, func() {
				sys.StageToNode("t", nameOf(i%3), sz, spec.TierSharedFS, n, call, func() {})
			})
		}
		eng.Run()
		return prof.Transfers()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("transfer traces diverge across identical runs:\n%v\n%v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("no transfers recorded")
	}
}

func nameOf(i int) string { return string(rune('a' + i)) }

// TestDuplicateStageInPanics: a second stage-in of a dataset to a node
// while the first is in flight is a caller bug (callers must JoinPending).
// It panics at the call, naming the dataset, the node and the in-flight
// transfer, and the first transfer still completes normally.
func TestDuplicateStageInPanics(t *testing.T) {
	eng, sys, prof := newSystem(t, 1, zeroLatencyParams())
	fired := 0
	uid := sys.StageToNode("a", "ckpt.x", 10e9, spec.TierSharedFS, 0, call, func() { fired++ })
	var msg string
	eng.At(sim.Time(100*sim.Millisecond), func() {
		defer func() { msg = fmt.Sprint(recover()) }()
		sys.StageToNode("b", "ckpt.x", 10e9, spec.TierSharedFS, 0, call, func() { fired++ })
	})
	eng.Run()
	for _, want := range []string{"ckpt.x", "node 0", uid} {
		if !strings.Contains(msg, want) {
			t.Fatalf("duplicate stage-in panic %q does not name %q", msg, want)
		}
	}
	if fired != 1 || len(prof.Transfers()) != 1 || !sys.Registry().HasNode("ckpt.x", 0) {
		t.Fatalf("first stage-in did not complete cleanly: fired %d, %d traces", fired, len(prof.Transfers()))
	}
	if len(sys.PendingNodes("ckpt.x")) != 0 {
		t.Fatal("completed stage-in left a pending record")
	}
}

// TestRecycledFlowFiresOnlyItsOwnCallbacks: a completed transfer's flow is
// reused by the next one. The old transfer's callback and its rider never
// fire again, a join on the new transfer names the new UID, the completed
// one is no longer joinable, and Completing names the transfer whose
// callbacks run.
func TestRecycledFlowFiresOnlyItsOwnCallbacks(t *testing.T) {
	eng, sys, _ := newSystem(t, 2, zeroLatencyParams())
	var log []string
	note := func(x any) { log = append(log, x.(string)+" "+sys.Completing()) }
	uid1 := sys.StageToNode("a", "ds", 1e9, spec.TierSharedFS, 0, note, "first")
	if got, ok := sys.JoinPending("ds", 0, note, "first-rider"); !ok || got != uid1 {
		t.Fatalf("join on the first transfer = (%q, %v), want %s", got, ok, uid1)
	}
	eng.Run()
	if len(sys.free) != 1 {
		t.Fatalf("%d flows on the free list after one transfer, want 1", len(sys.free))
	}
	recycled := sys.free[0]
	if recycled.fn != nil || recycled.arg != nil || len(recycled.waiters) != 0 {
		t.Fatalf("recycled flow keeps callbacks: %+v", recycled)
	}
	uid2 := sys.StageToNode("b", "ds2", 1e9, spec.TierSharedFS, 1, note, "second")
	if sys.pendingNode[nodeKey{"ds2", 1}] != recycled || uid2 == uid1 {
		t.Fatalf("second transfer %s did not reuse the first's flow", uid2)
	}
	if got, ok := sys.JoinPending("ds2", 1, note, "second-rider"); !ok || got != uid2 {
		t.Fatalf("join after recycling = (%q, %v), want %s", got, ok, uid2)
	}
	if _, ok := sys.JoinPending("ds", 0, note, "stale"); ok {
		t.Fatal("a completed transfer is still joinable")
	}
	eng.Run()
	want := []string{"first " + uid1, "first-rider " + uid1, "second " + uid2, "second-rider " + uid2}
	if !slices.Equal(log, want) {
		t.Fatalf("callbacks %q, want %q", log, want)
	}
	if sys.Completing() != "" {
		t.Fatalf("Completing outside callbacks = %q", sys.Completing())
	}
}

// TestDuplicateTierTransferPanics is the tier-to-tier counterpart.
func TestDuplicateTierTransferPanics(t *testing.T) {
	p := zeroLatencyParams()
	p.BurstBufferPerNode = 4e9
	eng, sys, _ := newSystem(t, 1, p)
	uid := sys.TierTransfer("a", "w", 8e9, spec.TierSharedFS, spec.TierBurstBuffer, call, func() {})
	var msg string
	func() {
		defer func() { msg = fmt.Sprint(recover()) }()
		sys.TierTransfer("b", "w", 8e9, spec.TierSharedFS, spec.TierBurstBuffer, call, func() {})
	}()
	eng.Run()
	if !strings.Contains(msg, "w") || !strings.Contains(msg, uid) {
		t.Fatalf("duplicate tier transfer panic %q does not name the dataset and %s", msg, uid)
	}
}

// TestRegistryIndexMatchesScan drives the registry with random
// registrations and evictions and checks it against a brute-force model:
// EvictNode drops exactly the replicas a scan of every dataset finds,
// every query agrees, and a dataset's locality version grows exactly when
// its replica set changes.
func TestRegistryIndexMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	r := NewRegistry()
	model := map[string]map[int]bool{}
	names := []string{"a", "b", "c", "d", "e"}
	holding := func(ds string) []int {
		var out []int
		for n := range model[ds] {
			out = append(out, n)
		}
		slices.Sort(out)
		return out
	}
	for step := 0; step < 5000; step++ {
		ds, node := names[rng.Intn(len(names))], rng.Intn(8)
		before := map[string]uint64{}
		prev := map[string][]int{}
		for _, n := range names {
			before[n], prev[n] = r.Version(n), holding(n)
		}
		switch rng.Intn(4) {
		case 0, 1:
			r.RegisterNode(ds, 1, node)
			if model[ds] == nil {
				model[ds] = map[int]bool{}
			}
			model[ds][node] = true
		case 2:
			r.Evict(ds, node)
			delete(model[ds], node)
		case 3:
			want := 0
			for _, nodes := range model {
				if nodes[node] {
					delete(nodes, node)
					want++
				}
			}
			if got := r.EvictNode(node); got != want {
				t.Fatalf("step %d: EvictNode(%d) dropped %d replicas, a scan finds %d", step, node, got, want)
			}
		}
		total := 0
		for _, n := range names {
			want := holding(n)
			total += len(want)
			if got := r.NodesHolding(n); !slices.Equal(got, want) {
				t.Fatalf("step %d: NodesHolding(%s) = %v, want %v", step, n, got, want)
			}
			for id := 0; id < 8; id++ {
				if r.HasNode(n, id) != model[n][id] {
					t.Fatalf("step %d: HasNode(%s, %d) = %v", step, n, id, !model[n][id])
				}
			}
			changed := !slices.Equal(want, prev[n])
			if v := r.Version(n); v < before[n] || changed != (v != before[n]) {
				t.Fatalf("step %d: %s version %d -> %d with replicas %v -> %v", step, n, before[n], v, prev[n], want)
			}
		}
		if r.Replicas() != total {
			t.Fatalf("step %d: Replicas = %d, want %d", step, r.Replicas(), total)
		}
	}
}
