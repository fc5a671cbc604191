package experiments

import (
	"testing"

	"rpgo/internal/analytics"
	"rpgo/internal/spec"
)

// TestShardedGoldenEquivalence: the names kept for the benchmark module,
// with Pilots=1 / Shards=1 spelled out, must reproduce the golden Fig 8
// fingerprint byte for byte.
func TestShardedGoldenEquivalence(t *testing.T) {
	res := RunShardedImpeccable(ShardedImpeccableConfig{
		Nodes:    128,
		Pilots:   1,
		Shards:   1,
		Backend:  spec.BackendFlux,
		Seed:     424242,
		MaxIters: 6,
	})
	if res.Tasks == 0 {
		t.Fatal("campaign ran no tasks")
	}
	got := fingerprintTraces(res.Traces)
	if got != goldenFig8Tasks {
		t.Fatalf("sharded(1,1) diverged from the golden Fig 8 fingerprint: got %#x, want %#x", got, goldenFig8Tasks)
	}
}

// TestShardedShardCountInvariance is the property the whole design hangs
// on: a fixed seed and fixed partition layout must produce identical
// merged traces and identical blame decompositions for shards = 1, 2, 4, 8.
func TestShardedShardCountInvariance(t *testing.T) {
	run := func(shards int) ImpeccableResult {
		return RunImpeccable(ImpeccableConfig{
			Nodes:    256,
			Pilots:   8,
			Shards:   shards,
			Backend:  spec.BackendFlux,
			Seed:     424242,
			MaxIters: 2,
		})
	}
	ref := run(1)
	if ref.Tasks == 0 {
		t.Fatal("campaign ran no tasks")
	}
	refFP := fingerprintTraces(ref.Traces)
	refBlame := analytics.BlameFromTraces(ref.Traces)
	if refBlame.Blame.Total() != refBlame.Makespan {
		t.Fatalf("blame decomposition does not telescope: total %v, makespan %v",
			refBlame.Blame.Total(), refBlame.Makespan)
	}
	for _, shards := range []int{2, 4, 8} {
		res := run(shards)
		if res.Shards != shards {
			t.Fatalf("engine ran %d shards, want %d", res.Shards, shards)
		}
		if got := fingerprintTraces(res.Traces); got != refFP {
			t.Fatalf("shards=%d changed the merged trace fingerprint: got %#x, want %#x", shards, got, refFP)
		}
		blame := analytics.BlameFromTraces(res.Traces)
		if blame.Makespan != refBlame.Makespan {
			t.Fatalf("shards=%d changed the blamed makespan: %v vs %v", shards, blame.Makespan, refBlame.Makespan)
		}
		if blame.Blame != refBlame.Blame {
			t.Fatalf("shards=%d changed the blame decomposition:\n got %+v\nwant %+v", shards, blame.Blame, refBlame.Blame)
		}
		if blame.Blame.Total() != blame.Makespan {
			t.Fatalf("shards=%d blame decomposition does not telescope", shards)
		}
	}
}

// TestShardedMultiPilotProgress sanity-checks the partitioned path: more
// than one pilot, cross-partition traffic actually flows, and every
// campaign finishes.
func TestShardedMultiPilotProgress(t *testing.T) {
	res := RunImpeccable(ImpeccableConfig{
		Nodes:    128,
		Pilots:   4,
		Shards:   4,
		Backend:  spec.BackendFlux,
		Seed:     7,
		MaxIters: 1,
	})
	if res.Tasks == 0 {
		t.Fatal("no tasks ran")
	}
	if res.CrossEvents == 0 {
		t.Fatal("multi-pilot run exchanged no cross-partition events")
	}
	if res.Windows == 0 {
		t.Fatal("no synchronization windows executed")
	}
}

// TestShardedThroughputWaves: the wave-fed streaming campaign completes
// every task with bounded in-flight state and identical counts across
// shard counts.
func TestShardedThroughputWaves(t *testing.T) {
	run := func(shards int) ShardedThroughputResult {
		return RunShardedThroughput(ShardedThroughputConfig{
			Nodes:  64,
			Pilots: 4,
			Shards: shards,
			Tasks:  20000,
			Wave:   1024,
			Seed:   11,
		})
	}
	a := run(1)
	if a.Tasks != 20000 {
		t.Fatalf("folded %d tasks, want 20000", a.Tasks)
	}
	if a.AvgTput <= 0 {
		t.Fatal("no throughput measured")
	}
	b := run(4)
	if b.Tasks != a.Tasks || b.Failed != a.Failed || b.Makespan != a.Makespan {
		t.Fatalf("shard count changed the simulated outcome: %+v vs %+v", b, a)
	}
}
