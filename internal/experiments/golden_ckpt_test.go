package experiments

// Golden for the checkpoint/fault path: the failure sweep's MTBF=120 cell
// (16 nodes, a 16×16 checkpointed training fan-out, node failures only)
// under both placements. The fingerprint covers what the other goldens
// leave out: every task and transfer causal edge, transfer UIDs, and the
// shared FS channel's occupancy series — so checkpoint writes, restores,
// relocation and contention accounting are all pinned.

import (
	"fmt"
	"hash/fnv"
	"testing"

	"rpgo/internal/data"
	"rpgo/internal/profiler"
	"rpgo/internal/spec"
)

// ckptGoldenCell is the benchmark's ckpt_failures cell.
func ckptGoldenCell() FailureSweepConfig {
	cfg := FailureSweepConfig{
		Nodes:             16,
		MTBFs:             []float64{120},
		NodeDowntime:      60,
		Horizon:           1200,
		Shards:            16,
		TasksPerShard:     16,
		ShardBytes:        1 << 28,
		TaskSeconds:       120,
		CheckpointSeconds: 10,
		CheckpointBytes:   1 << 27,
		MaxRetries:        5,
		Seed:              8009,
	}
	cfg.defaults()
	return cfg
}

// fingerprintCheckpointRun folds every task trace with its causal edges,
// every transfer trace with its UID and edges, and the shared channel's
// occupancy samples into one 64-bit FNV-1a hash.
func fingerprintCheckpointRun(tasks []*profiler.TaskTrace, tts []profiler.TransferTrace, shared *data.Channel) uint64 {
	h := fnv.New64a()
	edges := func(es []profiler.CausalEdge) {
		for _, e := range es {
			fmt.Fprintf(h, " e%d|%d|%d|%s", e.Kind, e.From, e.To, e.Ref)
		}
		fmt.Fprintln(h)
	}
	for _, tr := range tasks {
		fmt.Fprintf(h, "%s|%d|%d|%d|%d|%d|%d|%t|%s|%d|%d|%d|%d|%d|%d|%d|%d",
			tr.UID, tr.Submit, tr.Scheduled, tr.Launch, tr.Start, tr.End, tr.Final,
			tr.Failed, tr.Backend, tr.Cores, tr.Retries,
			tr.BytesIn, tr.BytesOut, tr.StageIn, tr.StageOut, tr.DataHits, tr.DataMisses)
		edges(tr.Edges)
	}
	for _, tt := range tts {
		fmt.Fprintf(h, "%s|%s|%s|%d|%s|%s|%d|%d|%d",
			tt.UID, tt.Dataset, tt.Task, tt.Bytes, tt.Src, tt.Dst, tt.Node, tt.Start, tt.End)
		edges(tt.Edges)
	}
	for _, p := range shared.OccupancySeries(0).Points {
		fmt.Fprintf(h, "o%d|%x\n", p.T, p.V)
	}
	return h.Sum64()
}

// Captured before the data layer's per-transfer rewrite; it must
// reproduce them bit for bit.
var goldenCkptFaults = map[spec.PlacementPolicy]uint64{
	spec.PlacePack:      0xaa615f7c001e0258,
	spec.PlaceDataAware: 0x8bf5fea71fdc3bbe,
}

// TestGoldenCheckpointFaults runs the checkpointed fan-out under node
// churn with pack and data-aware placement and checks the fingerprints.
func TestGoldenCheckpointFaults(t *testing.T) {
	cfg := ckptGoldenCell()
	for _, pol := range []spec.PlacementPolicy{spec.PlacePack, spec.PlaceDataAware} {
		sess, pilot := runFailureSession(cfg, cfg.MTBFs[0], pol)
		tasks := sess.Profiler.Tasks()
		tts := sess.Profiler.Transfers()
		st := pilot.Faults.Stats()
		if st.NodeFailures == 0 || st.Victims == 0 {
			t.Fatalf("%v: cell injected %d failures with %d victims, want churn", pol, st.NodeFailures, st.Victims)
		}
		got := fingerprintCheckpointRun(tasks, tts, pilot.Agent.Data().SharedChannel())
		t.Logf("%v tasks=%d transfers=%d failures=%d victims=%d fingerprint=%#x",
			pol, len(tasks), len(tts), st.NodeFailures, st.Victims, got)
		if want := goldenCkptFaults[pol]; want != 0 && got != want {
			t.Fatalf("%v checkpoint/fault fingerprint drifted: got %#x, want %#x", pol, got, want)
		}
	}
}
