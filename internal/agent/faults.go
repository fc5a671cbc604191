package agent

// The agent's failure-handling surface: node eviction and backend
// crash/restart entry points driven by the fault injector (internal/fault),
// the failure-aware retry backoff, and the fault-aware compute body that
// stretches execution on straggler nodes and checkpoints through the data
// subsystem so a relocated attempt resumes from its last saved fraction.

import (
	"fmt"

	"rpgo/internal/profiler"
	"rpgo/internal/sim"
)

// SetSlowFactor installs the straggler model: fn maps a node ID to an
// execution-time stretch factor (≥ 1). Plain fixed-Duration compute bodies
// dispatched afterwards run at the slowest placed node's factor.
func (a *Agent) SetSlowFactor(fn func(node int) float64) { a.slowFactor = fn }

// EnableElasticity marks the pilot as managed by a fault injector: a group
// whose instances are all down parks tasks until a restart instead of
// failing them.
func (a *Agent) EnableElasticity() { a.elastic = true }

// FailNode evicts everything running on a node across all backends: each
// victim's slots release and its request fails back into the agent's
// retry/relocation path. The node's local replicas are dropped from the
// data registry (its NVMe died with it), so data-aware placement stops
// preferring it and restarted tasks re-stage. Returns the victim count.
// The caller (the injector) fails the node in the cluster first, so the
// bumped epoch invalidates placer watermarks before victims re-place.
func (a *Agent) FailNode(node int, reason string) int {
	victims := 0
	for _, g := range a.groups {
		for _, l := range g.launchers {
			victims += l.FailNode(node, reason)
		}
	}
	a.dataSys.Registry().EvictNode(node)
	if a.prof.RecordEvents {
		a.prof.Log(a.eng.Now(), "agent", "node_down",
			fmt.Sprintf("node=%d victims=%d %s", node, victims, reason))
	}
	return victims
}

// KickBackends re-runs every live backend's scheduling pump. Needed after
// a restored node returns capacity: backends otherwise only reschedule on
// completions, so queued work could deadlock against idle nodes.
func (a *Agent) KickBackends() {
	for _, g := range a.groups {
		for i, l := range g.launchers {
			if !g.alive[i] {
				continue
			}
			l.Kick()
		}
	}
}

// NumInstances returns the number of backend launcher instances across all
// executor groups (the flat index space of CrashInstance/RestartInstance).
func (a *Agent) NumInstances() int {
	n := 0
	for _, g := range a.groups {
		n += len(g.launchers)
	}
	return n
}

// crasher/restarter are the optional backend capabilities behind
// CrashInstance/RestartInstance (flux, dragon and prrte implement both;
// srun is Slurm itself and does neither).
type crasher interface{ Crash(reason string) }
type restarter interface{ Restart() bool }

// CrashInstance crashes backend instance i (flat index across groups):
// queued and running tasks fail back into the agent's retry path and the
// instance is marked dead through its OnException hook. Returns false when
// the instance is already down or the launcher cannot crash.
func (a *Agent) CrashInstance(i int, reason string) bool {
	g, idx := a.instanceAt(i)
	if g == nil || !g.alive[idx] {
		return false
	}
	c, ok := g.launchers[idx].(crasher)
	if !ok {
		return false
	}
	c.Crash(reason)
	return true
}

// RestartInstance re-bootstraps a crashed instance; once it is back up the
// agent marks it live again and flushes the group's pending tasks. Returns
// false when the instance is alive or cannot restart.
func (a *Agent) RestartInstance(i int) bool {
	g, idx := a.instanceAt(i)
	if g == nil || g.alive[idx] {
		return false
	}
	r, ok := g.launchers[idx].(restarter)
	if !ok || !r.Restart() {
		return false
	}
	g.launchers[idx].Ready(func() {
		g.alive[idx] = true
		a.prof.Log(a.eng.Now(), "agent", "instance_up", g.launchers[idx].Name())
		a.launcherReady(g)
	})
	return true
}

// instanceAt resolves a flat instance index to (group, index-in-group).
func (a *Agent) instanceAt(i int) (*executorGroup, int) {
	if i < 0 {
		return nil, -1
	}
	for _, g := range a.groups {
		if i < len(g.launchers) {
			return g, i
		}
		i -= len(g.launchers)
	}
	return nil, -1
}

// retryBackoff returns the backoff in seconds before re-dispatch attempt
// `attempt` (1-based). The legacy path is the constant RetryBackoff with
// no RNG draws — pinned by golden tests. Setting RetryBackoffFactor > 0
// switches to failure-aware exponential backoff: attempt k waits
// RetryBackoff·Factor^(k-1), capped at RetryBackoffMax, with seeded
// uniform ±RetryJitterFrac jitter to de-synchronize retry storms.
func (a *Agent) retryBackoff(attempt int) float64 {
	b := a.params.RP.RetryBackoff
	f := a.params.RP.RetryBackoffFactor
	if f <= 0 {
		return b
	}
	for i := 1; i < attempt; i++ {
		b *= f
	}
	if max := a.params.RP.RetryBackoffMax; max > 0 && b > max {
		b = max
	}
	if j := a.params.RP.RetryJitterFrac; j > 0 {
		b = a.retryStream.Jitter(b, j)
	}
	return b
}

// The fault-aware compute body of a plain fixed-Duration task: execution
// stretches by the slowest placed node's straggler factor, and a
// checkpointed task cuts its work into segments that each end with a
// synchronous checkpoint write through the data subsystem (contending for
// shared-FS bandwidth like any flow). After a failure the relocated
// attempt stages the last checkpoint back to its new primary node —
// skipped when the node already holds it, and riding the stage-in when one
// is already in flight there — and resumes from the saved fraction. The
// state lives on the attempt record and every continuation is a prebound
// callback taking it, so a checkpoint segment allocates nothing here; all
// of them are generation-guarded, so a stale attempt's timers and
// transfer completions are inert.

func attemptSegEnd(x any)      { x.(*attempt).segEnd() }
func attemptCkptWritten(x any) { x.(*attempt).ckptWritten() }
func attemptRestored(x any)    { x.(*attempt).restored() }

// computeStart begins the fault-aware compute body.
func (at *attempt) computeStart() {
	a, t := at.a, at.t
	total := t.TD.Duration
	if a.slowFactor != nil {
		f := 1.0
		for _, n := range at.placed {
			if sf := a.slowFactor(n); sf > f {
				f = sf
			}
		}
		if f > 1 {
			total = sim.Duration(float64(total) * f)
		}
	}
	at.total = total
	if !t.TD.Checkpointed() || t.TD.Duration <= 0 {
		a.eng.AfterCall(total, attemptComputed, at)
		return
	}
	at.node = -1
	if len(at.placed) > 0 {
		at.node = at.placed[0]
	}
	// Work is tracked as a fraction of the original Duration, so the
	// saved fraction carries across relocations even when the new
	// node's straggler factor differs.
	at.segFrac = float64(t.TD.CheckpointInterval) / float64(t.TD.Duration)
	d := t.dataState()
	if d.ckptDS == "" {
		d.ckptDS = "ckpt." + t.TD.UID
	}
	if d.ckptSaved {
		if at.node >= 0 && !a.dataSys.Registry().HasNode(d.ckptDS, at.node) {
			// Restore: stage the checkpoint to the new primary node
			// before resuming.
			at.ws = a.eng.Now()
			if uid, ok := a.dataSys.JoinPending(d.ckptDS, at.node, attemptRestored, at); ok {
				// An earlier attempt's restore to this node is still in
				// flight: ride it instead of staging a second copy.
				at.xuid = uid
				t.Trace.DataHits++
				a.dataSys.RecordHit()
				return
			}
			t.Trace.DataMisses++
			a.dataSys.RecordMiss()
			at.inBytes = t.TD.CheckpointBytes
			at.xuid = a.dataSys.StageToNode(t.TD.UID, d.ckptDS, t.TD.CheckpointBytes,
				t.TD.CheckpointDest, at.node, attemptRestored, at)
			return
		}
		// Relocated onto a node that still holds the image (or the
		// same node): restore is a local read.
		t.Trace.DataHits++
		a.dataSys.RecordHit()
	}
	at.step()
}

// step schedules the next segment: a checkpointed one, or the final
// partial one that finishes without another write.
func (at *attempt) step() {
	if !at.live() {
		return
	}
	remain := 1 - at.t.data.ckptFrac
	if remain <= 1e-9 {
		at.computed()
		return
	}
	if at.segFrac >= remain {
		at.a.eng.AfterCall(sim.Duration(remain*float64(at.total)), attemptComputed, at)
		return
	}
	at.a.eng.AfterCall(sim.Duration(at.segFrac*float64(at.total)), attemptSegEnd, at)
}

// segEnd writes the segment's checkpoint image out.
func (at *attempt) segEnd() {
	if !at.live() {
		return
	}
	t := at.t
	at.ws = at.a.eng.Now()
	at.xuid = at.a.dataSys.WriteFromNode(t.TD.UID, t.data.ckptDS, t.TD.CheckpointBytes,
		at.node, t.TD.CheckpointDest, attemptCkptWritten, at)
}

// ckptWritten advances the saved fraction once the image is durable: dying
// mid-write restarts the segment.
func (at *attempt) ckptWritten() {
	if !at.live() {
		return
	}
	t := at.t
	at.ckptEdge()
	t.Trace.BytesOut += t.TD.CheckpointBytes
	t.data.ckptFrac += at.segFrac
	t.data.ckptSaved = true
	at.step()
}

// restored resumes the attempt once its checkpoint image is local.
func (at *attempt) restored() {
	if !at.live() {
		return
	}
	at.ckptEdge()
	at.t.Trace.BytesIn += at.inBytes
	at.step()
}

// ckptEdge records the checkpoint transfer the attempt just waited on.
func (at *attempt) ckptEdge() {
	if now := at.a.eng.Now(); now > at.ws {
		at.t.Trace.AddEdge(profiler.CausalEdge{
			Kind: profiler.EdgeCheckpoint, From: at.ws, To: now, Ref: at.xuid,
		})
	}
}
