package agent

// The agent's data movers. Tasks carrying sized StagingDirectives bypass
// the legacy flat-cost stagers and move real bytes through the pilot's
// storage hierarchy (internal/data) in two phases:
//
//   1. stageInShared — before scheduling, inputs whose destination is a
//      shared tier (burst buffer pre-loads) transfer tier-to-tier through
//      the contention channels.
//   2. attempt.stageIn / writeOut — after placement, the task body's
//      prologue pulls node-local inputs onto the placement nodes (skipping
//      nodes that already hold a replica: a locality hit), and its
//      epilogue writes output datasets back out while the task still holds
//      its slots.
//
// preferNodes feeds the data-aware placement policy: the nodes already
// holding the task's node-local inputs, most bytes first, lowest node ID
// breaking ties.

import (
	"cmp"
	"slices"

	"rpgo/internal/profiler"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
)

// taskData is a task's data-path state that outlives one dispatch
// attempt: the wait on its pre-placement staging, and the checkpoint
// progress a relocated attempt resumes from. Only tasks that stage into a
// shared tier or checkpoint allocate one.
type taskData struct {
	// stageStart is when pre-placement staging began; stageWait counts
	// its transfers still in flight.
	stageStart sim.Time
	stageWait  int
	// ckptDS names the task's checkpoint image. ckptFrac is the fraction
	// of the task's work persisted by its last completed checkpoint
	// write; ckptSaved marks that an image exists to restore from after
	// relocation.
	ckptDS    string
	ckptFrac  float64
	ckptSaved bool
}

// dataState returns the task's data-path state, allocating it on first use.
func (t *Task) dataState() *taskData {
	if t.data == nil {
		t.data = &taskData{}
	}
	return t.data
}

// stageInShared runs pre-placement staging for every input directive whose
// destination is a shared tier, then hands the task to the scheduler. The
// transfers' completions are the agent's prebound callbacks, with the task
// as their argument.
func (a *Agent) stageInShared(t *Task) {
	if a.sharedDoneFn == nil {
		a.sharedStagedFn = func(arg any) { a.sharedLanded(arg.(*Task), profiler.EdgeStage) }
		a.sharedRodeFn = func(arg any) { a.sharedLanded(arg.(*Task), profiler.EdgeTransfer) }
		a.sharedDoneFn = func(arg any) { a.sharedDone(arg.(*Task)) }
	}
	var d *taskData
	for i := range t.TD.InputData {
		dir := &t.TD.InputData[i]
		// Inputs are by definition present at their source tier.
		a.dataSys.Seed(dir.Dataset, dir.SizeBytes, dir.Source)
		if dir.Dest == spec.TierNodeLocal || dir.Dest == dir.Source {
			continue // node-local staging happens in the body
		}
		if a.dataSys.Registry().HasTier(dir.Dataset, dir.Dest) {
			t.Trace.DataHits++
			a.dataSys.RecordHit()
			continue
		}
		if d == nil {
			d = t.dataState()
			d.stageStart = a.eng.Now()
		}
		d.stageWait++
		if _, ok := a.dataSys.JoinPendingTier(dir.Dataset, dir.Dest, a.sharedRodeFn, t); ok {
			// Another task is already staging this dataset to the
			// tier: ride its transfer instead of duplicating it.
			t.Trace.DataHits++
			a.dataSys.RecordHit()
			continue
		}
		t.Trace.DataMisses++
		a.dataSys.RecordMiss()
		t.Trace.BytesIn += dir.SizeBytes
		a.dataSys.TierTransfer(t.TD.UID, dir.Dataset, dir.SizeBytes, dir.Source, dir.Dest, a.sharedStagedFn, t)
	}
	if d == nil {
		a.eng.ImmediatelyCall(a.sharedDoneFn, t)
	}
}

// sharedLanded records the pre-placement transfer that just completed as
// a causal edge of kind (EdgeStage for the task's own, EdgeTransfer for
// one it rode) and releases the task once none is left in flight.
func (a *Agent) sharedLanded(t *Task, kind profiler.EdgeKind) {
	d := t.data
	if now := a.eng.Now(); now > d.stageStart {
		t.Trace.AddEdge(profiler.CausalEdge{Kind: kind, From: d.stageStart, To: now, Ref: a.dataSys.Completing()})
	}
	d.stageWait--
	if d.stageWait == 0 {
		a.eng.ImmediatelyCall(a.sharedDoneFn, t)
	}
}

// sharedDone hands a task whose pre-placement staging is over to the
// scheduler.
func (a *Agent) sharedDone(t *Task) {
	if d := t.data; d != nil {
		t.Trace.StageIn += a.eng.Now().Sub(d.stageStart)
	}
	a.stagedIn(t)
}

// attempt is the one record of a dispatch whose process body the agent
// builds: a task with sized staging, a fault-aware compute body (straggler
// stretch or checkpoints), or a custom body (service replica, coupled
// task). It embeds the plain dispatch record with its launch request and
// implements launch.Body and launch.Hooks. The body runs in phases —
// node-local stage-in, compute, output write-back — and every
// continuation is a prebound package-level callback taking the record.
// gen is the dispatch's generation: after a mid-run crash the agent
// re-dispatches with a fresh attempt, and every continuation of the
// orphaned one stops without touching the trace or the registry further.
type attempt struct {
	dispatchRec
	gen int
	// staged marks sized staging directives, compute the fault-aware
	// compute body; inner is a custom body run as the compute phase.
	staged  bool
	compute bool
	inner   func(sim.Time, func())
	// fn(arg) is the backend's completion; called makes it fire once.
	fn     func(any)
	arg    any
	called bool
	// placed holds the node IDs the placement claimed (OnPlaced fires
	// before the body starts). pref is the data-aware preference list,
	// cached under the key of the locality versions it was built from.
	placed []int
	pref   []int
	key    uint64
	// start is when the body began, outStart when the output write-back
	// began; wait counts the current phase's transfers in flight.
	start    sim.Time
	outStart sim.Time
	wait     int

	// The fault-aware compute body (faults.go): the stretched work, the
	// checkpoint segment as a fraction of the task's Duration, and the
	// primary node. ws is when the in-flight checkpoint write or restore
	// began; xuid names its transfer; inBytes is what a restore adds to
	// BytesIn (zero when it rides another attempt's stage-in).
	total   sim.Duration
	segFrac float64
	node    int
	ws      sim.Time
	xuid    string
	inBytes int64
}

func (at *attempt) live() bool { return at.t.gen == at.gen }

// The attempt's prebound continuations.
func attemptStaged(x any)     { x.(*attempt).landed(profiler.EdgeStage) }
func attemptRode(x any)       { x.(*attempt).landed(profiler.EdgeTransfer) }
func attemptStagedIn(x any)   { x.(*attempt).stagedIn() }
func attemptComputed(x any)   { x.(*attempt).computed() }
func attemptWritten(x any)    { x.(*attempt).written() }
func attemptWrittenOut(x any) { x.(*attempt).writtenOut() }

// OnPlaced implements launch.Hooks.
func (at *attempt) OnPlaced(_ sim.Time, nodeIDs []int) { at.placed = nodeIDs }

// Prefer implements launch.Hooks: preferNodes for a staged task under the
// data-aware policy, rebuilt only when the locality of one of its
// node-local inputs changed. The key is Σ(version+1) over those inputs:
// versions only grow, so any change moves the key, and only a task with no
// node-local input (whose preference is nil) has key 0. Backends call it
// on every scheduling pump for every hinted request in the affinity window,
// far more often than placements happen. A rebuild reuses the list's
// storage: the placer reads a preference only during the call it asked.
func (at *attempt) Prefer() []int {
	a := at.a
	if !at.staged || a.desc.Placement != spec.PlaceDataAware {
		return nil
	}
	td := at.t.TD
	reg := a.dataSys.Registry()
	var key uint64
	for i := range td.InputData {
		if d := &td.InputData[i]; d.Dest == spec.TierNodeLocal {
			key += reg.Version(d.Dataset) + 1
		}
	}
	if key != at.key {
		at.pref, at.key = a.preferNodes(at.pref, td), key
	}
	return at.pref
}

// Run implements launch.Body: a staged task first pulls its node-local
// inputs, the rest go straight to the compute phase.
func (at *attempt) Run(_ *sim.Engine, fn func(any), arg any) {
	at.fn, at.arg = fn, arg
	if at.staged {
		at.stageIn()
		return
	}
	at.computePhase()
}

// end completes the body, once.
func (at *attempt) end() {
	if at.called {
		return
	}
	at.called = true
	at.a.eng.ImmediatelyCall(at.fn, at.arg)
}

// preferNodes builds the placement preference list for a task under the
// data-aware policy into dst's storage: nodes already holding its
// node-local input datasets, ordered by bytes held descending, node ID
// ascending. Under the pack policy it returns nil and placement stays
// locality-blind. The score map and node buffer are the agent's scratch.
func (a *Agent) preferNodes(dst []int, td *spec.TaskDescription) []int {
	if a.desc.Placement != spec.PlaceDataAware {
		return nil
	}
	if a.score == nil {
		a.score = make(map[int]int64)
	}
	score := a.score
	clear(score)
	for i := range td.InputData {
		d := &td.InputData[i]
		if d.Dest != spec.TierNodeLocal {
			continue
		}
		a.nodeBuf = a.dataSys.Registry().AppendNodesHolding(a.nodeBuf[:0], d.Dataset)
		for _, n := range a.nodeBuf {
			score[n] += d.SizeBytes
		}
		// Nodes a replica is in flight to are nearly as good: the task
		// joins the pending transfer instead of paying for its own.
		a.nodeBuf = a.dataSys.AppendPendingNodes(a.nodeBuf[:0], d.Dataset)
		for _, n := range a.nodeBuf {
			score[n] += d.SizeBytes / 2
		}
	}
	if len(score) == 0 {
		return nil
	}
	ids := dst[:0]
	for n := range score {
		ids = append(ids, n)
	}
	slices.SortFunc(ids, func(x, y int) int {
		if c := cmp.Compare(score[y], score[x]); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	return ids
}

// stageIn is the body's prologue for a staged task: pull missing input
// replicas onto the placement nodes. The wall time a task spends staging
// is time its slots stay busy — exactly how staging on a compute node
// behaves.
func (at *attempt) stageIn() {
	a, t := at.a, at.t
	at.start = a.eng.Now()
	for i := range t.TD.InputData {
		d := &t.TD.InputData[i]
		if d.Dest != spec.TierNodeLocal {
			continue
		}
		// Multi-node tasks replicate node-local inputs on every
		// placement node (data-parallel ranks each read locally).
		for _, n := range at.placed {
			if a.dataSys.Registry().HasNode(d.Dataset, n) {
				t.Trace.DataHits++
				a.dataSys.RecordHit()
				continue
			}
			at.wait++
			if _, ok := a.dataSys.JoinPending(d.Dataset, n, attemptRode, at); ok {
				// Another task is already pulling this replica:
				// ride its transfer instead of duplicating it.
				t.Trace.DataHits++
				a.dataSys.RecordHit()
				continue
			}
			t.Trace.DataMisses++
			a.dataSys.RecordMiss()
			t.Trace.BytesIn += d.SizeBytes
			a.dataSys.StageToNode(t.TD.UID, d.Dataset, d.SizeBytes, d.Source, n, attemptStaged, at)
		}
	}
	if at.wait == 0 {
		a.eng.ImmediatelyCall(attemptStagedIn, at)
	}
}

// landed records the stage-in that just completed as a causal edge of
// kind (EdgeStage for the attempt's own, EdgeTransfer for one it rode) and
// starts the compute phase once none is left in flight.
func (at *attempt) landed(kind profiler.EdgeKind) {
	a := at.a
	if now := a.eng.Now(); at.live() && now > at.start {
		at.t.Trace.AddEdge(profiler.CausalEdge{Kind: kind, From: at.start, To: now, Ref: a.dataSys.Completing()})
	}
	at.wait--
	if at.wait == 0 {
		a.eng.ImmediatelyCall(attemptStagedIn, at)
	}
}

// stagedIn ends the stage-in phase.
func (at *attempt) stagedIn() {
	if !at.live() {
		return
	}
	at.t.Trace.StageIn += at.a.eng.Now().Sub(at.start)
	at.computePhase()
}

// computePhase runs the task's work: the fault-aware compute body, the
// custom body, or the plain Duration sleep.
func (at *attempt) computePhase() {
	switch {
	case at.compute:
		at.computeStart()
	case at.inner != nil:
		at.inner(at.a.eng.Now(), at.computed)
	default:
		at.a.eng.AfterCall(at.t.TD.Duration, attemptComputed, at)
	}
}

// computed ends the compute phase: a staged task writes its outputs out,
// any other ends its body.
func (at *attempt) computed() {
	if !at.live() {
		return
	}
	if at.staged {
		at.writeOut()
		return
	}
	at.end()
}

// writeOut is the body's epilogue for a staged task: write output datasets
// out from the primary node while the task still holds its slots.
func (at *attempt) writeOut() {
	a, t := at.a, at.t
	at.outStart = a.eng.Now()
	primary := -1
	if len(at.placed) > 0 {
		primary = at.placed[0]
	}
	for i := range t.TD.OutputData {
		d := &t.TD.OutputData[i]
		t.Trace.BytesOut += d.SizeBytes
		at.wait++
		a.dataSys.WriteFromNode(t.TD.UID, d.Dataset, d.SizeBytes, primary, d.Dest, attemptWritten, at)
	}
	if at.wait == 0 {
		a.eng.ImmediatelyCall(attemptWrittenOut, at)
	}
}

// written counts one output write down.
func (at *attempt) written() {
	at.wait--
	if at.wait == 0 {
		at.a.eng.ImmediatelyCall(attemptWrittenOut, at)
	}
}

// writtenOut ends the write-back phase and the body.
func (at *attempt) writtenOut() {
	if !at.live() {
		return
	}
	at.t.Trace.StageOut += at.a.eng.Now().Sub(at.outStart)
	at.end()
}
