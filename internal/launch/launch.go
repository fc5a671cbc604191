// Package launch defines the contract between the RP agent and the task
// runtime backends (srun, Flux, Dragon, PRRTE), the chassis every backend
// embeds for its lifecycle, and the shared slot-placement machinery every
// backend uses against its resource partition.
package launch

import (
	"fmt"
	"slices"
	"time"

	"rpgo/internal/platform"
	"rpgo/internal/profiler"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
)

// Events receives a request's lifecycle callbacks. The agent implements it
// on its one per-dispatch record, so a launch costs no callback closures.
// Backends deliver through NotifyStart/NotifyComplete.
type Events interface {
	// OnStart fires when the task process begins executing.
	OnStart(at sim.Time)
	// OnComplete fires when the task finishes; failed marks
	// infrastructure failures (the task may be retried by the agent).
	OnComplete(at sim.Time, failed bool, reason string)
}

// Request is one task launch handed to a backend.
type Request struct {
	// UID identifies the task.
	UID string
	// TD is the task description (resources, duration, kind).
	TD *spec.TaskDescription
	// Events, when set, receives the start/complete callbacks.
	Events Events
	// Body, when set, replaces the fixed TD.Duration sleep as the task's
	// process body: the backend invokes it once the process starts, and
	// the task completes when the body calls done. Tasks whose wall time
	// is not known at launch — service replicas that run until stopped,
	// and coupled tasks that block on inference responses mid-run — use
	// it; plain tasks leave it nil.
	Body func(start sim.Time, done func())
	// Prefer, when set, returns node IDs the placer should try first, in
	// order — the agent's data-aware scheduler returns the nodes holding
	// (or currently receiving) the task's input datasets. It is a
	// function, not a slice, because placement can happen long after
	// submission (backend queues): the preference must reflect the
	// registry at placement time, not at dispatch time.
	Prefer func() []int
	// OnPlaced fires when a backend claims concrete slots for the
	// request, before the process starts, with the chosen node IDs. The
	// agent's data movers use it to direct node-local staging.
	OnPlaced func(at sim.Time, nodeIDs []int)
	// Trace, when set, receives causal edges for the queue wait between
	// backend arrival and placement. Nil (direct Placer tests, service
	// replicas without task traces) disables emission.
	Trace *profiler.TaskTrace
	// EnqueuedAt is when the request entered the backend queue (set by
	// Enqueue); negative until then.
	EnqueuedAt sim.Time
	// Denied records that the placer considered the request and found no
	// capacity at least once — the difference between plain FIFO queueing
	// and placement starvation in the blame taxonomy.
	Denied bool
}

// Enqueue stamps the request's arrival in a backend queue. Backends call it
// immediately before Queue.Push so the subsequent placement can attribute
// the wait. Re-enqueues (retries) reset the starvation marker.
func (r *Request) Enqueue(at sim.Time) {
	r.EnqueuedAt = at
	r.Denied = false
}

// NotifyStart delivers the start callback.
func (r *Request) NotifyStart(at sim.Time) {
	if r.Events != nil {
		r.Events.OnStart(at)
	}
}

// NotifyComplete delivers the completion callback.
func (r *Request) NotifyComplete(at sim.Time, failed bool, reason string) {
	if r.Events != nil {
		r.Events.OnComplete(at, failed, reason)
	}
}

// StartBodyCall runs the task's process body at the current time and calls
// fn(arg) exactly once when it ends. Without a Body — the overwhelmingly
// common fixed-duration task — it schedules fn(arg) after TD.Duration
// through the engine's pooled arg-carrying event, costing no closure
// allocation. A Body's completion is always its own engine event, exactly
// like the fixed-duration path, so body implementations cannot perturb
// event ordering by calling done synchronously, and a buggy body that
// calls done repeatedly completes the task once.
func (r *Request) StartBodyCall(eng *sim.Engine, fn func(any), arg any) {
	if r.Body == nil {
		eng.AfterCall(r.TD.Duration, fn, arg)
		return
	}
	called := false
	r.Body(eng.Now(), func() {
		if called {
			return
		}
		called = true
		eng.ImmediatelyCall(fn, arg)
	})
}

// Stats captures backend counters for analytics.
type Stats struct {
	Submitted uint64
	Started   uint64
	Completed uint64
	Failed    uint64
	QueueLen  int
}

// PlacerStats captures the shared placement machinery's counters: how
// often placement was attempted, how the watermark cache and the affinity
// and backfill passes short-circuited or reordered the queue.
type PlacerStats struct {
	// Attempts counts placement attempts; Placed the successful ones;
	// ScanFailures the full node scans that found no capacity.
	Attempts     uint64
	Placed       uint64
	ScanFailures uint64
	// WatermarkSkips counts attempts short-circuited by the free-capacity
	// watermark cache (no scan ran at all).
	WatermarkSkips uint64
	// AffinityHits counts requests placed by the data-affinity pass ahead
	// of FCFS order; BackfillHits counts requests placed past a blocked
	// queue head.
	AffinityHits uint64
	BackfillHits uint64
}

// Merge accumulates another backend's counters (session-wide rollups).
func (s *PlacerStats) Merge(o PlacerStats) {
	s.Attempts += o.Attempts
	s.Placed += o.Placed
	s.ScanFailures += o.ScanFailures
	s.WatermarkSkips += o.WatermarkSkips
	s.AffinityHits += o.AffinityHits
	s.BackfillHits += o.BackfillHits
}

// Telemetry bundles one backend's placement counters and queue high-water
// for metric snapshots.
type Telemetry struct {
	Placer         PlacerStats
	QueueHighWater int
}

// Launcher is a task runtime backend bound to a resource partition.
// Submit may be called before the backend finished bootstrapping; requests
// queue and run once it is ready.
type Launcher interface {
	// Name identifies the backend instance (e.g. "flux.2").
	Name() string
	// Backend reports the runtime system type.
	Backend() spec.Backend
	// Nodes reports the partition size in nodes.
	Nodes() int
	// Ready registers a callback invoked once bootstrap completes (or
	// immediately if already done).
	Ready(fn func())
	// BootstrapOverhead reports the measured bootstrap duration; valid
	// after Ready fired.
	BootstrapOverhead() sim.Duration
	// Submit enqueues a task launch.
	Submit(r *Request)
	// Drain cancels queued (not yet started) requests, failing them.
	Drain(reason string)
	// Stats returns current counters.
	Stats() Stats
	// Telemetry returns the placement counters and queue high-water.
	Telemetry() Telemetry
	// AttachPhase forwards the placer's placement wall-clock samples to a
	// self-profiler hook.
	AttachPhase(fn sim.PhaseFunc)
	// FailNode kills every running job whose placement touches the node —
	// releasing its slots and failing its request so the agent's retry
	// path relocates the task — and returns the victim count.
	FailNode(node int, reason string) int
	// Kick pokes the scheduling loop after external capacity changes (a
	// restored node), since backends otherwise only reschedule on
	// completions.
	Kick()
}

// Queue is a FIFO of launch requests backed by a growable ring buffer. It
// is the one request queue shared by all four backends: PopAt removes from
// any position (the placer's affinity and backfill passes select past the
// head) by shifting the shorter side of the ring, so head removal — the
// common case — is O(1) instead of the O(n) copy a slice-delete costs.
type Queue struct {
	buf  []*Request // len(buf) is always a power of two
	head int
	n    int
	high int
	// hinted counts queued requests carrying a Prefer hook, so the
	// placer's affinity pass can skip its window scan entirely for
	// locality-blind workloads.
	hinted int
}

// Len returns the number of queued requests.
func (q *Queue) Len() int { return q.n }

// HighWater returns the deepest the queue ever got.
func (q *Queue) HighWater() int { return q.high }

// HintedLen returns how many queued requests carry placement hints.
func (q *Queue) HintedLen() int { return q.hinted }

// Push appends a request to the tail.
func (q *Queue) Push(r *Request) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = r
	q.n++
	if q.n > q.high {
		q.high = q.n
	}
	if r.Prefer != nil {
		q.hinted++
	}
}

func (q *Queue) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]*Request, size)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = buf
	q.head = 0
}

// At returns the i-th request in FIFO order (0 = head).
func (q *Queue) At(i int) *Request {
	if i < 0 || i >= q.n {
		panic(fmt.Sprintf("launch: queue index %d out of range [0,%d)", i, q.n))
	}
	return q.buf[(q.head+i)&(len(q.buf)-1)]
}

// PopAt removes and returns the i-th request, preserving FIFO order of the
// rest. It shifts whichever side of the ring is shorter; PopAt(0) is O(1).
func (q *Queue) PopAt(i int) *Request {
	r := q.At(i)
	mask := len(q.buf) - 1
	if i < q.n-1-i {
		// Shift the head side forward over the gap.
		for j := i; j > 0; j-- {
			q.buf[(q.head+j)&mask] = q.buf[(q.head+j-1)&mask]
		}
		q.buf[q.head] = nil
		q.head = (q.head + 1) & mask
	} else {
		// Shift the tail side back over the gap.
		for j := i; j < q.n-1; j++ {
			q.buf[(q.head+j)&mask] = q.buf[(q.head+j+1)&mask]
		}
		q.buf[(q.head+q.n-1)&mask] = nil
	}
	q.n--
	if r.Prefer != nil {
		q.hinted--
	}
	return r
}

// TakeAll drains the queue, returning the requests in FIFO order.
func (q *Queue) TakeAll() []*Request {
	if q.n == 0 {
		return nil
	}
	mask := len(q.buf) - 1
	out := make([]*Request, q.n)
	for i := 0; i < q.n; i++ {
		out[i] = q.buf[(q.head+i)&mask]
		q.buf[(q.head+i)&mask] = nil
	}
	q.head = 0
	q.n = 0
	q.hinted = 0
	return out
}

// Placer assigns concrete slots on a partition's nodes. It is shared by all
// backends: Flux uses it inside its scheduler loop, Dragon for implicit
// worker occupancy, and the agent's own scheduler for srun placement.
//
// Single-node requests use a ring cursor (O(1) amortized for uniform
// workloads); multi-node requests take the first nodes with room, walking
// the cluster's open-node bitset instead of every partition node. A
// partition is always an ascending contiguous run of cluster node IDs, so
// a data-affinity hint resolves to its node by offset arithmetic, and a
// free-capacity watermark — recorded when a full scan fails, invalidated
// by the cluster's capacity epoch on any release — short-circuits
// placement attempts that cannot possibly succeed.
type Placer struct {
	part   *platform.Allocation
	cursor int
	// lo is the ID of part.Nodes[0]; part.Nodes[i] has ID lo+i.
	lo int
	// picked is the multi-node placer's reusable candidate buffer, so a
	// failed attempt allocates nothing.
	picked []int
	// Watermark cache: when valid (epoch matches), no node in the
	// partition had more than maxFreeCPU free CPU slots or maxFreeGPU
	// free GPU slots at the time of the last failed full scan. Claims
	// since then only shrink capacity, so a request demanding more than
	// either bound cannot fit and skips its scan entirely.
	wmValid    bool
	wmEpoch    uint64
	maxFreeCPU int
	maxFreeGPU int

	// stats are native counters (no registry indirection on the hot
	// path); backends surface them through Telemetry().
	stats PlacerStats

	// Phase, when set, receives sim.PhasePlacement wall-clock samples for
	// each placement attempt (Place and the shared PopNext scheduling
	// step). Nil costs one branch per call.
	Phase sim.PhaseFunc
}

// NewPlacer returns a placer over the partition. It panics unless the
// partition is an ascending contiguous run of its cluster's nodes, which
// Allocate, Partition and Slice all guarantee.
func NewPlacer(part *platform.Allocation) *Placer {
	lo := 0
	if len(part.Nodes) > 0 {
		lo = part.Nodes[0].ID
	}
	for i, node := range part.Nodes {
		if lo+i >= part.Cluster.Size() || part.Cluster.Node(lo+i) != node {
			panic(fmt.Sprintf("launch: partition node %d (ID %d) breaks the contiguous run from ID %d", i, node.ID, lo))
		}
	}
	return &Placer{part: part, lo: lo}
}

// Partition returns the underlying allocation.
func (p *Placer) Partition() *platform.Allocation { return p.part }

// Stats returns the placement counters accumulated so far.
func (p *Placer) Stats() PlacerStats { return p.stats }

// cannotFit reports whether the watermark cache proves no node in the
// partition currently has (cores, gpus) free.
func (p *Placer) cannotFit(cores, gpus int) bool {
	if !p.wmValid || p.part.Cluster.Epoch() != p.wmEpoch {
		p.wmValid = false
		return false
	}
	if cores > p.maxFreeCPU || gpus > p.maxFreeGPU {
		p.stats.WatermarkSkips++
		return true
	}
	return false
}

// recordWatermark caches the per-node free-capacity maxima observed during
// a failed full scan, tagged with the current capacity epoch.
func (p *Placer) recordWatermark(maxCPU, maxGPU int) {
	p.wmValid = true
	p.wmEpoch = p.part.Cluster.Epoch()
	p.maxFreeCPU = maxCPU
	p.maxFreeGPU = maxGPU
}

// Place finds and claims slots for the task. It returns nil when the
// partition currently lacks capacity (the caller re-tries when slots free).
func (p *Placer) Place(at sim.Time, td *spec.TaskDescription) *platform.Placement {
	var t0 time.Time
	if p.Phase != nil {
		t0 = time.Now()
	}
	var pl *platform.Placement
	if td.MultiNode() {
		pl = p.placeMultiNode(at, td, nil)
	} else {
		pl = p.placeSingleNode(at, td, nil)
	}
	if p.Phase != nil {
		p.Phase(sim.PhasePlacement, time.Since(t0).Nanoseconds())
	}
	return pl
}

// PlaceRequest places a launch request: the request's preferred nodes
// (data-aware scheduling hints) are tried in listed order before the
// default policy, and on success the request's OnPlaced hook fires with
// the chosen node IDs. Backends call this instead of Place so placement
// stays a single code path across runtime systems.
func (p *Placer) PlaceRequest(at sim.Time, r *Request) *platform.Placement {
	var prefer []int
	if r.Prefer != nil {
		prefer = r.Prefer()
	}
	var pl *platform.Placement
	if r.TD.MultiNode() {
		pl = p.placeMultiNode(at, r.TD, prefer)
	} else {
		pl = p.placeSingleNode(at, r.TD, prefer)
	}
	if pl != nil && r.OnPlaced != nil {
		r.OnPlaced(at, append([]int(nil), pl.NodeIDs...))
	}
	return pl
}

// affinityWindow bounds how far past the queue head the data-aware
// selection pass looks for a task whose preferred nodes have capacity.
const affinityWindow = 128

// NextRequest selects which queued request a backend should place next,
// returning its queue index and claimed placement, or (-1, nil) when
// nothing can place. Selection runs in three passes:
//
//  1. Affinity (delay scheduling): the first request within the window
//     whose preferred nodes can host it right now wins, even over older
//     queue entries — when a slot frees on a node, the task whose data
//     already sits there takes it.
//  2. FCFS: the head request places by the default policy.
//  3. Backfill: up to backfill requests past a blocked head may place
//     (Flux's bounded backfill; zero keeps strict head-of-line order for
//     srun/Dragon/PRRTE).
//
// Requests without preferences see exactly the legacy FCFS(+backfill)
// behavior, so locality-blind workloads are byte-for-byte unchanged.
func (p *Placer) NextRequest(at sim.Time, queue *Queue, backfill int) (int, *platform.Placement) {
	w := affinityWindow
	if w > queue.Len() {
		w = queue.Len()
	}
	if queue.HintedLen() == 0 {
		w = 0 // no hinted request queued: the affinity pass cannot match
	}
	for i := 0; i < w; i++ {
		r := queue.At(i)
		if r.Prefer == nil || r.TD.MultiNode() {
			continue
		}
		if p.cannotFit(r.TD.TotalCores(), r.TD.TotalGPUs()) {
			continue
		}
		prefer := r.Prefer()
		if len(prefer) == 0 {
			continue
		}
		if pl := p.placePreferredOnly(at, r, prefer); pl != nil {
			if r.OnPlaced != nil {
				r.OnPlaced(at, append([]int(nil), pl.NodeIDs...))
			}
			p.stats.AffinityHits++
			return i, pl
		}
	}
	n := 1 + backfill
	if n > queue.Len() {
		n = queue.Len()
	}
	for i := 0; i < n; i++ {
		r := queue.At(i)
		if pl := p.PlaceRequest(at, r); pl != nil {
			if i > 0 {
				p.stats.BackfillHits++
			}
			return i, pl
		}
		// The placer looked at this request and found no capacity: from
		// here on its queue wait counts as placement starvation, not
		// plain FIFO delay.
		r.Denied = true
	}
	return -1, nil
}

// PopNext runs NextRequest and removes the selected request from the
// queue, returning it with its claimed placement ((nil, nil) when nothing
// can place). It is the one-call scheduling step all backends share.
func (p *Placer) PopNext(at sim.Time, queue *Queue, backfill int) (*Request, *platform.Placement) {
	var t0 time.Time
	if p.Phase != nil {
		t0 = time.Now()
	}
	idx, pl := p.NextRequest(at, queue, backfill)
	if p.Phase != nil {
		p.Phase(sim.PhasePlacement, time.Since(t0).Nanoseconds())
	}
	if pl == nil {
		return nil, nil
	}
	r := queue.PopAt(idx)
	// The queue wait just resolved: attribute it. A request the placer
	// denied at least once starved on capacity; one placed on its first
	// consideration merely queued behind earlier work.
	if r.Trace != nil && r.EnqueuedAt >= 0 && at > r.EnqueuedAt {
		kind := profiler.EdgeQueued
		if r.Denied {
			kind = profiler.EdgeStarved
		}
		r.Trace.AddEdge(profiler.CausalEdge{Kind: kind, From: r.EnqueuedAt, To: at})
	}
	return r, pl
}

// placePreferredOnly claims the first hinted node with capacity, without
// falling back to the ring policy.
func (p *Placer) placePreferredOnly(at sim.Time, r *Request, prefer []int) *platform.Placement {
	p.stats.Attempts++
	cores := r.TD.TotalCores()
	gpus := r.TD.TotalGPUs()
	for _, id := range prefer {
		node := p.preferredNode(id, cores, gpus)
		if node == nil {
			continue
		}
		pl := platform.NewSingleNodePlacement(node.ID, cores, gpus)
		if err := p.part.Claim(at, pl); err != nil {
			panic(fmt.Sprintf("launch: claim after fit check failed: %v", err))
		}
		p.stats.Placed++
		return pl
	}
	return nil
}

// preferredNode resolves a hinted node ID to a partition node with enough
// free capacity, nil otherwise (also for IDs outside the partition).
func (p *Placer) preferredNode(id, cores, gpus int) *platform.Node {
	i := id - p.lo
	if i < 0 || i >= len(p.part.Nodes) {
		return nil
	}
	node := p.part.Nodes[i]
	if node.FreeCPU() >= cores && node.FreeGPU() >= gpus {
		return node
	}
	return nil
}

func (p *Placer) placeSingleNode(at sim.Time, td *spec.TaskDescription, prefer []int) *platform.Placement {
	p.stats.Attempts++
	cores := td.TotalCores()
	gpus := td.TotalGPUs()
	if p.cannotFit(cores, gpus) {
		return nil
	}
	// Preference pass: claim the first hinted node that fits, leaving the
	// ring cursor untouched so non-hinted traffic keeps its packing order.
	for _, id := range prefer {
		node := p.preferredNode(id, cores, gpus)
		if node == nil {
			continue
		}
		pl := platform.NewSingleNodePlacement(node.ID, cores, gpus)
		if err := p.part.Claim(at, pl); err != nil {
			panic(fmt.Sprintf("launch: claim after fit check failed: %v", err))
		}
		p.stats.Placed++
		return pl
	}
	n := len(p.part.Nodes)
	maxCPU, maxGPU := 0, 0
	for i := 0; i < n; i++ {
		node := p.part.Nodes[(p.cursor+i)%n]
		if node.FreeCPU() >= cores && node.FreeGPU() >= gpus {
			p.cursor = (p.cursor + i) % n
			pl := platform.NewSingleNodePlacement(node.ID, cores, gpus)
			if err := p.part.Claim(at, pl); err != nil {
				panic(fmt.Sprintf("launch: claim after fit check failed: %v", err))
			}
			// Advance past a filled node so the next search does
			// not rescan it first.
			if node.FreeCPU() == 0 {
				p.cursor = (p.cursor + 1) % n
			}
			p.stats.Placed++
			return pl
		}
		if f := node.FreeCPU(); f > maxCPU {
			maxCPU = f
		}
		if f := node.FreeGPU(); f > maxGPU {
			maxGPU = f
		}
	}
	// Full scan failed: remember the capacity maxima so equally-large
	// requests skip the scan until something is released.
	p.stats.ScanFailures++
	p.recordWatermark(maxCPU, maxGPU)
	return nil
}

// perNodeFootprint returns the per-node cores/gpus demand of a multi-node
// task: ranks spread evenly across the requested nodes, rounded up, with
// CoresPerRank defaulting to 1 and Ranks defaulting to one per node. It is
// the one place the footprint math lives (Fits and placeMultiNode share
// it).
func perNodeFootprint(td *spec.TaskDescription) (cores, gpus int) {
	want := td.Nodes
	ranks := td.Ranks
	if ranks <= 0 {
		ranks = want
	}
	ranksPerNode := (ranks + want - 1) / want
	cpr := td.CoresPerRank
	if cpr <= 0 {
		cpr = 1
	}
	return ranksPerNode * cpr, ranksPerNode * td.GPUsPerRank
}

func (p *Placer) placeMultiNode(at sim.Time, td *spec.TaskDescription, prefer []int) *platform.Placement {
	p.stats.Attempts++
	want := td.Nodes
	spec := p.part.Cluster.Spec
	coresPerNode, gpusPerNode := perNodeFootprint(td)
	if coresPerNode > spec.Slots() || gpusPerNode > spec.GPUs {
		panic(fmt.Sprintf("launch: task %s per-node footprint (%d cores, %d gpus) exceeds node", td.UID, coresPerNode, gpusPerNode))
	}
	if p.cannotFit(coresPerNode, gpusPerNode) {
		return nil
	}
	ids := p.picked[:0]
	for _, id := range prefer {
		if len(ids) == want {
			break
		}
		if slices.Contains(ids, id) {
			continue
		}
		if node := p.preferredNode(id, coresPerNode, gpusPerNode); node != nil {
			ids = append(ids, node.ID)
		}
	}
	// First fit over the rest of the partition in ID order. A node without
	// free CPU cannot host even one core of the footprint, so only the
	// open nodes need a look.
	hinted := ids
	cl := p.part.Cluster
	hi := p.lo + len(p.part.Nodes)
	for id := cl.NextOpen(p.lo, hi); id < hi && len(ids) < want; id = cl.NextOpen(id+1, hi) {
		if slices.Contains(hinted, id) {
			continue
		}
		node := p.part.Nodes[id-p.lo]
		if node.FreeCPU() >= coresPerNode && node.FreeGPU() >= gpusPerNode {
			ids = append(ids, id)
		}
	}
	p.picked = ids[:0]
	if len(ids) < want {
		p.stats.ScanFailures++
		return nil
	}
	slots := make([]int, 3*want)
	pl := &platform.Placement{
		NodeIDs:  slots[:want:want],
		CPUSlots: slots[want : 2*want : 2*want],
		GPUSlots: slots[2*want:],
	}
	copy(pl.NodeIDs, ids)
	for i := range want {
		pl.CPUSlots[i] = coresPerNode
		pl.GPUSlots[i] = gpusPerNode
	}
	if err := p.part.Claim(at, pl); err != nil {
		panic(fmt.Sprintf("launch: multi-node claim after fit check failed: %v", err))
	}
	p.stats.Placed++
	return pl
}

// Fits reports whether the task could ever fit on the partition when it is
// completely idle. Backends fail such tasks immediately instead of queueing
// them forever.
func (p *Placer) Fits(td *spec.TaskDescription) bool {
	sp := p.part.Cluster.Spec
	if td.MultiNode() {
		if td.Nodes > len(p.part.Nodes) {
			return false
		}
		cores, gpus := perNodeFootprint(td)
		return cores <= sp.Slots() && gpus <= sp.GPUs
	}
	return td.TotalCores() <= sp.Slots() && td.TotalGPUs() <= sp.GPUs
}
