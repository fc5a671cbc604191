// Package data is the discrete-event storage subsystem: a tiered hierarchy
// (node-local NVMe, shared parallel FS, optional burst buffer), named
// datasets with byte sizes, shared-bandwidth transfer channels that model
// contention through the sim engine, and a placement registry tracking
// which nodes hold which datasets.
//
// The subsystem gives the simulator what the paper's hybrid AI-HPC
// campaigns actually stress — model weights fanning out to trainers,
// checkpoints hammering the parallel FS, datasets handed from producers to
// consumers across DAG stages — and it is what the agent's data-aware
// placement policy reads to keep tasks next to their inputs.
package data

import (
	"fmt"
	"slices"
	"strconv"

	"rpgo/internal/model"
	"rpgo/internal/obs"
	"rpgo/internal/platform"
	"rpgo/internal/profiler"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
)

// Byte-size helpers for workload builders and tests.
const (
	KB int64 = 1 << 10
	MB int64 = 1 << 20
	GB int64 = 1 << 30
)

// System is the storage model for one allocation: its channels, its
// placement registry, and the flow engine moving bytes between them.
type System struct {
	eng    *sim.Engine
	prof   *profiler.Profiler
	params model.DataParams

	shared *Channel
	burst  *Channel // nil when the tier is disabled
	// nvme holds node lo+i's NVMe channel at index i, built on the node's
	// first transfer: most nodes of a large allocation never move bytes.
	nvme []*Channel
	lo   int
	// live lists the channels the flow sweeps visit: a channel joins when
	// a flow enters it and leaves once its occupancy has been noted back
	// to zero.
	live []*Channel

	reg *Registry

	flows []*flow
	// finished is tick's reused scratch list of completing flows.
	finished []*flow
	// uidSeq numbers transfers for causal references; assigned when the
	// transfer API is called (before setup latency) so coalescing joiners
	// can name the movement they ride.
	uidSeq uint64
	lastT  sim.Time
	timer  sim.Timer
	// tickFn, beginFn and completeFn are bound once: a method value
	// allocates each time it is taken, and every transfer schedules its
	// begin and completion while recompute reschedules the tick on every
	// flow change.
	tickFn     func()
	beginFn    func(any)
	completeFn func(any)

	// pendingNode coalesces concurrent stage-ins of the same dataset to
	// the same node: the first request transfers, later ones join as
	// waiters — one copy moves no matter how many tasks want it.
	// pendingTier does the same for tier-to-tier transfers.
	pendingNode map[nodeKey]*flow
	pendingTier map[tierKey]*flow

	hits       int
	misses     int
	bytesMoved int64

	// Cached telemetry instruments (nil-safe dummies when no registry is
	// attached) so the hot paths never branch on instrumentation.
	cTransfers *obs.Counter
	cCoalesced *obs.Counter
	cStalls    *obs.Counter
	cBytes     *obs.Counter
	gFlows     *obs.Gauge
}

type nodeKey struct {
	dataset string
	node    int
}

type tierKey struct {
	dataset string
	tier    spec.StageTier
}

// NewSystem builds the storage model over the allocation's nodes, which
// must be an ascending contiguous run of node IDs (as every allocation,
// partition and slice of a cluster is). Zero or negative bandwidth dials
// fall back to the calibrated defaults so a partially filled Params cannot
// divide by zero.
func NewSystem(eng *sim.Engine, alloc *platform.Allocation, p model.DataParams, prof *profiler.Profiler, tel *obs.Registry) *System {
	def := model.Default().Data
	if p.NVMeBandwidth <= 0 {
		p.NVMeBandwidth = def.NVMeBandwidth
	}
	if p.SharedFSBase <= 0 && p.SharedFSPerNode <= 0 {
		p.SharedFSBase, p.SharedFSPerNode = def.SharedFSBase, def.SharedFSPerNode
	}
	n := alloc.Size()
	s := &System{
		eng:         eng,
		prof:        prof,
		params:      p,
		nvme:        make([]*Channel, n),
		reg:         NewRegistry(),
		pendingNode: make(map[nodeKey]*flow),
		pendingTier: make(map[tierKey]*flow),
		cTransfers:  tel.Counter("data.transfers"),
		cCoalesced:  tel.Counter("data.coalesced_joins"),
		cStalls:     tel.Counter("data.contention_stalls"),
		cBytes:      tel.Counter("data.bytes_moved"),
		gFlows:      tel.Gauge("data.active_flows"),
	}
	if n > 0 {
		s.lo = alloc.Nodes[0].ID
	}
	for i, node := range alloc.Nodes {
		if node.ID != s.lo+i {
			panic(fmt.Sprintf("data: allocation node %d (ID %d) breaks the contiguous run from ID %d", i, node.ID, s.lo))
		}
	}
	s.tickFn = s.tick
	s.beginFn = s.begin
	s.completeFn = s.complete
	s.shared = &Channel{name: "sharedfs", capacity: p.SharedFSBandwidth(n)}
	if bb := p.BurstBufferBandwidth(n); bb > 0 {
		s.burst = &Channel{name: "burstbuffer", capacity: bb}
	}
	return s
}

// Registry returns the dataset placement registry.
func (s *System) Registry() *Registry { return s.reg }

// SharedChannel returns the parallel-FS channel.
func (s *System) SharedChannel() *Channel { return s.shared }

// BurstChannel returns the burst-buffer channel, nil when disabled.
func (s *System) BurstChannel() *Channel { return s.burst }

// NodeChannel returns node id's NVMe channel, nil for nodes outside the
// allocation.
func (s *System) NodeChannel(id int) *Channel {
	i := id - s.lo
	if i < 0 || i >= len(s.nvme) {
		return nil
	}
	ch := s.nvme[i]
	if ch == nil {
		ch = &Channel{name: nvmeName(id), capacity: s.params.NVMeBandwidth}
		s.nvme[i] = ch
	}
	return ch
}

// inAlloc reports whether the node belongs to the allocation (has local
// storage the registry can record replicas on).
func (s *System) inAlloc(node int) bool {
	i := node - s.lo
	return i >= 0 && i < len(s.nvme)
}

// BytesMoved returns the total bytes transferred so far.
func (s *System) BytesMoved() int64 { return s.bytesMoved }

// Hits and Misses return the locality counters; HitRate the derived rate.
func (s *System) Hits() int   { return s.hits }
func (s *System) Misses() int { return s.misses }

// HitRate returns hits/(hits+misses), zero before any lookup.
func (s *System) HitRate() float64 {
	if s.hits+s.misses == 0 {
		return 0
	}
	return float64(s.hits) / float64(s.hits+s.misses)
}

// RecordHit / RecordMiss update the locality counters (the agent calls
// them as it resolves each input directive).
func (s *System) RecordHit()  { s.hits++ }
func (s *System) RecordMiss() { s.misses++ }

// tierChannel maps a shared tier to its channel; a disabled burst buffer
// degrades to the parallel FS.
func (s *System) tierChannel(t spec.StageTier) *Channel {
	if t == spec.TierBurstBuffer && s.burst != nil {
		return s.burst
	}
	return s.shared
}

// tierLatency is the per-transfer setup cost at a tier endpoint.
func (s *System) tierLatency(t spec.StageTier) float64 {
	switch t {
	case spec.TierNodeLocal:
		return s.params.NVMeLatency
	case spec.TierBurstBuffer:
		if s.burst != nil {
			return s.params.BurstBufferLatency
		}
		return s.params.SharedFSLatency
	default:
		return s.params.SharedFSLatency
	}
}

// Seed marks a dataset as present at a tier without moving bytes — inputs
// sourced from a tier are by definition already there.
func (s *System) Seed(dataset string, bytes int64, tier spec.StageTier) {
	s.reg.RegisterTier(dataset, bytes, s.effectiveTier(tier))
}

func (s *System) effectiveTier(t spec.StageTier) spec.StageTier {
	if t == spec.TierBurstBuffer && s.burst == nil {
		return spec.TierSharedFS
	}
	return t
}

// nextUID numbers a transfer at API-call time, formatting "xfer.%06d"
// without fmt.
func (s *System) nextUID() string {
	seq := s.uidSeq
	s.uidSeq++
	if seq >= 1000000 {
		return fmt.Sprintf("xfer.%06d", seq)
	}
	buf := [11]byte{'x', 'f', 'e', 'r', '.', '0', '0', '0', '0', '0', '0'}
	for i := len(buf) - 1; seq > 0; i-- {
		buf[i] = byte('0' + seq%10)
		seq /= 10
	}
	return string(buf[:])
}

// nvmeName names node's NVMe channel, also for nodes outside the
// allocation (which have no channel).
func nvmeName(node int) string { return "nvme:" + strconv.Itoa(node) }

// linkName names the channel, or node's NVMe when ch is nil.
func linkName(ch *Channel, node int) string {
	if ch != nil {
		return ch.name
	}
	return nvmeName(node)
}

// JoinPending registers fn to fire when an already in-flight stage-in of
// the dataset to the node completes; it returns that transfer's UID and
// whether such a transfer exists. Joining moves no bytes — callers count it
// as a locality hit.
func (s *System) JoinPending(dataset string, node int, fn func()) (string, bool) {
	f, ok := s.pendingNode[nodeKey{dataset, node}]
	if !ok {
		return "", false
	}
	f.waiters = append(f.waiters, fn)
	s.cCoalesced.Inc()
	return f.tt.uid, true
}

// PendingNodes returns the nodes a stage-in of the dataset is currently
// in flight to, sorted ascending.
func (s *System) PendingNodes(dataset string) []int {
	var out []int
	for k := range s.pendingNode {
		if k.dataset == dataset {
			out = append(out, k.node)
		}
	}
	slices.Sort(out)
	return out
}

// StageToNode pulls a dataset from a shared tier into one node's local
// storage: the flow traverses the source tier's channel and the node's
// NVMe channel, bottlenecked by the more contended of the two. On
// completion the registry records a node-local replica and any coalesced
// waiters fire. Callers must check JoinPending first: a second stage-in of
// the dataset to the node while one is in flight is a caller bug and
// panics. It returns the transfer's UID for causal references.
func (s *System) StageToNode(task, dataset string, bytes int64, src spec.StageTier, node int, done func()) string {
	key := nodeKey{dataset, node}
	if p, ok := s.pendingNode[key]; ok {
		panic(fmt.Sprintf("data: stage-in of %s to node %d while %s is in flight (callers must JoinPending)",
			dataset, node, p.tt.uid))
	}
	srcCh := s.tierChannel(src)
	dst := s.NodeChannel(node)
	f := &flow{kind: flowStage, done: done, tt: transferInfo{
		uid: s.nextUID(), dataset: dataset, task: task, bytes: bytes,
		src: srcCh.name, dst: linkName(dst, node), node: node,
	}}
	f.link(srcCh)
	f.link(dst)
	s.pendingNode[key] = f
	s.reg.touch(dataset)
	s.eng.AfterCall(sim.Seconds(s.tierLatency(src)+s.params.NVMeLatency), s.beginFn, f)
	return f.tt.uid
}

// WriteFromNode writes a dataset produced on a node out to a tier. The
// flow traverses the node's NVMe channel and, for shared tiers, the tier
// channel. The registry records the dataset at the destination tier and as
// a node-local replica: the produced bytes linger in the node's storage,
// which is what lets a data-aware scheduler run the consumer where the
// producer ran.
func (s *System) WriteFromNode(task, dataset string, bytes int64, node int, dest spec.StageTier, done func()) string {
	src := s.NodeChannel(node)
	f := &flow{kind: flowWrite, dest: dest, done: done, tt: transferInfo{
		uid: s.nextUID(), dataset: dataset, task: task, bytes: bytes,
		src: linkName(src, node), node: node,
	}}
	f.tt.dst = f.tt.src
	f.link(src)
	lat := s.params.NVMeLatency
	if dest != spec.TierNodeLocal {
		dch := s.tierChannel(dest)
		f.link(dch)
		f.tt.dst = dch.name
		lat += s.tierLatency(dest)
	}
	s.eng.AfterCall(sim.Seconds(lat), s.beginFn, f)
	return f.tt.uid
}

// JoinPendingTier registers fn to fire when an already in-flight transfer
// of the dataset to the tier completes; it returns that transfer's UID and
// whether such a transfer exists. Joining moves no bytes — callers count it
// as a locality hit.
func (s *System) JoinPendingTier(dataset string, tier spec.StageTier, fn func()) (string, bool) {
	f, ok := s.pendingTier[tierKey{dataset, s.effectiveTier(tier)}]
	if !ok {
		return "", false
	}
	f.waiters = append(f.waiters, fn)
	s.cCoalesced.Inc()
	return f.tt.uid, true
}

// TierTransfer moves a dataset between two shared tiers (pre-placement
// staging: parallel FS to burst buffer and back). The registry records the
// dataset at the destination and coalesced waiters fire. Callers must check
// JoinPendingTier first: a second transfer of the dataset to the tier
// while one is in flight is a caller bug and panics. It returns the
// transfer's UID for causal references.
func (s *System) TierTransfer(task, dataset string, bytes int64, src, dest spec.StageTier, done func()) string {
	key := tierKey{dataset, s.effectiveTier(dest)}
	if p, ok := s.pendingTier[key]; ok {
		panic(fmt.Sprintf("data: transfer of %s to tier %v while %s is in flight (callers must JoinPendingTier)",
			dataset, key.tier, p.tt.uid))
	}
	srcCh, dstCh := s.tierChannel(src), s.tierChannel(dest)
	f := &flow{kind: flowTier, dest: key.tier, done: done, tt: transferInfo{
		uid: s.nextUID(), dataset: dataset, task: task, bytes: bytes,
		src: srcCh.name, dst: dstCh.name, node: -1,
	}}
	f.link(srcCh)
	if dstCh != srcCh {
		f.link(dstCh)
	}
	s.pendingTier[key] = f
	s.eng.AfterCall(sim.Seconds(s.tierLatency(src)+s.tierLatency(dest)), s.beginFn, f)
	return f.tt.uid
}

// begin runs once a transfer's setup latency has elapsed: the flow joins
// the channels it traverses.
func (s *System) begin(x any) {
	f := x.(*flow)
	now := s.eng.Now()
	f.tt.start = now
	if f.tt.bytes <= 0 {
		s.finishTransfer(f, now)
		return
	}
	s.advance()
	f.remaining = float64(f.tt.bytes)
	for _, ch := range f.links() {
		if ch.nActive > 0 {
			// Joining an already-busy link: every flow on it slows down.
			s.cStalls.Inc()
			f.tt.contended = ch.name
			break
		}
	}
	for _, ch := range f.links() {
		if !ch.live {
			ch.live = true
			s.live = append(s.live, ch)
		}
	}
	s.flows = append(s.flows, f)
	s.recompute()
	s.gFlows.Set(now, float64(len(s.flows)))
}

// finishTransfer records the trace and hands the completion to the engine.
func (s *System) finishTransfer(f *flow, at sim.Time) {
	s.cTransfers.Inc()
	if s.prof != nil {
		tt := profiler.TransferTrace{
			UID:     f.tt.uid,
			Dataset: f.tt.dataset,
			Task:    f.tt.task,
			Bytes:   f.tt.bytes,
			Src:     f.tt.src,
			Dst:     f.tt.dst,
			Node:    f.tt.node,
			Start:   f.tt.start,
			End:     at,
		}
		if f.tt.contended != "" && at > f.tt.start {
			// The flow shared its bottleneck link from the moment it
			// entered the channels.
			tt.Edges = []profiler.CausalEdge{{
				Kind: profiler.EdgeContention,
				From: f.tt.start,
				To:   at,
				Ref:  f.tt.contended,
			}}
		}
		s.prof.Transfer(tt)
	}
	s.eng.ImmediatelyCall(s.completeFn, f)
}

// complete applies a finished transfer to the registry, retires its
// coalescing record and fires its callbacks: the caller's first, then
// every waiter that joined it.
func (s *System) complete(x any) {
	f := x.(*flow)
	ds := f.tt.dataset
	switch f.kind {
	case flowStage:
		if s.inAlloc(f.tt.node) {
			s.reg.RegisterNode(ds, f.tt.bytes, f.tt.node)
		}
		delete(s.pendingNode, nodeKey{ds, f.tt.node})
		s.reg.touch(ds)
	case flowWrite:
		if s.inAlloc(f.tt.node) {
			s.reg.RegisterNode(ds, f.tt.bytes, f.tt.node)
		}
		if f.dest != spec.TierNodeLocal {
			s.reg.RegisterTier(ds, f.tt.bytes, s.effectiveTier(f.dest))
		}
	case flowTier:
		s.reg.RegisterTier(ds, f.tt.bytes, f.dest)
		delete(s.pendingTier, tierKey{ds, f.dest})
	}
	if f.done != nil {
		f.done()
	}
	for _, fn := range f.waiters {
		fn()
	}
}

// Registry tracks which nodes and tiers hold which datasets.
type Registry struct {
	entries map[string]*regEntry
	// byNode indexes node-local replicas by node, so evicting a failed
	// node touches only that node's replicas.
	byNode map[int][]*regEntry
}

type regEntry struct {
	bytes  int64
	nodes  []int // ascending node IDs holding a replica
	shared bool
	burst  bool
	// version is the dataset's locality version: it grows whenever the
	// replica set or the in-flight stage-ins change.
	version uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*regEntry), byNode: make(map[int][]*regEntry)}
}

func (r *Registry) entry(dataset string) *regEntry {
	e, ok := r.entries[dataset]
	if !ok {
		e = &regEntry{}
		r.entries[dataset] = e
	}
	return e
}

// Version returns the dataset's locality version. It only grows, and it
// changes whenever NodesHolding or System.PendingNodes of the dataset
// would, so a preference computed from them stays valid while the
// versions of its datasets are unchanged.
func (r *Registry) Version(dataset string) uint64 {
	if e, ok := r.entries[dataset]; ok {
		return e.version
	}
	return 0
}

// touch bumps the dataset's locality version (its in-flight stage-ins
// changed).
func (r *Registry) touch(dataset string) { r.entry(dataset).version++ }

// RegisterNode records a node-local replica of the dataset.
func (r *Registry) RegisterNode(dataset string, bytes int64, node int) {
	e := r.entry(dataset)
	if bytes > e.bytes {
		e.bytes = bytes
	}
	i, found := slices.BinarySearch(e.nodes, node)
	if found {
		return
	}
	e.nodes = slices.Insert(e.nodes, i, node)
	r.byNode[node] = append(r.byNode[node], e)
	e.version++
}

// RegisterTier records the dataset's presence at a shared tier.
func (r *Registry) RegisterTier(dataset string, bytes int64, tier spec.StageTier) {
	e := r.entry(dataset)
	if bytes > e.bytes {
		e.bytes = bytes
	}
	switch tier {
	case spec.TierSharedFS:
		e.shared = true
	case spec.TierBurstBuffer:
		e.burst = true
	}
}

// Evict drops a node-local replica (node draining, cache pressure models).
func (r *Registry) Evict(dataset string, node int) {
	e, ok := r.entries[dataset]
	if !ok || !e.drop(node) {
		return
	}
	es := r.byNode[node]
	i := slices.Index(es, e)
	es[i] = es[len(es)-1]
	es[len(es)-1] = nil
	r.byNode[node] = es[:len(es)-1]
}

// drop removes node from the entry's replica set, reporting whether it
// held one.
func (e *regEntry) drop(node int) bool {
	i, found := slices.BinarySearch(e.nodes, node)
	if !found {
		return false
	}
	e.nodes = slices.Delete(e.nodes, i, i+1)
	e.version++
	return true
}

// EvictNode drops every replica the node holds (the node failed; its local
// storage went with it). Returns the number of replicas dropped.
func (r *Registry) EvictNode(node int) int {
	es := r.byNode[node]
	for i, e := range es {
		e.drop(node)
		es[i] = nil
	}
	r.byNode[node] = es[:0]
	return len(es)
}

// HasNode reports whether the node holds a replica of the dataset.
func (r *Registry) HasNode(dataset string, node int) bool {
	e, ok := r.entries[dataset]
	if !ok {
		return false
	}
	_, found := slices.BinarySearch(e.nodes, node)
	return found
}

// HasTier reports whether the dataset is present at a shared tier.
func (r *Registry) HasTier(dataset string, tier spec.StageTier) bool {
	e, ok := r.entries[dataset]
	if !ok {
		return false
	}
	switch tier {
	case spec.TierSharedFS:
		return e.shared
	case spec.TierBurstBuffer:
		return e.burst
	default:
		return len(e.nodes) > 0
	}
}

// NodesHolding returns the node IDs with a replica, sorted ascending (the
// deterministic base order for placement preference).
func (r *Registry) NodesHolding(dataset string) []int {
	e, ok := r.entries[dataset]
	if !ok {
		return nil
	}
	return slices.Clone(e.nodes)
}

// Bytes returns the registered size of the dataset.
func (r *Registry) Bytes(dataset string) int64 {
	if e, ok := r.entries[dataset]; ok {
		return e.bytes
	}
	return 0
}

// Replicas returns the total node-replica count across all datasets.
func (r *Registry) Replicas() int {
	n := 0
	for _, es := range r.byNode {
		n += len(es)
	}
	return n
}
