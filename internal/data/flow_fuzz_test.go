package data

// Differential fuzzing of the flow engine. FuzzFlowEngine decodes bytes
// into a sequence of transfer operations and replays it on System and on
// refSystem, a reference engine kept here: the straightforward model that
// sweeps every channel of the allocation in three passes on every
// recompute and rounds one flowETA per flow. The two must agree on
// completion times, transfer traces, causal edges, occupancy samples and
// the node replicas the registry ends up with.

import (
	"fmt"
	"math"
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

// refFlow is one in-flight transfer of the reference engine.
type refFlow struct {
	remaining float64
	rate      float64
	chans     []*Channel
	tt        transferInfo
	done      func()
}

type refPending struct {
	uid     string
	waiters []func()
}

// refSystem is the reference flow engine: an eager channel per node, an
// all-channel recompute, and a brute-force replica registry.
type refSystem struct {
	eng      *sim.Engine
	prof     *profiler.Profiler
	params   model.DataParams
	shared   *Channel
	burst    *Channel
	nvme     map[int]*Channel
	channels []*Channel

	flows  []*refFlow
	uidSeq int
	lastT  sim.Time
	timer  sim.Timer

	pendingNode map[nodeKey]*refPending
	pendingTier map[tierKey]*refPending
	replicas    map[string]map[int]bool
}

func newRefSystem(eng *sim.Engine, alloc *platform.Allocation, p model.DataParams, prof *profiler.Profiler) *refSystem {
	n := alloc.Size()
	r := &refSystem{
		eng: eng, prof: prof, params: p,
		nvme:        make(map[int]*Channel),
		pendingNode: make(map[nodeKey]*refPending),
		pendingTier: make(map[tierKey]*refPending),
		replicas:    make(map[string]map[int]bool),
	}
	r.shared = &Channel{name: "sharedfs", capacity: p.SharedFSBandwidth(n)}
	r.channels = append(r.channels, r.shared)
	if bb := p.BurstBufferBandwidth(n); bb > 0 {
		r.burst = &Channel{name: "burstbuffer", capacity: bb}
		r.channels = append(r.channels, r.burst)
	}
	for _, node := range alloc.Nodes {
		ch := &Channel{name: fmt.Sprintf("nvme:%d", node.ID), capacity: p.NVMeBandwidth}
		r.nvme[node.ID] = ch
		r.channels = append(r.channels, ch)
	}
	return r
}

func (r *refSystem) tierChannel(t spec.StageTier) *Channel {
	if t == spec.TierBurstBuffer && r.burst != nil {
		return r.burst
	}
	return r.shared
}

func (r *refSystem) effectiveTier(t spec.StageTier) spec.StageTier {
	if t == spec.TierBurstBuffer && r.burst == nil {
		return spec.TierSharedFS
	}
	return t
}

func (r *refSystem) tierLatency(t spec.StageTier) float64 {
	switch {
	case t == spec.TierNodeLocal:
		return r.params.NVMeLatency
	case t == spec.TierBurstBuffer && r.burst != nil:
		return r.params.BurstBufferLatency
	default:
		return r.params.SharedFSLatency
	}
}

func (r *refSystem) nextUID() string {
	uid := fmt.Sprintf("xfer.%06d", r.uidSeq)
	r.uidSeq++
	return uid
}

func (r *refSystem) nvmeName(node int) string { return fmt.Sprintf("nvme:%d", node) }

func (r *refSystem) registerNode(dataset string, node int) {
	if r.nvme[node] == nil {
		return
	}
	if r.replicas[dataset] == nil {
		r.replicas[dataset] = make(map[int]bool)
	}
	r.replicas[dataset][node] = true
}

func (r *refSystem) joinPending(dataset string, node int, fn func()) (string, bool) {
	p, ok := r.pendingNode[nodeKey{dataset, node}]
	if !ok {
		return "", false
	}
	p.waiters = append(p.waiters, fn)
	return p.uid, true
}

func (r *refSystem) joinPendingTier(dataset string, tier spec.StageTier, fn func()) (string, bool) {
	p, ok := r.pendingTier[tierKey{dataset, r.effectiveTier(tier)}]
	if !ok {
		return "", false
	}
	p.waiters = append(p.waiters, fn)
	return p.uid, true
}

func (r *refSystem) stageToNode(task, dataset string, bytes int64, src spec.StageTier, node int, done func()) string {
	srcCh := r.tierChannel(src)
	chans := []*Channel{srcCh}
	if ch := r.nvme[node]; ch != nil {
		chans = append(chans, ch)
	}
	uid := r.nextUID()
	key := nodeKey{dataset, node}
	p := &refPending{uid: uid}
	r.pendingNode[key] = p
	r.start(chans, r.tierLatency(src)+r.params.NVMeLatency, transferInfo{
		uid: uid, dataset: dataset, task: task, bytes: bytes,
		src: srcCh.name, dst: r.nvmeName(node), node: node,
	}, func() {
		r.registerNode(dataset, node)
		delete(r.pendingNode, key)
		done()
		for _, fn := range p.waiters {
			fn()
		}
	})
	return uid
}

func (r *refSystem) writeFromNode(task, dataset string, bytes int64, node int, dest spec.StageTier, done func()) string {
	var chans []*Channel
	dst := r.nvmeName(node)
	if ch := r.nvme[node]; ch != nil {
		chans = append(chans, ch)
	}
	lat := r.params.NVMeLatency
	if dest != spec.TierNodeLocal {
		dch := r.tierChannel(dest)
		chans = append(chans, dch)
		dst = dch.name
		lat += r.tierLatency(dest)
	}
	uid := r.nextUID()
	r.start(chans, lat, transferInfo{
		uid: uid, dataset: dataset, task: task, bytes: bytes,
		src: r.nvmeName(node), dst: dst, node: node,
	}, func() {
		r.registerNode(dataset, node)
		done()
	})
	return uid
}

func (r *refSystem) tierTransfer(task, dataset string, bytes int64, src, dest spec.StageTier, done func()) string {
	srcCh, dstCh := r.tierChannel(src), r.tierChannel(dest)
	chans := []*Channel{srcCh}
	if dstCh != srcCh {
		chans = append(chans, dstCh)
	}
	uid := r.nextUID()
	key := tierKey{dataset, r.effectiveTier(dest)}
	p := &refPending{uid: uid}
	r.pendingTier[key] = p
	r.start(chans, r.tierLatency(src)+r.tierLatency(dest), transferInfo{
		uid: uid, dataset: dataset, task: task, bytes: bytes,
		src: srcCh.name, dst: dstCh.name, node: -1,
	}, func() {
		delete(r.pendingTier, key)
		done()
		for _, fn := range p.waiters {
			fn()
		}
	})
	return uid
}

func (r *refSystem) start(chans []*Channel, latency float64, tt transferInfo, done func()) {
	r.eng.After(sim.Seconds(latency), func() {
		now := r.eng.Now()
		tt.start = now
		f := &refFlow{remaining: float64(tt.bytes), chans: chans, tt: tt, done: done}
		if tt.bytes <= 0 {
			r.finish(f, now)
			return
		}
		r.advance()
		for _, ch := range chans {
			if ch.nActive > 0 {
				f.tt.contended = ch.name
				break
			}
		}
		r.flows = append(r.flows, f)
		r.recompute()
	})
}

func (r *refSystem) finish(f *refFlow, at sim.Time) {
	tt := profiler.TransferTrace{
		UID: f.tt.uid, Dataset: f.tt.dataset, Task: f.tt.task, Bytes: f.tt.bytes,
		Src: f.tt.src, Dst: f.tt.dst, Node: f.tt.node, Start: f.tt.start, End: at,
	}
	if f.tt.contended != "" && at > f.tt.start {
		tt.AddEdge(profiler.CausalEdge{Kind: profiler.EdgeContention, From: f.tt.start, To: at, Ref: f.tt.contended})
	}
	r.prof.Transfer(tt)
	r.eng.Immediately(f.done)
}

func (r *refSystem) advance() {
	now := r.eng.Now()
	if dt := now.Sub(r.lastT).Seconds(); dt > 0 {
		for _, f := range r.flows {
			f.remaining -= f.rate * dt
			if f.remaining < 0 {
				f.remaining = 0
			}
		}
	}
	r.lastT = now
}

func (r *refSystem) recompute() {
	for _, ch := range r.channels {
		ch.nActive, ch.sumRate = 0, 0
	}
	for _, f := range r.flows {
		for _, ch := range f.chans {
			ch.nActive++
		}
	}
	for _, ch := range r.channels {
		if ch.nActive > 0 {
			ch.share = ch.capacity / float64(ch.nActive)
		}
	}
	for _, f := range r.flows {
		f.rate = math.Inf(1)
		for _, ch := range f.chans {
			if ch.share < f.rate {
				f.rate = ch.share
			}
		}
		for _, ch := range f.chans {
			ch.sumRate += f.rate
		}
	}
	now := r.eng.Now()
	for _, ch := range r.channels {
		ch.note(now, ch.sumRate/ch.capacity)
	}
	r.timer.Stop()
	if len(r.flows) == 0 {
		return
	}
	next := sim.Duration(-1)
	for _, f := range r.flows {
		if d := flowETA(f.remaining, f.rate); next < 0 || d < next {
			next = d
		}
	}
	r.timer = r.eng.After(next, r.tick)
}

func (r *refSystem) tick() {
	r.advance()
	kept := r.flows[:0]
	var finished []*refFlow
	for _, f := range r.flows {
		if f.remaining <= f.rate*1e-6 {
			finished = append(finished, f)
		} else {
			kept = append(kept, f)
		}
	}
	r.flows = kept
	for _, f := range finished {
		for _, ch := range f.chans {
			ch.bytes += f.tt.bytes
		}
		r.finish(f, r.eng.Now())
	}
	r.recompute()
}

// flowRun is one side of a differential replay: the engine and a log of
// every callback and API result in the order they happened.
type flowRun struct {
	eng  *sim.Engine
	prof *profiler.Profiler
	log  []string
}

func (fr *flowRun) note(format string, args ...any) {
	fr.log = append(fr.log, fmt.Sprintf("%v ", fr.eng.Now())+fmt.Sprintf(format, args...))
}

func (fr *flowRun) cb(op int) func() { return func() { fr.note("done op %d", op) } }

// flowAPI is the surface the replay drives, implemented by System and
// refSystem.
type flowAPI struct {
	stage     func(task, ds string, bytes int64, src spec.StageTier, node int, done func()) string
	write     func(task, ds string, bytes int64, node int, dest spec.StageTier, done func()) string
	tier      func(task, ds string, bytes int64, src, dest spec.StageTier, done func()) string
	join      func(ds string, node int, fn func()) (string, bool)
	joinTier  func(ds string, tier spec.StageTier, fn func()) (string, bool)
	evictNode func(node int) int
	evict     func(ds string, node int)
	holding   func(ds string) []int
	pendingTo func(ds string) []int
	versionOf func(ds string) uint64 // nil on the reference
}

var fuzzDatasets = []string{"w", "x", "y", "z"}

// maxFuzzOps bounds one input's operation count: every recompute is
// linear in the flows in flight, so a long input costs quadratic time
// without reaching states a short one cannot.
const maxFuzzOps = 64

// fuzzLayout decodes the header byte into the data params and allocation:
// burst buffer on or off, a tight or generous shared pipe, and either the
// first three nodes of a four-node cluster or a partition starting at
// node 2 (a non-zero ID offset).
func fuzzLayout(h byte) (model.DataParams, func() *platform.Allocation) {
	p := model.DataParams{
		NVMeBandwidth: 5e9, NVMeLatency: 0.0003,
		SharedFSBase: 8e9, SharedFSPerNode: 1e9, SharedFSLatency: 0.005,
		BurstBufferLatency: 0.001,
	}
	if h&1 != 0 {
		p.BurstBufferPerNode = 3e9
	}
	if h&2 != 0 {
		p.SharedFSBase = 1e12
	}
	alloc := func() *platform.Allocation {
		c := platform.NewCluster(platform.Frontier(1), 4)
		if h&4 != 0 {
			return c.Allocate(4).Partition(2)[1]
		}
		return c.Allocate(3)
	}
	return p, alloc
}

// replay runs the decoded operations against one engine.
func replay(t *testing.T, ops []byte, fr *flowRun, api flowAPI) {
	t.Helper()
	tiers := []spec.StageTier{spec.TierNodeLocal, spec.TierSharedFS, spec.TierBurstBuffer}
	for i := 0; i+4 <= len(ops); i += 4 {
		op, a, b, c := ops[i]%6, ops[i+1], ops[i+2], ops[i+3]
		ds := fuzzDatasets[int(a)%len(fuzzDatasets)]
		node := int(b) % 5 // 0..4: some nodes fall outside the allocation
		bytes := int64(c%8) * 192 * MB
		task := fmt.Sprintf("t%d", i/4)
		src := tiers[1+int(a>>4)%2]
		n := i / 4
		switch op {
		case 0: // stage-in, riding an in-flight one when there is one
			if uid, ok := api.join(ds, node, fr.cb(n)); ok {
				fr.note("op %d joins %s", n, uid)
				continue
			}
			fr.note("op %d stage %s", n, api.stage(task, ds, bytes, src, node, fr.cb(n)))
		case 1: // write out from a node
			fr.note("op %d write %s", n, api.write(task, ds, bytes, node, tiers[int(a>>4)%3], fr.cb(n)))
		case 2: // tier-to-tier, riding an in-flight one when there is one
			dst := tiers[1+(int(a>>4)+1)%2]
			if uid, ok := api.joinTier(ds, dst, fr.cb(n)); ok {
				fr.note("op %d joins tier %s", n, uid)
				continue
			}
			fr.note("op %d tier %s", n, api.tier(task, ds, bytes, src, dst, fr.cb(n)))
		case 3: // let time pass
			fr.eng.RunUntil(fr.eng.Now().Add(sim.Duration(b) * 7 * sim.Millisecond))
		case 4: // the node failed
			fr.note("op %d evict node %d: %d", n, node, api.evictNode(node))
		case 5:
			api.evict(ds, node)
		}
	}
	fr.eng.Run()
}

// localityState is what a preference list depends on, per dataset.
type localityState struct {
	holding, pending []int
	version          uint64
}

// checkVersions fails if a dataset's replica or pending-node set changed
// since the previous check while its locality version did not, or if a
// version ever decreased.
func checkVersions(t *testing.T, api flowAPI, eng *sim.Engine, prev map[string]localityState) {
	t.Helper()
	for _, ds := range fuzzDatasets {
		cur := localityState{api.holding(ds), api.pendingTo(ds), api.versionOf(ds)}
		old := prev[ds]
		if cur.version < old.version {
			t.Fatalf("at %v: %s locality version went back from %d to %d", eng.Now(), ds, old.version, cur.version)
		}
		changed := !slices.Equal(cur.holding, old.holding) || !slices.Equal(cur.pending, old.pending)
		if changed && cur.version == old.version {
			t.Fatalf("at %v: %s locality changed (%v/%v -> %v/%v) but its version stayed %d",
				eng.Now(), ds, old.holding, old.pending, cur.holding, cur.pending, cur.version)
		}
		prev[ds] = cur
	}
}

func systemAPI(s *System) flowAPI {
	return flowAPI{
		stage: func(task, ds string, bytes int64, src spec.StageTier, node int, done func()) string {
			return s.StageToNode(task, ds, bytes, src, node, call, done)
		},
		write: func(task, ds string, bytes int64, node int, dest spec.StageTier, done func()) string {
			return s.WriteFromNode(task, ds, bytes, node, dest, call, done)
		},
		tier: func(task, ds string, bytes int64, src, dest spec.StageTier, done func()) string {
			return s.TierTransfer(task, ds, bytes, src, dest, call, done)
		},
		join: func(ds string, node int, fn func()) (string, bool) {
			return s.JoinPending(ds, node, call, fn)
		},
		joinTier: func(ds string, tier spec.StageTier, fn func()) (string, bool) {
			return s.JoinPendingTier(ds, tier, call, fn)
		},
		evictNode: s.reg.EvictNode, evict: s.reg.Evict,
		holding: s.reg.NodesHolding, pendingTo: s.PendingNodes, versionOf: s.reg.Version,
	}
}

func refAPI(r *refSystem) flowAPI {
	return flowAPI{
		stage: r.stageToNode, write: r.writeFromNode, tier: r.tierTransfer,
		join: r.joinPending, joinTier: r.joinPendingTier,
		evictNode: func(node int) int {
			n := 0
			for _, nodes := range r.replicas {
				if nodes[node] {
					delete(nodes, node)
					n++
				}
			}
			return n
		},
		evict: func(ds string, node int) { delete(r.replicas[ds], node) },
		holding: func(ds string) []int {
			var out []int
			for n := range r.replicas[ds] {
				out = append(out, n)
			}
			slices.Sort(out)
			return out
		},
		pendingTo: func(ds string) []int {
			var out []int
			for k := range r.pendingNode {
				if k.dataset == ds {
					out = append(out, k.node)
				}
			}
			slices.Sort(out)
			return out
		},
	}
}

// diffFlowEngines replays data on both engines and compares everything
// observable.
func diffFlowEngines(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	params, alloc := fuzzLayout(data[0])
	ops := data[1:]
	if len(ops) > 4*maxFuzzOps {
		ops = ops[:4*maxFuzzOps]
	}

	got := &flowRun{eng: sim.NewEngine(), prof: profiler.New()}
	sys := NewSystem(got.eng, alloc(), params, got.prof, nil)
	api := systemAPI(sys)
	// Check System's locality versions after every API call that can move
	// them and after every completion callback.
	versions := map[string]localityState{}
	checked := api
	wrap := func(f func()) func() {
		return func() { f(); checkVersions(t, api, got.eng, versions) }
	}
	checked.stage = func(task, ds string, bytes int64, src spec.StageTier, node int, done func()) string {
		defer checkVersions(t, api, got.eng, versions)
		return api.stage(task, ds, bytes, src, node, wrap(done))
	}
	checked.join = func(ds string, node int, fn func()) (string, bool) {
		return api.join(ds, node, wrap(fn))
	}
	checked.evictNode = func(node int) int {
		defer checkVersions(t, api, got.eng, versions)
		return api.evictNode(node)
	}
	checked.evict = func(ds string, node int) {
		defer checkVersions(t, api, got.eng, versions)
		api.evict(ds, node)
	}
	checked.write = func(task, ds string, bytes int64, node int, dest spec.StageTier, done func()) string {
		return api.write(task, ds, bytes, node, dest, wrap(done))
	}
	replay(t, ops, got, checked)

	want := &flowRun{eng: sim.NewEngine(), prof: profiler.New()}
	ref := newRefSystem(want.eng, alloc(), params, want.prof)
	replay(t, ops, want, refAPI(ref))

	if !slices.Equal(got.log, want.log) {
		t.Fatalf("callback logs differ:\n got %q\nwant %q", got.log, want.log)
	}
	if !reflect.DeepEqual(got.prof.Transfers(), want.prof.Transfers()) {
		t.Fatalf("transfer traces differ:\n got %+v\nwant %+v", got.prof.Transfers(), want.prof.Transfers())
	}
	sameChannel := func(name string, g, w *Channel) {
		if !slices.Equal(g.samples, w.samples) {
			t.Fatalf("%s occupancy samples differ:\n got %v\nwant %v", name, g.samples, w.samples)
		}
		if g.bytes != w.bytes || g.nActive != w.nActive {
			t.Fatalf("%s: bytes %d/%d active %d/%d", name, g.bytes, w.bytes, g.nActive, w.nActive)
		}
	}
	sameChannel("sharedfs", sys.shared, ref.shared)
	if (sys.burst == nil) != (ref.burst == nil) {
		t.Fatal("burst buffer presence differs")
	}
	if sys.burst != nil {
		sameChannel("burstbuffer", sys.burst, ref.burst)
	}
	for node := 0; node < 5; node++ {
		g, w := sys.NodeChannel(node), ref.nvme[node]
		if (g == nil) != (w == nil) {
			t.Fatalf("node %d channel presence differs", node)
		}
		if g != nil {
			sameChannel(g.name, g, w)
		}
	}
	for _, ds := range fuzzDatasets {
		if g, w := sys.reg.NodesHolding(ds), refAPI(ref).holding(ds); !slices.Equal(g, w) {
			t.Fatalf("%s replicas: got %v, want %v", ds, g, w)
		}
	}
	if len(sys.flows) != 0 || len(sys.live) != 0 || len(sys.pendingNode)+len(sys.pendingTier) != 0 {
		t.Fatalf("drained system keeps %d flows, %d live channels, %d pending",
			len(sys.flows), len(sys.live), len(sys.pendingNode)+len(sys.pendingTier))
	}
	// Every flow ever allocated is back on the free list, emptied: no
	// callback, rider or channel survives into its next transfer. A flow
	// is reused before another is allocated, so there are no more of them
	// than transfers started.
	started := 0
	for _, l := range got.log {
		if strings.Contains(l, " stage ") || strings.Contains(l, " write ") || strings.Contains(l, " tier ") {
			started++
		}
	}
	if len(sys.free) > started {
		t.Fatalf("%d flows allocated for %d transfers", len(sys.free), started)
	}
	seen := map[*flow]bool{}
	for _, f := range sys.free {
		if seen[f] {
			t.Fatal("a flow is on the free list twice")
		}
		seen[f] = true
		if f.fn != nil || f.arg != nil || len(f.waiters) != 0 || f.nch != 0 || f.rate != 0 || f.tt != (transferInfo{}) {
			t.Fatalf("recycled flow not emptied: %+v", f)
		}
	}
}

// FuzzFlowEngine checks System against the reference engine on arbitrary
// transfer sequences. The corpus in testdata/fuzz/FuzzFlowEngine runs as
// part of go test.
func FuzzFlowEngine(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 7, 0, 16, 1, 5, 3, 0, 40, 0})
	f.Add([]byte{5,
		0, 0, 0, 7, 0, 1, 1, 7, 0, 2, 2, 7, 3, 0, 10, 0,
		0, 0, 0, 7, 4, 0, 0, 0, 1, 16, 1, 3, 2, 0, 0, 6,
		2, 16, 0, 6, 3, 0, 200, 0})
	// Transfers that start after earlier ones completed reuse their
	// flows: stage-ins and joins by the same keys, a write and a joined
	// tier transfer, each after the previous batch drained.
	f.Add([]byte{4,
		0, 0, 0, 7, 0, 0, 0, 7, 3, 0, 255, 0,
		0, 1, 1, 3, 0, 1, 1, 3, 0, 0, 0, 7, 1, 2, 0, 2, 3, 0, 255, 0,
		0, 0, 0, 7, 0, 1, 1, 3, 2, 16, 0, 6, 2, 16, 0, 6, 3, 0, 255, 0,
		0, 0, 0, 7, 0, 0, 0, 7, 1, 18, 2, 5})
	f.Fuzz(diffFlowEngines)
}
