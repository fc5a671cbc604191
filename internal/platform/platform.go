// Package platform models the HPC machine: node hardware profiles, a
// cluster of nodes, per-node core/GPU slot ledgers, and a time-weighted
// resource utilization tracker.
//
// The model corresponds to OLCF Frontier as used in the paper: 64-core AMD
// EPYC nodes with 8 of those cores reserved for the OS (56 usable, "cpn" in
// the paper's Table 1), up to 4 hardware threads per core, and 8 MI250X GCDs
// exposed as 8 GPUs per node. Placement and accounting are exact; compute is
// virtual (tasks carry their own durations).
package platform

import (
	"fmt"
	"math/bits"

	"rpgo/internal/sim"
)

// NodeSpec describes the hardware of one node type.
type NodeSpec struct {
	// Name identifies the profile (e.g. "frontier").
	Name string
	// UsableCores is the number of cores available to tasks (physical
	// cores minus OS-reserved ones).
	UsableCores int
	// SMT is the active hardware threads per core (1, 2 or 4).
	SMT int
	// GPUs is the number of GPU devices per node.
	GPUs int
	// MemGB is usable memory per node.
	MemGB int
}

// Slots returns the schedulable CPU slots per node (cores × SMT).
func (s NodeSpec) Slots() int { return s.UsableCores * s.SMT }

// Frontier returns the Frontier node profile with the given SMT level.
// The paper's experiments use SMT=1 (4 nodes → 224 cores).
func Frontier(smt int) NodeSpec {
	if smt != 1 && smt != 2 && smt != 4 {
		panic(fmt.Sprintf("platform: invalid SMT level %d", smt))
	}
	return NodeSpec{
		Name:        "frontier",
		UsableCores: 56,
		SMT:         smt,
		GPUs:        8,
		MemGB:       512,
	}
}

// Node is one compute node with slot ledgers.
type Node struct {
	ID        int
	Spec      NodeSpec
	freeCPU   int
	freeGPU   int
	allocated bool // reserved exclusively (multi-node MPI jobs)
	down      bool // lost to a failure; reports zero free capacity
}

// FreeCPU returns the free CPU slots on the node; a down node has none.
func (n *Node) FreeCPU() int {
	if n.down {
		return 0
	}
	return n.freeCPU
}

// FreeGPU returns the free GPU slots on the node; a down node has none.
func (n *Node) FreeGPU() int {
	if n.down {
		return 0
	}
	return n.freeGPU
}

// Down reports whether the node is currently failed.
func (n *Node) Down() bool { return n.down }

// Cluster is a set of nodes of a single profile.
type Cluster struct {
	Spec  NodeSpec
	nodes []*Node
	// open is the open-node bitset: bit i is set exactly while node i is up
	// and has free CPU. Every multi-node footprint needs at least one core
	// per node, so a node whose bit is clear can never host one — the
	// multi-node placer walks the set bits instead of the whole partition.
	open []uint64
	// epoch counts capacity increases (releases). Placers cache negative
	// placement results ("nothing ≥ this size fits") tagged with the
	// epoch; any release invalidates those caches, claims never do —
	// claims only shrink capacity, so a cached "cannot fit" stays true.
	epoch uint64
}

// Epoch returns the capacity epoch: it increments whenever slots are
// released anywhere on the cluster (including through nested allocations
// that share node ledgers).
func (c *Cluster) Epoch() uint64 { return c.epoch }

// NewCluster builds a cluster of n nodes with the given spec.
func NewCluster(spec NodeSpec, n int) *Cluster {
	if n <= 0 {
		panic("platform: cluster needs at least one node")
	}
	c := &Cluster{Spec: spec, open: make([]uint64, (n+63)/64)}
	c.nodes = make([]*Node, n)
	for i := range c.nodes {
		c.nodes[i] = &Node{
			ID:      i,
			Spec:    spec,
			freeCPU: spec.Slots(),
			freeGPU: spec.GPUs,
		}
		c.syncOpen(c.nodes[i])
	}
	return c
}

// syncOpen brings node n's bit in the open-node bitset up to date.
func (c *Cluster) syncOpen(n *Node) {
	w, b := n.ID>>6, uint64(1)<<(n.ID&63)
	if !n.down && n.freeCPU > 0 {
		c.open[w] |= b
	} else {
		c.open[w] &^= b
	}
}

// NextOpen returns the lowest ID in [from, to) of a node that is up and
// has free CPU, or to when there is none. It walks the open-node bitset a
// word at a time, so scanning a mostly full range costs O(range/64).
func (c *Cluster) NextOpen(from, to int) int {
	if from >= to {
		return to
	}
	w := from >> 6
	word := c.open[w] &^ (uint64(1)<<(from&63) - 1)
	for word == 0 {
		w++
		if w<<6 >= to {
			return to
		}
		word = c.open[w]
	}
	if id := w<<6 + bits.TrailingZeros64(word); id < to {
		return id
	}
	return to
}

// Size returns the number of nodes.
func (c *Cluster) Size() int { return len(c.nodes) }

// FailNode marks node id down: its free capacity reads as zero, so every
// placement scan skips it, while its internal ledgers stay intact —
// placements already on the node release normally when their victims are
// evicted. The epoch advances so placers drop cached placement state.
// Returns false if the node was already down.
func (c *Cluster) FailNode(id int) bool {
	n := c.nodes[id]
	if n.down {
		return false
	}
	n.down = true
	c.syncOpen(n)
	c.epoch++
	return true
}

// RestoreNode returns a failed node to service (the backfill replacement
// coming up). The epoch advances because capacity grew: cached "cannot
// fit" results are no longer valid. Returns false if the node was not down.
func (c *Cluster) RestoreNode(id int) bool {
	n := c.nodes[id]
	if !n.down {
		return false
	}
	n.down = false
	c.syncOpen(n)
	c.epoch++
	return true
}

// DownNodes returns the number of currently failed nodes.
func (c *Cluster) DownNodes() int {
	d := 0
	for _, n := range c.nodes {
		if n.down {
			d++
		}
	}
	return d
}

// Node returns node i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// TotalCPU returns total CPU slots across the cluster.
func (c *Cluster) TotalCPU() int { return len(c.nodes) * c.Spec.Slots() }

// TotalGPU returns total GPU slots across the cluster.
func (c *Cluster) TotalGPU() int { return len(c.nodes) * c.Spec.GPUs }

// Allocation is a set of nodes granted to a pilot job. Backends partition
// allocations further; placement happens against the allocation's ledger.
type Allocation struct {
	Cluster *Cluster
	Nodes   []*Node
	util    *UtilizationTracker
}

// Allocate grants n whole nodes from the cluster. It panics if the request
// exceeds the machine: batch-queue waiting time is out of scope (the paper
// measures inside an active allocation).
func (c *Cluster) Allocate(n int) *Allocation {
	if n > len(c.nodes) {
		panic(fmt.Sprintf("platform: allocation of %d nodes exceeds cluster size %d", n, len(c.nodes)))
	}
	a := &Allocation{Cluster: c, Nodes: c.nodes[:n]}
	return a
}

// Size returns the number of allocated nodes.
func (a *Allocation) Size() int { return len(a.Nodes) }

// TotalCPU returns the CPU slots in the allocation.
func (a *Allocation) TotalCPU() int { return len(a.Nodes) * a.Cluster.Spec.Slots() }

// TotalGPU returns the GPU slots in the allocation.
func (a *Allocation) TotalGPU() int { return len(a.Nodes) * a.Cluster.Spec.GPUs }

// AttachUtilization stores the tracker handle shared by all partitions of
// this allocation. Execution layers report to it at task start/end; Claim
// and Release deliberately do not touch it, because utilization measures
// *executing* tasks (a placed-but-not-launched task does not count — this
// distinction is what makes srun's 50 % ceiling visible in Fig 4).
func (a *Allocation) AttachUtilization(u *UtilizationTracker) { a.util = u }

// Utilization returns the attached tracker (may be nil).
func (a *Allocation) Utilization() *UtilizationTracker { return a.util }

// Partition splits the allocation into k contiguous sub-allocations of
// near-equal size (remainder nodes spread over the first partitions). Each
// partition shares the parent's utilization tracker.
func (a *Allocation) Partition(k int) []*Allocation {
	if k <= 0 {
		panic("platform: partition count must be positive")
	}
	if k > len(a.Nodes) {
		panic(fmt.Sprintf("platform: cannot split %d nodes into %d partitions", len(a.Nodes), k))
	}
	parts := make([]*Allocation, k)
	base := len(a.Nodes) / k
	rem := len(a.Nodes) % k
	idx := 0
	for i := 0; i < k; i++ {
		n := base
		if i < rem {
			n++
		}
		parts[i] = &Allocation{Cluster: a.Cluster, Nodes: a.Nodes[idx : idx+n], util: a.util}
		idx += n
	}
	return parts
}

// SplitNodes divides a facility-wide node count over d partition domains,
// remainder spread over the first domains — the node-count view of
// Partition for sharded sessions, where each pilot domain builds its own
// Cluster and only the sizes must agree across shard counts. The split is
// purely arithmetic, so it is deterministic and mapping-invariant.
func SplitNodes(total, d int) []int {
	if d <= 0 {
		panic("platform: domain count must be positive")
	}
	if total < d {
		panic(fmt.Sprintf("platform: cannot split %d nodes into %d domains", total, d))
	}
	sizes := make([]int, d)
	base := total / d
	rem := total % d
	for i := range sizes {
		sizes[i] = base
		if i < rem {
			sizes[i]++
		}
	}
	return sizes
}

// Slice returns a sub-allocation of n nodes starting at offset start within
// this allocation. The sub-allocation shares the parent's node ledgers and
// utilization tracker (used for nested Flux instances).
func (a *Allocation) Slice(start, n int) *Allocation {
	if start < 0 || n <= 0 || start+n > len(a.Nodes) {
		panic(fmt.Sprintf("platform: invalid slice [%d:%d) of %d-node allocation", start, start+n, len(a.Nodes)))
	}
	return &Allocation{Cluster: a.Cluster, Nodes: a.Nodes[start : start+n], util: a.util}
}

// Placement is a concrete resource assignment for one task.
//
// Single-node placements — the overwhelmingly common case — should be
// built with NewSingleNodePlacement, which backs the three slices with
// inline storage so the whole placement is one allocation. Placement is
// always handled by pointer; copying a value would leave the slices
// aliased to the original's inline arrays.
type Placement struct {
	// NodeIDs lists the nodes involved.
	NodeIDs []int
	// CPUSlots and GPUSlots are per-node counts claimed on each node in
	// NodeIDs (parallel slices).
	CPUSlots []int
	GPUSlots []int

	// Inline backing for single-node placements.
	idArr, cpuArr, gpuArr [1]int
}

// NewSingleNodePlacement returns a one-node placement with inline slice
// storage (a single heap allocation).
func NewSingleNodePlacement(nodeID, cores, gpus int) *Placement {
	p := &Placement{}
	p.idArr[0], p.cpuArr[0], p.gpuArr[0] = nodeID, cores, gpus
	p.NodeIDs = p.idArr[:]
	p.CPUSlots = p.cpuArr[:]
	p.GPUSlots = p.gpuArr[:]
	return p
}

// Includes reports whether the placement claims slots on the node.
func (p *Placement) Includes(node int) bool {
	for _, id := range p.NodeIDs {
		if id == node {
			return true
		}
	}
	return false
}

// TotalCPU returns the total CPU slots claimed.
func (p *Placement) TotalCPU() int {
	t := 0
	for _, c := range p.CPUSlots {
		t += c
	}
	return t
}

// TotalGPU returns the total GPU slots claimed.
func (p *Placement) TotalGPU() int {
	t := 0
	for _, g := range p.GPUSlots {
		t += g
	}
	return t
}

// Claim marks the placement's slots busy. It returns an error if any slot is
// unavailable; on error nothing is claimed.
func (a *Allocation) Claim(at sim.Time, p *Placement) error {
	// Validate first so the claim is all-or-nothing.
	for i, id := range p.NodeIDs {
		n := a.Cluster.nodes[id]
		if p.CPUSlots[i] > n.freeCPU {
			return fmt.Errorf("platform: node %d has %d free CPU slots, need %d", id, n.freeCPU, p.CPUSlots[i])
		}
		if p.GPUSlots[i] > n.freeGPU {
			return fmt.Errorf("platform: node %d has %d free GPU slots, need %d", id, n.freeGPU, p.GPUSlots[i])
		}
	}
	for i, id := range p.NodeIDs {
		n := a.Cluster.nodes[id]
		n.freeCPU -= p.CPUSlots[i]
		n.freeGPU -= p.GPUSlots[i]
		a.Cluster.syncOpen(n)
	}
	_ = at // placement time is kept in the signature for symmetry and tracing hooks
	return nil
}

// Release returns the placement's slots to the free pool and advances the
// cluster's capacity epoch (invalidating placers' negative-fit caches).
func (a *Allocation) Release(at sim.Time, p *Placement) {
	for i, id := range p.NodeIDs {
		n := a.Cluster.nodes[id]
		n.freeCPU += p.CPUSlots[i]
		n.freeGPU += p.GPUSlots[i]
		if n.freeCPU > n.Spec.Slots() || n.freeGPU > n.Spec.GPUs {
			panic(fmt.Sprintf("platform: double release on node %d", id))
		}
		a.Cluster.syncOpen(n)
	}
	a.Cluster.epoch++
	_ = at
}

// UtilizationTracker integrates busy resource-time. It is event-driven: the
// integral advances only when occupancy changes, so tracking is O(1) per
// task regardless of run length.
type UtilizationTracker struct {
	totalCPU int
	totalGPU int

	busyCPU int
	busyGPU int

	last        sim.Time
	cpuBusyTime float64 // core-seconds
	gpuBusyTime float64 // gpu-seconds

	// Peaks for concurrency assertions.
	PeakCPU int
	PeakGPU int
}

// NewUtilizationTracker tracks utilization against the given capacity.
func NewUtilizationTracker(totalCPU, totalGPU int) *UtilizationTracker {
	return &UtilizationTracker{totalCPU: totalCPU, totalGPU: totalGPU}
}

func (u *UtilizationTracker) advance(at sim.Time) {
	dt := at.Sub(u.last).Seconds()
	if dt < 0 {
		panic("platform: utilization time went backwards")
	}
	u.cpuBusyTime += float64(u.busyCPU) * dt
	u.gpuBusyTime += float64(u.busyGPU) * dt
	u.last = at
}

// Add records cpu/gpu slots becoming busy at time at.
func (u *UtilizationTracker) Add(at sim.Time, cpu, gpu int) {
	u.advance(at)
	u.busyCPU += cpu
	u.busyGPU += gpu
	if u.busyCPU > u.PeakCPU {
		u.PeakCPU = u.busyCPU
	}
	if u.busyGPU > u.PeakGPU {
		u.PeakGPU = u.busyGPU
	}
	if u.busyCPU > u.totalCPU || u.busyGPU > u.totalGPU {
		panic(fmt.Sprintf("platform: utilization exceeds capacity (cpu %d/%d, gpu %d/%d)",
			u.busyCPU, u.totalCPU, u.busyGPU, u.totalGPU))
	}
}

// Remove records cpu/gpu slots becoming free at time at.
func (u *UtilizationTracker) Remove(at sim.Time, cpu, gpu int) {
	u.advance(at)
	u.busyCPU -= cpu
	u.busyGPU -= gpu
	if u.busyCPU < 0 || u.busyGPU < 0 {
		panic("platform: negative utilization")
	}
}

// BusyCPU returns currently busy CPU slots.
func (u *UtilizationTracker) BusyCPU() int { return u.busyCPU }

// CPUUtilization returns the time-averaged CPU utilization over [start, end]
// as a fraction in [0,1].
func (u *UtilizationTracker) CPUUtilization(start, end sim.Time) float64 {
	u.advance(end)
	span := end.Sub(start).Seconds()
	if span <= 0 || u.totalCPU == 0 {
		return 0
	}
	return u.cpuBusyTime / (float64(u.totalCPU) * span)
}

// GPUUtilization returns the time-averaged GPU utilization over [start, end].
func (u *UtilizationTracker) GPUUtilization(start, end sim.Time) float64 {
	u.advance(end)
	span := end.Sub(start).Seconds()
	if span <= 0 || u.totalGPU == 0 {
		return 0
	}
	return u.gpuBusyTime / (float64(u.totalGPU) * span)
}
