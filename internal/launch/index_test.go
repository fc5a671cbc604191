package launch

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rpgo/internal/platform"
	"rpgo/internal/spec"
)

// openRef is the brute-force NextOpen: the lowest ID in [from, to) of a
// node that is up and has free CPU, or to.
func openRef(c *platform.Cluster, from, to int) int {
	for id := from; id < to; id++ {
		if n := c.Node(id); !n.Down() && n.FreeCPU() > 0 {
			return id
		}
	}
	return to
}

// firstFitRef is the reference multi-node policy: hinted partition nodes
// with room first, in listed order and without repeats, then a linear
// first-fit over every partition node in order. It returns nil when fewer
// than want nodes have room.
func firstFitRef(part *platform.Allocation, want, cores, gpus int, prefer []int) []int {
	var ids []int
	taken := map[int]bool{}
	fits := func(n *platform.Node) bool { return n.FreeCPU() >= cores && n.FreeGPU() >= gpus }
	for _, id := range prefer {
		if len(ids) == want {
			break
		}
		for _, n := range part.Nodes {
			if n.ID == id && !taken[id] && fits(n) {
				ids = append(ids, id)
				taken[id] = true
			}
		}
	}
	for _, n := range part.Nodes {
		if len(ids) == want {
			break
		}
		if !taken[n.ID] && fits(n) {
			ids = append(ids, n.ID)
		}
	}
	if len(ids) < want {
		return nil
	}
	return ids
}

// TestOpenIndexMatchesReference drives random claims, releases, node
// failures and restores, and after every step checks the open-node bitset
// against a brute-force scan and every partition's multi-node placement
// against the reference first-fit. Partitions start at offsets that are
// not multiples of 64, so the bitset's word edges fall inside them.
func TestOpenIndexMatchesReference(t *testing.T) {
	for _, size := range []int{1, 63, 64, 65, 200} {
		t.Run(fmt.Sprintf("nodes=%d", size), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(size)))
			cl := platform.NewCluster(platform.Frontier(1), size)
			all := cl.Allocate(size)
			parts := []*platform.Allocation{all}
			if size >= 3 {
				parts = append(parts, all.Slice(1, size-2), all.Slice(size/3, size-size/3))
				parts = append(parts, all.Partition(3)...)
			}
			placers := make([]*Placer, len(parts))
			for i, part := range parts {
				placers[i] = NewPlacer(part)
			}
			type live struct {
				part *platform.Allocation
				pl   *platform.Placement
			}
			var held []live
			slots, gpus := cl.Spec.Slots(), cl.Spec.GPUs

			for step := 0; step < 3000; step++ {
				switch op := r.Intn(10); {
				case op < 4: // single-node claim, sometimes filling the node
					id := r.Intn(size)
					n := cl.Node(id)
					if n.Down() {
						continue
					}
					c, g := r.Intn(n.FreeCPU()+1), r.Intn(n.FreeGPU()+1)
					if r.Intn(3) == 0 {
						c = n.FreeCPU()
					}
					pl := platform.NewSingleNodePlacement(id, c, g)
					if err := all.Claim(0, pl); err != nil {
						t.Fatal(err)
					}
					held = append(held, live{all, pl})
				case op < 6: // release
					if len(held) == 0 {
						continue
					}
					i := r.Intn(len(held))
					held[i].part.Release(0, held[i].pl)
					held = slices.Delete(held, i, i+1)
				case op == 6:
					cl.FailNode(r.Intn(size))
				case op == 7:
					cl.RestoreNode(r.Intn(size))
				default: // multi-node placement on a random partition
					if size < 2 {
						continue
					}
					k := r.Intn(len(parts))
					part, p := parts[k], placers[k]
					want := 2 + r.Intn(4)
					ranks := want * (1 + r.Intn(2)) // one or two ranks per node
					td := &spec.TaskDescription{
						UID: "mn", Nodes: want, Ranks: ranks,
						CoresPerRank: 1 + r.Intn(slots/2), GPUsPerRank: r.Intn(gpus/2 + 1),
					}
					var prefer []int
					if r.Intn(2) == 0 {
						for j := r.Intn(8); j > 0; j-- {
							prefer = append(prefer, r.Intn(size+6)-3)
						}
						if len(prefer) > 0 {
							prefer = append(prefer, prefer[0]) // duplicate hint
						}
					}
					cores, g := perNodeFootprint(td)
					ref := firstFitRef(part, want, cores, g, prefer)
					pl := p.placeMultiNode(0, td, prefer, new(platform.Placement))
					if pl == nil {
						if ref != nil {
							t.Fatalf("step %d part %d: placer found nothing, reference picked %v", step, k, ref)
						}
						continue
					}
					if !slices.Equal(pl.NodeIDs, ref) {
						t.Fatalf("step %d part %d prefer %v: placer picked %v, reference %v", step, k, prefer, pl.NodeIDs, ref)
					}
					held = append(held, live{part, pl})
				}
				for q := 0; q < 4; q++ {
					from := r.Intn(size + 1)
					to := from + r.Intn(size-from+1)
					if got, want := cl.NextOpen(from, to), openRef(cl, from, to); got != want {
						t.Fatalf("step %d: NextOpen(%d, %d) = %d, want %d", step, from, to, got, want)
					}
				}
			}
		})
	}
}

// TestNewPlacerRejectsNonContiguousPartition pins the invariant offset
// hint resolution relies on.
func TestNewPlacerRejectsNonContiguousPartition(t *testing.T) {
	cl := platform.NewCluster(platform.Frontier(1), 4)
	part := &platform.Allocation{Cluster: cl, Nodes: []*platform.Node{cl.Node(0), cl.Node(2)}}
	defer func() {
		if recover() == nil {
			t.Fatal("NewPlacer accepted a partition with a gap")
		}
	}()
	NewPlacer(part)
}
