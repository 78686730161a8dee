package proto

import "fmt"

// Role distinguishes the two replicas of an item (page or lock).
type Role int

const (
	// Primary is the home whose copy is fetched during failure-free
	// execution (the committed copy for pages).
	Primary Role = iota
	// Secondary is the backup home (the tentative copy for pages).
	Secondary
)

func (r Role) String() string {
	if r == Primary {
		return "primary"
	}
	return "secondary"
}

// HomeMap assigns each item (shared page or lock) k homes on k distinct
// nodes (slot 0 is the primary, slots 1..k-1 the secondaries), and
// reassigns homes when a node fails so that k distinct live replicas
// always exist. The same structure serves pages and locks; the paper uses
// the identical scheme for both with k = 2.
type HomeMap struct {
	nodes     int
	degree    int
	alive     []bool
	nAlive    int
	epoch     int
	primary   []NodeID
	secondary []NodeID
	// extra holds replica slots 2..degree-1, one row per slot; nil at the
	// paper's degree 2 so the seed footprint and layout are untouched.
	extra [][]NodeID
}

// Reassignment describes one home change performed by Rehome: the item's
// role now lives on NewNode, and the still-valid replica that must seed the
// new copy lives on Survivor.
type Reassignment struct {
	Item     int
	Role     Role
	NewNode  NodeID
	Survivor NodeID
}

// NewHomeMap builds a home map for items items over nodes nodes. assign
// gives each item's primary home (the paper lets the application choose
// primaries for locality); the secondary home starts as the next node in
// node order, as in the paper.
func NewHomeMap(items, nodes int, assign func(item int) NodeID) *HomeMap {
	return NewHomeMapK(items, nodes, 2, assign)
}

// NewHomeMapK builds a home map with replication degree k: each item's
// slot-s home starts as the s-th ring successor of its assigned primary,
// so k = 2 reproduces the paper's primary/next-node placement exactly.
func NewHomeMapK(items, nodes, k int, assign func(item int) NodeID) *HomeMap {
	if k < 2 {
		panic("proto: HomeMap needs replication degree >= 2")
	}
	if nodes < k {
		panic(fmt.Sprintf("proto: HomeMap needs at least %d nodes for %d-way replication", k, k))
	}
	h := &HomeMap{
		nodes:     nodes,
		degree:    k,
		alive:     make([]bool, nodes),
		nAlive:    nodes,
		primary:   make([]NodeID, items),
		secondary: make([]NodeID, items),
	}
	for i := range h.alive {
		h.alive[i] = true
	}
	for s := 2; s < k; s++ {
		h.extra = append(h.extra, make([]NodeID, items))
	}
	for i := 0; i < items; i++ {
		p := assign(i)
		if p < 0 || p >= nodes {
			panic(fmt.Sprintf("proto: assign(%d) = %d out of range", i, p))
		}
		h.primary[i] = p
		h.secondary[i] = (p + 1) % nodes
		for s := 2; s < k; s++ {
			h.extra[s-2][i] = NodeID((int(p) + s) % nodes)
		}
	}
	return h
}

// Items returns the number of items managed by the map.
func (h *HomeMap) Items() int { return len(h.primary) }

// Primary returns the item's current primary home.
func (h *HomeMap) Primary(item int) NodeID { return h.primary[item] }

// Secondary returns the item's current secondary home.
func (h *HomeMap) Secondary(item int) NodeID { return h.secondary[item] }

// Degree returns the replication degree k.
func (h *HomeMap) Degree() int { return h.degree }

// Replica returns the item's slot-th home (slot 0 is the primary).
func (h *HomeMap) Replica(item, slot int) NodeID {
	switch slot {
	case 0:
		return h.primary[item]
	case 1:
		return h.secondary[item]
	default:
		return h.extra[slot-2][item]
	}
}

// Alive reports whether the map still considers node live.
func (h *HomeMap) Alive(n NodeID) bool { return h.alive[n] }

// AliveCount returns the number of live nodes.
func (h *HomeMap) AliveCount() int { return h.nAlive }

// Epoch returns the number of completed Rehome calls.
func (h *HomeMap) Epoch() int { return h.epoch }

// MemoryBytes returns the approximate resident footprint: k materialized
// NodeID arrays plus the liveness vector.
func (h *HomeMap) MemoryBytes() int64 {
	b := int64(len(h.primary)+len(h.secondary))*8 + int64(len(h.alive))
	for _, row := range h.extra {
		b += int64(len(row)) * 8
	}
	return b
}

// Clone returns an independent copy (test and benchmark support).
func (h *HomeMap) Clone() *HomeMap {
	c := &HomeMap{
		nodes:     h.nodes,
		degree:    h.degree,
		alive:     append([]bool(nil), h.alive...),
		nAlive:    h.nAlive,
		epoch:     h.epoch,
		primary:   append([]NodeID(nil), h.primary...),
		secondary: append([]NodeID(nil), h.secondary...),
	}
	for _, row := range h.extra {
		c.extra = append(c.extra, append([]NodeID(nil), row...))
	}
	return c
}

// Rehome marks failed as dead and reassigns every home role it held,
// guaranteeing the two replicas of each item stay on distinct live nodes.
// It returns the reassignments so the caller can rebuild the new copies
// from the surviving replicas. Rehoming below 2 live nodes panics: the
// scheme cannot replicate on a single node.
//
// The live-ring successor of every node is computed once up front, so a
// call costs O(items + N) instead of the per-hit nextAlive scan's
// O(items x N) — at 512 nodes with block-distributed pages roughly every
// item's scan paid the full ring walk. The test files keep the seed's
// per-hit scan as rehomeReference; TestFlatRehomeMatchesReference pins
// bit-identity.
func (h *HomeMap) Rehome(failed NodeID) []Reassignment {
	if !h.alive[failed] {
		return nil
	}
	h.alive[failed] = false
	h.nAlive--
	if h.nAlive < h.degree {
		panic(fmt.Sprintf("proto: fewer than %d live nodes; replication impossible", h.degree))
	}
	h.epoch++
	// succ[n] = first live node strictly after n in ring order. One
	// backwards double-walk of the ring: positions [N, 2N) seed the
	// nearest-live-successor carry, positions [0, N) record it.
	succ := make([]NodeID, h.nodes)
	last := -1
	for i := 2*h.nodes - 1; i >= 0; i-- {
		c := i % h.nodes
		if i < h.nodes {
			succ[c] = last
		}
		if h.alive[c] {
			last = c
		}
	}
	var out []Reassignment
	if h.degree == 2 {
		// The paper's pair rule, kept beside the general code it is a
		// special case of because the general loop is measurably slower
		// at k = 2: the ledger's proto.rehome_flat_us_512 read 13-17 µs
		// with this branch and 25-28 µs without it (PR 19, CHANGES.md).
		for i := range h.primary {
			switch {
			case h.primary[i] == failed:
				// Promote the secondary, then pick a fresh secondary.
				h.primary[i] = h.secondary[i]
				h.secondary[i] = succ[h.primary[i]]
				out = append(out,
					Reassignment{Item: i, Role: Primary, NewNode: h.primary[i], Survivor: h.primary[i]},
					Reassignment{Item: i, Role: Secondary, NewNode: h.secondary[i], Survivor: h.primary[i]})
			case h.secondary[i] == failed:
				h.secondary[i] = succ[h.primary[i]]
				out = append(out,
					Reassignment{Item: i, Role: Secondary, NewNode: h.secondary[i], Survivor: h.primary[i]})
			}
		}
		return out
	}
	// General k: drop the failed slot, shift the surviving replicas left
	// (a slot-0 death promotes the first secondary in place), and append
	// a fresh tail replica — the first live ring successor of the new
	// primary not already holding a copy. At k=2 this is exactly the
	// pair rule above.
	homes := make([]NodeID, h.degree)
	for i := range h.primary {
		slot := -1
		switch failed {
		case h.primary[i]:
			slot = 0
		case h.secondary[i]:
			slot = 1
		default:
			for s := range h.extra {
				if h.extra[s][i] == failed {
					slot = s + 2
					break
				}
			}
		}
		if slot < 0 {
			continue
		}
		for s := 0; s < h.degree; s++ {
			homes[s] = h.Replica(i, s)
		}
		copy(homes[slot:], homes[slot+1:])
		tail := freshTail(succ, homes[:h.degree-1])
		homes[h.degree-1] = tail
		h.primary[i] = homes[0]
		h.secondary[i] = homes[1]
		for s := range h.extra {
			h.extra[s][i] = homes[s+2]
		}
		if slot == 0 {
			out = append(out,
				Reassignment{Item: i, Role: Primary, NewNode: homes[0], Survivor: homes[0]},
				Reassignment{Item: i, Role: Secondary, NewNode: tail, Survivor: homes[0]})
		} else {
			out = append(out,
				Reassignment{Item: i, Role: Secondary, NewNode: tail, Survivor: homes[0]})
		}
	}
	return out
}

// freshTail returns the first live ring successor of homes[0] that holds
// no copy of the item yet. succ must map every node to its nearest live
// strict successor; homes must contain only live nodes.
func freshTail(succ, homes []NodeID) NodeID {
	c := succ[homes[0]]
	for hop := 0; hop < len(succ); hop++ {
		member := false
		for _, m := range homes {
			if m == c {
				member = true
				break
			}
		}
		if !member {
			return c
		}
		c = succ[c]
	}
	panic("proto: no live node available for rehoming")
}
