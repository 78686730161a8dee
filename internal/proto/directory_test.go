package proto

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Both implementations must satisfy Directory.
var (
	_ Directory = (*HomeMap)(nil)
	_ Directory = (*HashedDir)(nil)
)

func blockAssign(items, nodes int) func(int) NodeID {
	return func(i int) NodeID { return i * nodes / items }
}

// TestHashedInitialMatchesFlat pins the healthy-run bit-identity anchor:
// before any failure, the hashed directory's placement is exactly the
// flat map's (pin primary, ring-successor secondary) for any assignment
// function — which is why flat-vs-hashed paper-grid runs without
// failures produce identical virtual metrics.
func TestHashedInitialMatchesFlat(t *testing.T) {
	for _, assign := range []func(int) NodeID{
		blockAssign(40, 8),
		func(i int) NodeID { return i % 8 },
		func(i int) NodeID { return (i * 3) % 8 },
	} {
		h := NewHomeMap(40, 8, assign)
		d := NewHashedDir(40, 8, 7, assign)
		for i := 0; i < 40; i++ {
			if h.Primary(i) != d.Primary(i) || h.Secondary(i) != d.Secondary(i) {
				t.Fatalf("item %d: flat (%d,%d) vs hashed (%d,%d)",
					i, h.Primary(i), h.Secondary(i), d.Primary(i), d.Secondary(i))
			}
		}
	}
}

// Property: both directories preserve the two-distinct-live-replicas
// invariant under every random failure order until fewer than 2 nodes
// remain, and their postings/epochs stay consistent.
func TestDirectoryRehomeInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const nodes = 10
		const items = 64
		pins := make([]NodeID, items)
		for i := range pins {
			pins[i] = rng.Intn(nodes)
		}
		assign := func(i int) NodeID { return pins[i] }
		dirs := []Directory{
			NewHomeMap(items, nodes, assign),
			NewHashedDir(items, nodes, seed, assign),
		}
		perm := rng.Perm(nodes)
		for k := 0; k < nodes-2; k++ { // leave 2 alive
			for _, d := range dirs {
				d.Rehome(perm[k])
				if d.Epoch() != k+1 || d.AliveCount() != nodes-k-1 {
					return false
				}
				for i := 0; i < items; i++ {
					p, s := d.Primary(i), d.Secondary(i)
					if p == s || !d.Alive(p) || !d.Alive(s) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property (k-replica generalization of TestDirectoryRehomeInvariant):
// for every degree k in 2..5, both directories keep k distinct live
// replicas for every item under every random failure order until fewer
// than k nodes remain, primary first, with consistent epochs and alive
// counts — and before any failure the two implementations agree on all
// k slots.
func TestDirectoryKReplicaInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		degree := 2 + rng.Intn(4) // k in 2..5
		const nodes = 10
		const items = 64
		pins := make([]NodeID, items)
		for i := range pins {
			pins[i] = rng.Intn(nodes)
		}
		assign := func(i int) NodeID { return pins[i] }
		dirs := []Directory{
			NewHomeMapK(items, nodes, degree, assign),
			NewHashedDirK(items, nodes, degree, seed, assign),
		}
		for _, d := range dirs {
			if d.Degree() != degree {
				return false
			}
			for i := 0; i < items; i++ {
				rs := replicasOf(d, i)
				if len(rs) != degree || rs[0] != d.Primary(i) || rs[1] != d.Secondary(i) {
					return false
				}
				// Healthy placement identical across implementations.
				for s, r := range rs {
					if r != NodeID((int(pins[i])+s)%nodes) {
						return false
					}
				}
			}
		}
		perm := rng.Perm(nodes)
		for k := 0; k+degree < nodes; k++ { // stop while >= degree stay alive
			for _, d := range dirs {
				d.Rehome(perm[k])
				if d.Epoch() != k+1 || d.AliveCount() != nodes-k-1 {
					return false
				}
				for i := 0; i < items; i++ {
					seen := map[NodeID]bool{}
					for s := 0; s < degree; s++ {
						r := d.Replica(i, s)
						if seen[r] || !d.Alive(r) {
							return false
						}
						seen[r] = true
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: hashed lookups are a pure function of (construction
// parameters, failure sequence) — two directories built identically and
// failed identically agree on every lookup, whether or not either uses
// its lookup cache and regardless of lookup order. This is what makes
// hashed runs reproducible across hosts and engine worker counts.
func TestHashedDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const nodes = 12
		const items = 80
		assign := blockAssign(items, nodes)
		a := NewHashedDir(items, nodes, seed, assign)
		b := NewHashedDir(items, nodes, seed, assign)
		b.DisableCache()
		// Warm a's cache in a random order before and between failures.
		for _, i := range rng.Perm(items) {
			a.Primary(i)
		}
		for k := 0; k < 4; k++ {
			victim := randLiveVictim(rng, a)
			a.Rehome(victim)
			b.Rehome(victim)
			for _, i := range rng.Perm(items) {
				if a.Primary(i) != b.Primary(i) || a.Secondary(i) != b.Secondary(i) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// randLiveVictim picks a random still-live victim.
func randLiveVictim(rng *rand.Rand, d Directory) NodeID {
	for {
		v := rng.Intn(12)
		if d.Alive(v) {
			return v
		}
	}
}

// nextAlive returns the first live node after n in ring order that differs
// from exclude.
func (h *HomeMap) nextAlive(n NodeID, exclude NodeID) NodeID {
	for i := 1; i <= h.nodes; i++ {
		c := (n + i) % h.nodes
		if h.alive[c] && c != exclude {
			return c
		}
	}
	panic("proto: no live node available for rehoming")
}

// rehomeReference is the seed's Rehome, kept verbatim as the
// bit-identity reference for HomeMap.Rehome's successor table at k = 2:
// every hit pays a full nextAlive ring scan. Tests run both on clones
// and compare the resulting maps and reassignment lists element-wise.
func (h *HomeMap) rehomeReference(failed NodeID) []Reassignment {
	if !h.alive[failed] {
		return nil
	}
	h.alive[failed] = false
	h.nAlive--
	if h.nAlive < 2 {
		panic("proto: fewer than 2 live nodes; replication impossible")
	}
	h.epoch++
	var out []Reassignment
	for i := range h.primary {
		switch {
		case h.primary[i] == failed:
			h.primary[i] = h.secondary[i]
			h.secondary[i] = h.nextAlive(h.primary[i], h.primary[i])
			out = append(out,
				Reassignment{Item: i, Role: Primary, NewNode: h.primary[i], Survivor: h.primary[i]},
				Reassignment{Item: i, Role: Secondary, NewNode: h.secondary[i], Survivor: h.primary[i]})
		case h.secondary[i] == failed:
			h.secondary[i] = h.nextAlive(h.primary[i], h.primary[i])
			out = append(out,
				Reassignment{Item: i, Role: Secondary, NewNode: h.secondary[i], Survivor: h.primary[i]})
		}
	}
	return out
}

// TestFlatRehomeMatchesReference pins the successor-table fast path to
// the seed's per-hit nextAlive scan: identical reassignment lists and
// identical resulting maps over random assignments and failure orders.
func TestFlatRehomeMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const nodes = 9
		const items = 50
		pins := make([]NodeID, items)
		for i := range pins {
			pins[i] = rng.Intn(nodes)
		}
		fast := NewHomeMap(items, nodes, func(i int) NodeID { return pins[i] })
		ref := fast.Clone()
		perm := rng.Perm(nodes)
		for k := 0; k < nodes-2; k++ {
			rf := fast.Rehome(perm[k])
			rr := ref.rehomeReference(perm[k])
			if len(rf) != len(rr) {
				return false
			}
			for i := range rf {
				if rf[i] != rr[i] {
					return false
				}
			}
			for i := 0; i < items; i++ {
				if fast.Primary(i) != ref.Primary(i) || fast.Secondary(i) != ref.Secondary(i) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestHashedRehomeTouchesOnlyAffected verifies the O(items-on-failed)
// claim structurally: the reassignment list covers exactly the items
// that had a home on the failed node, and the override table grows by
// exactly the newly rehomed items.
func TestHashedRehomeTouchesOnlyAffected(t *testing.T) {
	const nodes = 16
	const items = 256
	d := NewHashedDir(items, nodes, 3, blockAssign(items, nodes))
	affected := map[int]bool{}
	for i := 0; i < items; i++ {
		if d.Primary(i) == 5 || d.Secondary(i) == 5 {
			affected[i] = true
		}
	}
	rs := d.Rehome(5)
	seen := map[int]bool{}
	for _, r := range rs {
		if !affected[r.Item] {
			t.Fatalf("item %d reassigned but had no home on node 5", r.Item)
		}
		seen[r.Item] = true
	}
	if len(seen) != len(affected) {
		t.Fatalf("reassigned %d items, %d had a home on node 5", len(seen), len(affected))
	}
	if d.Overrides() != len(affected) {
		t.Fatalf("override table holds %d items, want %d", d.Overrides(), len(affected))
	}
	if d.PostingsLen(5) != 0 {
		t.Fatalf("failed node still has %d postings", d.PostingsLen(5))
	}
}

// TestHashedSurvivorHoldsValidReplica mirrors the flat-map test: every
// reassignment's survivor held a replica before the failure and is not
// the failed node.
func TestHashedSurvivorHoldsValidReplica(t *testing.T) {
	const items = 64
	d := NewHashedDir(items, 8, 11, func(i int) NodeID { return i % 8 })
	holders := make(map[int][2]NodeID)
	for i := 0; i < items; i++ {
		holders[i] = [2]NodeID{d.Primary(i), d.Secondary(i)}
	}
	for _, r := range d.Rehome(2) {
		was := holders[r.Item]
		if r.Survivor != was[0] && r.Survivor != was[1] {
			t.Fatalf("item %d: survivor %d held no replica (%v)", r.Item, r.Survivor, was)
		}
		if r.Survivor == 2 {
			t.Fatalf("item %d: survivor is the failed node", r.Item)
		}
	}
}

func TestHashedIdempotentOnDeadNode(t *testing.T) {
	d := NewHashedDir(8, 4, 1, func(i int) NodeID { return i % 4 })
	d.Rehome(1)
	if got := d.Rehome(1); got != nil {
		t.Fatalf("second Rehome(1) returned %v, want nil", got)
	}
	if d.AliveCount() != 3 || d.Epoch() != 1 {
		t.Fatalf("AliveCount = %d, Epoch = %d", d.AliveCount(), d.Epoch())
	}
}

// TestHashedRehomeSpreads checks the consistent-hash ring actually
// scatters a failed node's items: after failing one node in a large
// cluster, the fresh secondaries land on more than a handful of
// survivors (the flat rule piles them all onto one ring successor).
func TestHashedRehomeSpreads(t *testing.T) {
	const nodes = 64
	const items = 1024
	d := NewHashedDir(items, nodes, 5, blockAssign(items, nodes))
	targets := map[NodeID]bool{}
	for _, r := range d.Rehome(10) {
		if r.Role == Secondary {
			targets[r.NewNode] = true
		}
	}
	if len(targets) < 4 {
		t.Fatalf("fresh secondaries landed on only %d distinct nodes", len(targets))
	}
}

// TestHomeDeltaWireBytes pins the recovery-delta codec size.
func TestHomeDeltaWireBytes(t *testing.T) {
	if got := HomeDeltaWireBytes(0); got != 16 {
		t.Fatalf("empty delta = %d bytes", got)
	}
	if got := HomeDeltaWireBytes(3); got != 16+36 {
		t.Fatalf("3-entry delta = %d bytes", got)
	}
}

// TestDirectoryMemoryBytes sanity-checks the footprint accounting the
// scaling bench reports: at a realistic items-per-node ratio (the
// paper's workloads put hundreds of pages on each node) the hashed
// directory's 12 bytes/item beat the flat map's 16, despite the hashed
// side's fixed ring + cache overhead; and the footprint grows as
// overrides appear. Micro cells with ~1 page per node sit below the
// break-even — there the directory is tiny either way.
func TestDirectoryMemoryBytes(t *testing.T) {
	const nodes = 256
	const items = 64 * nodes
	h := NewHomeMap(items, nodes, blockAssign(items, nodes))
	d := NewHashedDir(items, nodes, 1, blockAssign(items, nodes))
	d.DisableCache()
	if d.MemoryBytes() >= h.MemoryBytes() {
		t.Fatalf("hashed %d bytes >= flat %d bytes before any failure", d.MemoryBytes(), h.MemoryBytes())
	}
	before := d.MemoryBytes()
	d.Rehome(0)
	if d.MemoryBytes() <= before {
		t.Fatal("override table did not grow the footprint")
	}
}

// replicasOf collects all k homes of an item, primary first.
func replicasOf(d Directory, item int) []NodeID {
	out := make([]NodeID, d.Degree())
	for s := range out {
		out[s] = d.Replica(item, s)
	}
	return out
}
