package proto

import (
	"fmt"
	"slices"
)

// HashedDir is the consistent-hashed home directory for the large
// tiers. The flat HomeMap materializes every item's two homes and
// rehomes by full scan — fine at the paper's 8 nodes, the dominant
// recovery-path and memory cost at 256+ nodes. HashedDir instead:
//
//   - computes placement: an item's primary is its application-locality
//     pin (the HomeAssign node the paper lets applications choose), its
//     secondary the pin's ring neighbor — exactly the flat directory's
//     initial layout, so healthy paper-grid runs are bit-identical
//     under either directory;
//   - stores only exceptions: when a node fails, the items it homed get
//     epoch-tagged overrides in a compact per-shard table. Overrides
//     are sticky — placement computed at epoch e stays fixed until one
//     of its own homes fails — because a placement recomputed from
//     scratch over live membership would silently migrate items whose
//     homes never failed, moving data the recovery protocol never
//     copied (that is why rehoming survival needs the overrides, and
//     the epoch tag is what lets a survivor applying delta messages
//     discard stale ones);
//   - picks rehoming targets on a hashed ring of live nodes (the
//     binary-search form of rendezvous selection: each item's
//     preference order is the successor order of its hash point), so a
//     failed node's items scatter over all survivors instead of piling
//     onto the ring successor the way the flat directory's rule does;
//   - maintains a per-node reverse index — postings of the items homed
//     on each node — so Rehome(failed) walks only the failed node's
//     items: O(items-on-failed + log N) against the flat scan's
//     O(items).
//
// Lookups are O(1): a direct-mapped, epoch-invalidated cache in front
// of (override-shard probe, else pin arithmetic). The cache is a plain
// in-place fill, so the cluster disables it when node lanes execute
// concurrently (the parallel engine); lookups stay O(1) without it.
type HashedDir struct {
	nodes  int
	degree int
	alive  []bool
	nAlive int
	epoch  int
	seed   uint64

	// pins holds each item's application-locality seed: the HomeAssign
	// primary. int32 — half the footprint of the flat directory's
	// per-item NodeID pair.
	pins []int32

	// shards is the override table: item -> current homes, for rehomed
	// items only. Sharded by the item's low bits to keep each map small
	// (and its growth incremental) on big failures.
	shards [dirShards]map[int32]dirOverride

	// post is the reverse index: post[n] lists the items with a home on
	// node n. Postings are exact — a home moves only when its node
	// fails, and a failed node's whole posting list is dropped — so no
	// tombstone filtering is ever needed on the walk.
	post [][]int32

	// ring is the consistent-hash ring: ringPointsPerNode virtual points
	// per node, hashed and sorted once at construction. Each point packs
	// 48 hash bits over 16 node-id bits into one uint64, so the ring
	// costs 8 bytes per point and sorts as plain integers. Dead nodes'
	// points stay on the ring and pick skips them — rebuilding (and
	// re-sorting) per failure would put an O(N log N) term with a big
	// constant in front of every Rehome.
	ring []uint64

	// Direct-mapped lookup cache. An entry is valid only when its cKey
	// matches the item and its cEp matches the current epoch — tagging
	// entries with the epoch invalidates the whole cache on a Rehome
	// without wiping it. Disabled under concurrent readers.
	cacheOn bool
	cKey    []int32
	cEp     []int32
	cPrim   []int32
	cSec    []int32
}

const (
	dirShardBits = 4
	dirShards    = 1 << dirShardBits

	// dirCacheSize bounds the lookup cache (direct-mapped entries); it
	// is deliberately small — the point is covering the hot working set
	// after a failure populates the override shards, not mirroring the
	// flat directory's full materialization.
	dirCacheSize = 1024

	// ringPointsPerNode is the virtual-point count per live node. Eight
	// points keep the post-failure spread within ~2x of uniform at the
	// tier sizes while the ring stays small enough to rebuild per epoch.
	ringPointsPerNode = 8
)

// dirOverride records a rehomed item's current homes and the epoch that
// placed them there. rest carries replica slots 2..k-1 and stays nil at
// the paper's degree 2, so the modeled per-entry footprint is unchanged
// on the legacy tiers.
type dirOverride struct {
	prim, sec int32
	epoch     int32
	rest      []int32
}

// ringNodeBits is the node-id field width of a packed ring point: the
// low 16 bits hold the node, the high 48 the hash. Distinct points can
// never compare equal (the node id is part of the integer), so the
// sorted ring is deterministic without a tie-break rule.
const ringNodeBits = 16

// splitmix64 is the 64-bit finalizer used for every directory hash:
// deterministic, seedable, and strong enough that ring points collide
// with negligible probability.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// NewHashedDir builds a hashed directory for items items over nodes
// nodes. assign gives each item's primary pin (the application's
// locality choice, as in NewHomeMap); seed perturbs the ring hashes so
// distinct directories (pages vs locks) scatter independently.
func NewHashedDir(items, nodes int, seed int64, assign func(item int) NodeID) *HashedDir {
	return NewHashedDirK(items, nodes, 2, seed, assign)
}

// NewHashedDirK builds a hashed directory with replication degree k: each
// item's slot-s home starts as the s-th ring successor of its pin, so
// k = 2 reproduces the pin/neighbor placement exactly.
func NewHashedDirK(items, nodes, k int, seed int64, assign func(item int) NodeID) *HashedDir {
	if k < 2 {
		panic("proto: HashedDir needs replication degree >= 2")
	}
	if nodes < k {
		panic(fmt.Sprintf("proto: HashedDir needs at least %d nodes for %d-way replication", k, k))
	}
	if nodes >= 1<<ringNodeBits {
		panic(fmt.Sprintf("proto: HashedDir supports at most %d nodes (packed ring points)", 1<<ringNodeBits-1))
	}
	d := &HashedDir{
		nodes:   nodes,
		degree:  k,
		alive:   make([]bool, nodes),
		nAlive:  nodes,
		seed:    splitmix64(uint64(seed) ^ 0xD1B54A32D192ED03),
		pins:    make([]int32, items),
		post:    make([][]int32, nodes),
		cacheOn: true,
		cKey:    make([]int32, dirCacheSize),
		cEp:     make([]int32, dirCacheSize),
		cPrim:   make([]int32, dirCacheSize),
		cSec:    make([]int32, dirCacheSize),
	}
	for i := range d.alive {
		d.alive[i] = true
	}
	for i := range d.cKey {
		d.cKey[i] = -1
	}
	d.buildRing()
	for s := range d.shards {
		d.shards[s] = make(map[int32]dirOverride)
	}
	for i := 0; i < items; i++ {
		p := assign(i)
		if p < 0 || p >= nodes {
			panic(fmt.Sprintf("proto: assign(%d) = %d out of range", i, p))
		}
		d.pins[i] = int32(p)
		for s := 0; s < k; s++ {
			d.post[(p+s)%nodes] = append(d.post[(p+s)%nodes], int32(i))
		}
	}
	return d
}

// Items returns the number of items managed by the directory.
func (d *HashedDir) Items() int { return len(d.pins) }

// Alive reports whether the directory still considers node live.
func (d *HashedDir) Alive(n NodeID) bool { return d.alive[n] }

// AliveCount returns the number of live nodes.
func (d *HashedDir) AliveCount() int { return d.nAlive }

// Epoch returns the number of completed Rehome calls.
func (d *HashedDir) Epoch() int { return d.epoch }

// DisableCache turns the lookup cache off for the rest of the
// directory's life. The cluster calls this when node lanes read the
// directory concurrently (the parallel engine): a cache fill is an
// in-place write, and lookups are O(1) without it.
func (d *HashedDir) DisableCache() { d.cacheOn = false }

// resolve returns the item's current homes: the override if one exists,
// else the computed pin placement. It never consults liveness — the
// directory's assignment changes only through Rehome, exactly like the
// flat map's arrays.
func (d *HashedDir) resolve(item int) (p, s int32) {
	if ov, ok := d.shards[item&(dirShards-1)][int32(item)]; ok {
		return ov.prim, ov.sec
	}
	p = d.pins[item]
	s = p + 1
	if int(s) == d.nodes {
		s = 0
	}
	return p, s
}

// lookup resolves through the direct-mapped cache when it is enabled.
func (d *HashedDir) lookup(item int) (int32, int32) {
	if !d.cacheOn {
		return d.resolve(item)
	}
	k := item & (dirCacheSize - 1)
	if d.cKey[k] == int32(item) && d.cEp[k] == int32(d.epoch) {
		return d.cPrim[k], d.cSec[k]
	}
	p, s := d.resolve(item)
	d.cKey[k] = int32(item)
	d.cEp[k] = int32(d.epoch)
	d.cPrim[k] = p
	d.cSec[k] = s
	return p, s
}

// Primary returns the item's current primary home.
func (d *HashedDir) Primary(item int) NodeID {
	p, _ := d.lookup(item)
	return NodeID(p)
}

// Secondary returns the item's current secondary home.
func (d *HashedDir) Secondary(item int) NodeID {
	_, s := d.lookup(item)
	return NodeID(s)
}

// Degree returns the replication degree k.
func (d *HashedDir) Degree() int { return d.degree }

// Replica returns the item's slot-th home (slot 0 is the primary).
// Slots 0 and 1 go through the lookup cache; higher slots read the
// override table directly or fall back to pin arithmetic.
func (d *HashedDir) Replica(item, slot int) NodeID {
	switch slot {
	case 0:
		return d.Primary(item)
	case 1:
		return d.Secondary(item)
	}
	return NodeID(d.resolveSlot(item, slot))
}

// resolveSlot resolves one replica slot without touching the lookup
// cache — Rehome must not fill cache entries tagged with the epoch it is
// still in the middle of installing.
func (d *HashedDir) resolveSlot(item, slot int) int32 {
	if ov, ok := d.shards[item&(dirShards-1)][int32(item)]; ok {
		switch slot {
		case 0:
			return ov.prim
		case 1:
			return ov.sec
		default:
			return ov.rest[slot-2]
		}
	}
	return int32((int(d.pins[item]) + slot) % d.nodes)
}

// MemoryBytes returns the approximate resident footprint: pins,
// postings, override entries, ring, and cache.
func (d *HashedDir) MemoryBytes() int64 {
	b := int64(len(d.pins)) * 4
	for _, pl := range d.post {
		b += int64(cap(pl))*4 + 24
	}
	for s := range d.shards {
		// Map entry: 12 bytes of payload plus ~2x bucket overhead.
		b += int64(len(d.shards[s])) * 36
		if d.degree > 2 {
			// rest slice header + slots 2..k-1 per override entry.
			b += int64(len(d.shards[s])) * int64(24+4*(d.degree-2))
		}
	}
	b += int64(cap(d.ring)) * 8
	b += int64(len(d.alive))
	if d.cacheOn {
		b += int64(len(d.cKey)+len(d.cEp)+len(d.cPrim)+len(d.cSec)) * 4
	}
	return b
}

// buildRing computes the consistent-hash ring: ringPointsPerNode packed
// points per node, sorted as plain integers. Run once at construction;
// liveness is checked at pick time.
func (d *HashedDir) buildRing() {
	pts := make([]uint64, 0, d.nodes*ringPointsPerNode)
	for n := 0; n < d.nodes; n++ {
		for v := 0; v < ringPointsPerNode; v++ {
			h := splitmix64(d.seed ^ uint64(n)<<20 ^ uint64(v))
			pts = append(pts, h&^(1<<ringNodeBits-1)|uint64(n))
		}
	}
	slices.Sort(pts)
	d.ring = pts
}

// Rehome marks failed as dead and reassigns exactly the home roles it
// held, walking the failed node's reverse-index postings instead of
// scanning every item. Promotions follow the paper's rule — the
// surviving secondary becomes primary in place (it holds the tentative
// copy) — and fresh secondaries come off the hash ring, so the failed
// node's load scatters across the survivors.
func (d *HashedDir) Rehome(failed NodeID) []Reassignment {
	if !d.alive[failed] {
		return nil
	}
	d.alive[failed] = false
	d.nAlive--
	if d.nAlive < d.degree {
		panic(fmt.Sprintf("proto: fewer than %d live nodes; replication impossible", d.degree))
	}
	d.epoch++
	items := d.post[failed]
	d.post[failed] = nil
	f := int32(failed)
	out := make([]Reassignment, 0, len(items)*2)
	// Drop the failed slot, shift the surviving replicas left (a slot-0
	// death promotes the first secondary in place), and pick a fresh tail
	// replica off the hash ring, excluding every node that already holds
	// a copy. At k = 2 this is the paper's pair rule.
	homes := make([]int32, d.degree)
	for _, it := range items {
		item := int(it)
		slot := -1
		for s := 0; s < d.degree; s++ {
			homes[s] = d.resolveSlot(item, s)
			if homes[s] == f {
				slot = s
			}
		}
		if slot < 0 {
			panic(fmt.Sprintf("proto: reverse index lists item %d on node %d, but no replica slot holds it", item, failed))
		}
		copy(homes[slot:], homes[slot+1:])
		tail := d.pickExcluding(item, homes[:d.degree-1])
		homes[d.degree-1] = tail
		rest := make([]int32, d.degree-2)
		copy(rest, homes[2:])
		d.shards[item&(dirShards-1)][it] = dirOverride{prim: homes[0], sec: homes[1], epoch: int32(d.epoch), rest: rest}
		d.post[tail] = append(d.post[tail], it)
		if slot == 0 {
			out = append(out,
				Reassignment{Item: item, Role: Primary, NewNode: NodeID(homes[0]), Survivor: NodeID(homes[0])},
				Reassignment{Item: item, Role: Secondary, NewNode: NodeID(tail), Survivor: NodeID(homes[0])})
		} else {
			out = append(out,
				Reassignment{Item: item, Role: Secondary, NewNode: NodeID(tail), Survivor: NodeID(homes[0])})
		}
	}
	return out
}

// pickExcluding returns the live node owning the ring successor of
// item's hash point, skipping dead nodes and every member of exclude:
// an O(log N) search plus a walk whose expected length is the dead
// fraction of the ring — short until most of the cluster has failed,
// and the directory refuses to operate below k live nodes anyway.
func (d *HashedDir) pickExcluding(item int, exclude []int32) int32 {
	h := splitmix64(d.seed^uint64(item)*0x9E3779B97F4A7C15) &^ (1<<ringNodeBits - 1)
	i, _ := slices.BinarySearch(d.ring, h)
	for off := 0; off < len(d.ring); off++ {
		n := int32(d.ring[(i+off)%len(d.ring)] & (1<<ringNodeBits - 1))
		if !d.alive[n] {
			continue
		}
		member := false
		for _, x := range exclude {
			if x == n {
				member = true
				break
			}
		}
		if !member {
			return n
		}
	}
	panic("proto: hash ring has no live node outside the excluded set")
}

// Overrides returns the number of rehomed items currently carried in
// the override table (observability and test support).
func (d *HashedDir) Overrides() int {
	n := 0
	for s := range d.shards {
		n += len(d.shards[s])
	}
	return n
}

// PostingsLen returns the reverse-index posting count for node n (test
// support: postings must track current homes exactly).
func (d *HashedDir) PostingsLen(n NodeID) int { return len(d.post[n]) }
