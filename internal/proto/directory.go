package proto

// Directory is the home-directory abstraction behind the paper's
// primary/secondary replica placement: every item (shared page or
// application lock) has two homes on distinct live nodes, and a node
// failure reassigns exactly the roles the dead node held so two live
// replicas always exist.
//
// Two implementations satisfy it:
//
//   - HomeMap, the paper's flat directory: two materialized per-item
//     arrays, rehoming by full scan. The seed behavior; the default on
//     every paper-grid tier and the bit-identity reference.
//   - HashedDir, the consistent-hashed directory for the large tiers:
//     placement is computed from an application-locality pin, only
//     rehomed items are stored (epoch-tagged overrides in per-shard
//     tables), and a per-node reverse index lets Rehome walk only the
//     failed node's items — O(items-on-failed + log N) instead of the
//     flat directory's O(items) scan (O(items x N) before the successor-
//     table fix).
//
// Both are deterministic: the same construction parameters and failure
// sequence produce the same placements, independent of host parallelism.
type Directory interface {
	// Items returns the number of items the directory manages.
	Items() int
	// Primary returns the item's current primary home (replica slot 0).
	Primary(item int) NodeID
	// Secondary returns the item's current first secondary home (replica
	// slot 1).
	Secondary(item int) NodeID
	// Degree returns the replication degree k: the number of distinct
	// live homes every item keeps. The paper's protocol is k = 2.
	Degree() int
	// Replica returns the item's slot-th home, 0 <= slot < Degree().
	// Slot 0 is the primary (committed copy); every other slot holds a
	// symmetric tentative copy. Alloc-free: iterate slots 0..Degree()-1
	// to visit every home of an item.
	Replica(item, slot int) NodeID
	// Alive reports whether the directory still considers node live.
	Alive(n NodeID) bool
	// AliveCount returns the number of live nodes.
	AliveCount() int
	// Rehome marks failed as dead and reassigns every home role it held,
	// returning the reassignments so the caller can rebuild the new
	// copies from the surviving replicas. Rehoming an already-dead node
	// returns nil; rehoming below Degree() live nodes panics.
	Rehome(failed NodeID) []Reassignment
	// Epoch returns the directory's membership version: the number of
	// completed Rehome calls. Lookup caches key on it.
	Epoch() int
	// MemoryBytes returns the approximate resident footprint of the
	// directory's state — the scaling-curve metric of the bench grid.
	MemoryBytes() int64
}

// Home-delta codec: a hashed directory is computable from membership
// plus its override table, so after a failure the coordinator must ship
// the newly created overrides to every survivor (a flat directory needs
// no such message — every node re-runs the same full scan). The entries
// are epoch-tagged so a survivor that already applied a later epoch's
// deltas discards stale ones. The simulator applies deltas through
// shared memory; only the wire size is modeled.
const (
	// homeDeltaHeaderBytes covers the epoch tag, the dead node id, and
	// the entry count.
	homeDeltaHeaderBytes = 16
	// homeDeltaEntryBytes encodes one Reassignment: item (4), role+new
	// node (4), survivor (4).
	homeDeltaEntryBytes = 12
)

// HomeDeltaWireBytes returns the modeled wire size of a rehoming-delta
// message carrying n reassignments.
func HomeDeltaWireBytes(n int) int {
	return homeDeltaHeaderBytes + n*homeDeltaEntryBytes
}
