// Package oracle is a memory-consistency oracle for the SVM protocols:
// it replays the committed interval log against a reference sequential
// store and checks that the cluster's final page frames equal the
// reference.
//
// The soundness argument mirrors the paper's §4.5 arbitration. Every
// interval that ever becomes visible to another node is committed first
// (the commit advances the owner's vector entry before phase 1 ships a
// byte), so the log is a superset of the visible history. After a
// failure, recovery clamps the dead node's entry in every survivor's
// vector time to the saved timestamp — intervals beyond it were rolled
// back and provably never observed (a lock grant or barrier release
// carrying them would require the timestamp save to have completed).
// Replaying the log in causal (vector-timestamp) order up to the final
// frontier therefore reconstructs exactly the state a correct
// roll-forward/roll-back must land on: a prefix-consistent image of the
// committed history. Any divergence between the replayed store and the
// cluster's authoritative committed copies — a lost update, a
// half-applied diff, a resurrected rolled-back interval — is a protocol
// bug, whether or not it tripped an invariant or a panic.
//
// Concurrent intervals (neither vector time covers the other) may touch
// the same page only at disjoint words (data-race-free applications
// under lock/barrier synchronization), so their application order does
// not affect the result; the replay still fixes a deterministic order
// (lowest node first) so the oracle itself is reproducible.
package oracle

import (
	"bytes"
	"fmt"
	"sort"

	"ftsvm/internal/mem"
	"ftsvm/internal/proto"
)

// Record is one committed interval: the committing node, the 1-based
// interval index, the node's vector time at commit (VT[Node] ==
// Interval), and the interval's page diffs.
type Record struct {
	Node     int
	Interval int32
	VT       proto.VectorTime
	Diffs    []*mem.Diff
}

// Log accumulates commit records. Its Commit method matches
// svm.CommitSink, so a cluster streams records with
// cl.SetCommitSink(log.Commit).
type Log struct {
	Records []Record

	// The records' diffs and vectors live in log-owned slabs, so a commit
	// costs no object of its own: runs and payloads in buf, the diff
	// headers, the Diffs slices and the vectors carved from the rest.
	buf   mem.DiffBuf
	heads []mem.Diff
	ptrs  []*mem.Diff
	vts   []int32
}

// Commit appends one interval. The diffs and vector time are cloned:
// the sink contract says the arguments are live protocol objects.
func (l *Log) Commit(node int, interval int32, vt proto.VectorTime, diffs []*mem.Diff) {
	heads, ptrs := carve(&l.heads, len(diffs)), carve(&l.ptrs, len(diffs))
	for i, d := range diffs {
		heads[i] = mem.Diff{Page: d.Page, Runs: l.buf.AppendClone(d.Runs)}
		ptrs[i] = &heads[i]
	}
	v := carve(&l.vts, len(vt))
	copy(v, vt)
	l.Records = append(l.Records, Record{Node: node, Interval: interval, VT: v, Diffs: ptrs})
}

// carve takes the next n elements of *slab. A slab without the room is
// replaced by a fresh one at least twice its capacity, never grown in
// place, so what was carved before keeps its storage.
func carve[T any](slab *[]T, n int) []T {
	s := *slab
	if cap(s)-len(s) < n {
		s = make([]T, 0, max(2*cap(s), n, 64))
	}
	*slab = s[:len(s)+n]
	return s[len(s) : len(s)+n : len(s)+n]
}

// Store is the reference sequential memory: one flat buffer per page,
// plus the frontier of intervals already applied.
type Store struct {
	pageSize int
	pages    [][]byte // nil until the page's first applied diff
	applied  proto.VectorTime
}

// NewStore builds a zeroed reference store for pages pages of pageSize
// bytes across nodes nodes — shared memory starts zero-filled, exactly
// like the cluster's never-touched committed copies read back as zeros.
// A page's frame is allocated at its first applied diff.
func NewStore(pages, pageSize, nodes int) *Store {
	return &Store{pageSize: pageSize, pages: make([][]byte, pages), applied: proto.NewVector(nodes)}
}

// Page returns page p's reference contents, nil (all zeros) when no diff
// has touched it.
func (s *Store) Page(p int) []byte { return s.pages[p] }

// Applied returns the frontier of intervals replayed so far.
func (s *Store) Applied() proto.VectorTime { return s.applied }

// Replay applies recs onto the store in causal order, up to the upTo
// frontier (nil: no bound). The input order carries no meaning: records
// may arrive out of order, duplicated (an interval replayed twice — the
// roll-forward case — is applied once; diffs carry absolute words, so
// this also matches the protocol's idempotent re-propagation), or
// beyond upTo (rolled-back tails of a failed node — skipped). A record
// is ready once it is the node's next interval and every foreign entry
// of its commit-time vector is already applied; ties break lowest node
// first, so the replay is deterministic. An exhausted pass with records
// still pending means the log itself is causally inconsistent (a gap or
// a cycle) and is reported as an error.
func (s *Store) Replay(recs []Record, upTo proto.VectorTime) error {
	rem := make([]Record, 0, len(recs))
	for _, r := range recs {
		if r.Node < 0 || r.Node >= len(s.applied) {
			return fmt.Errorf("oracle: record names node %d outside the %d-node cluster", r.Node, len(s.applied))
		}
		if upTo != nil && r.Interval > upTo[r.Node] {
			continue // beyond the final frontier: rolled back, never visible
		}
		rem = append(rem, r)
	}
	for len(rem) > 0 {
		best := -1
		dropped := false
		for i := 0; i < len(rem); i++ {
			r := &rem[i]
			if r.Interval <= s.applied[r.Node] {
				// Duplicate of an applied interval: idempotent, drop it.
				rem[i] = rem[len(rem)-1]
				rem = rem[:len(rem)-1]
				i--
				dropped = true
				continue
			}
			if !s.ready(r) {
				continue
			}
			if best < 0 || r.Node < rem[best].Node ||
				(r.Node == rem[best].Node && r.Interval < rem[best].Interval) {
				best = i
			}
		}
		if best < 0 {
			if dropped {
				continue
			}
			return fmt.Errorf("oracle: replay stuck at %v with %d records pending (first: %s) — causal gap in the commit log",
				s.applied, len(rem), describe(rem))
		}
		r := rem[best]
		for _, d := range r.Diffs {
			if d.Page < 0 || d.Page >= len(s.pages) {
				return fmt.Errorf("oracle: node %d interval %d diffs page %d outside the %d-page space",
					r.Node, r.Interval, d.Page, len(s.pages))
			}
			if s.pages[d.Page] == nil {
				s.pages[d.Page] = make([]byte, s.pageSize)
			}
			d.Apply(s.pages[d.Page])
		}
		s.applied[r.Node] = r.Interval
		rem[best] = rem[len(rem)-1]
		rem = rem[:len(rem)-1]
	}
	return nil
}

// ready reports whether r's causal dependencies are satisfied: it is the
// node's next interval and every interval of another node that r's
// committer had observed is already in the store.
func (s *Store) ready(r *Record) bool {
	if r.Interval != s.applied[r.Node]+1 {
		return false
	}
	for m, v := range r.VT {
		if m != r.Node && v > s.applied[m] {
			return false
		}
	}
	return true
}

// describe summarizes pending records for the stuck-replay error,
// sorted for a stable message.
func describe(rem []Record) string {
	keys := make([]string, len(rem))
	for i, r := range rem {
		keys[i] = fmt.Sprintf("n%d#%d", r.Node, r.Interval)
	}
	sort.Strings(keys)
	if len(keys) > 6 {
		keys = keys[:6]
	}
	return fmt.Sprintf("%v", keys)
}

// Check compares every reference page against the actual frame returned
// by actual(page) — for an SVM cluster, the authoritative frame
// (svm.Cluster.Frame). A nil or short frame on either side reads as
// zero-filled past its end, matching never-allocated copies; nothing is
// copied. Returns an error naming the first diverging page and byte.
func (s *Store) Check(actual func(page int) []byte) error {
	for p, ref := range s.pages {
		got := actual(p)
		if off := firstDiff(ref, got, s.pageSize); off >= 0 {
			return fmt.Errorf("oracle: page %d diverges from the reference at byte %d: committed %#02x, reference %#02x (applied frontier %v)",
				p, off, byteAt(got, off), byteAt(ref, off), s.applied)
		}
	}
	return nil
}

// firstDiff returns the first offset below n at which a and b differ, each
// read as zeros past its end, or -1 when they agree.
func firstDiff(a, b []byte, n int) int {
	a, b = a[:min(len(a), n)], b[:min(len(b), n)]
	if len(a) > len(b) {
		a, b = b, a
	}
	if !bytes.Equal(a, b[:len(a)]) {
		for i := range a {
			if a[i] != b[i] {
				return i
			}
		}
	}
	for i, c := range b[len(a):] {
		if c != 0 {
			return len(a) + i
		}
	}
	return -1
}

func byteAt(b []byte, i int) byte {
	if i < len(b) {
		return b[i]
	}
	return 0
}
