package apps

import (
	"fmt"

	"ftsvm/internal/svm"
)

// kvState is the resumable state of a KVStore thread: the op index
// advances before each bucket-lock release, so a replay applies every
// operation exactly once.
type kvState struct {
	Phase   int
	Arrived bool
	Op      int
	OpStage int
}

// KVSlotBytes is one hash slot: key and value words.
const KVSlotBytes = 16

// KVTable is the shared hash-table layout used by the key-value
// workloads (KVStore here, the open-loop serving driver in
// internal/serve): a fixed array of buckets, each a run of
// (key, value) slots starting on a fresh page, with bucket homes
// round-robin over the cluster's nodes — a real partitioned store.
// One lock per bucket guards its slots.
type KVTable struct {
	Buckets        int
	SlotsPerBucket int
	Pages          int
	BucketAddr     []int

	layout layout
}

// NewKVTable lays out buckets*slotsPerBucket slots in the page-grained
// shared address space and places every bucket's pages. It panics if two
// buckets would share a page (see kvPlaceBuckets).
func NewKVTable(s Shape, buckets, slotsPerBucket int) *KVTable {
	tb := &KVTable{
		Buckets:        buckets,
		SlotsPerBucket: slotsPerBucket,
		BucketAddr:     make([]int, buckets),
		layout:         layout{pageSize: s.PageSize},
	}
	bucketBytes := slotsPerBucket * KVSlotBytes
	for b := range tb.BucketAddr {
		tb.BucketAddr[b] = tb.layout.alloc(bucketBytes)
	}
	kvPlaceBuckets(s, &tb.layout, bucketBytes, tb.BucketAddr)
	tb.Pages = tb.layout.pages()
	return tb
}

// kvPlaceBuckets homes every page of every bucket's slot run at the
// bucket's home node and asserts that no two buckets share a page. The
// "partitioned store" claim rests on that exclusivity: with a shared
// page the last-placed bucket would silently win the page's home and
// remote bucket traffic would be misattributed. layout.alloc guarantees
// it today by starting every allocation on a fresh page, so the check
// exists to turn any future packing-allocator change into an immediate,
// attributable panic instead of a silent home-map corruption.
func kvPlaceBuckets(s Shape, l *layout, bucketBytes int, bucketAddr []int) {
	T := s.Threads()
	owner := make([]int, l.pages())
	for p := range owner {
		owner[p] = -1
	}
	for b, base := range bucketAddr {
		for a := base; a < base+bucketBytes; a += l.pageSize {
			p := l.pageOf(a)
			if owner[p] >= 0 && owner[p] != b {
				panic(fmt.Sprintf(
					"apps: kv buckets %d and %d share page %d (bucket runs must be page-exclusive)",
					owner[p], b, p))
			}
			owner[p] = b
		}
		l.home(base, base+bucketBytes, s.NodeOfThread(b%T))
	}
}

// HomeAssign is the page-to-home map for svm.Options.HomeAssign.
func (tb *KVTable) HomeAssign(p int) int { return tb.layout.homeOf(p) }

// BucketOf hashes a key to its bucket. The multiply stays in uint64 and
// the reduction happens before the int conversion: the product of the
// Knuth multiplier with any key is reduced mod Buckets while still an
// unsigned 64-bit value, so the index is always in [0, Buckets) even on
// 32-bit int platforms (converting the raw product first, as the old
// code did, truncates to a possibly negative int there — an
// out-of-range slice index). On 64-bit platforms the assignment is
// identical for every key the workloads generate (key*2654435761 stays
// below 2^63 for keys under ~3.47e9, far above any key space used), so
// recorded virtual metrics do not shift.
func (tb *KVTable) BucketOf(key uint64) int {
	return int(key * 2654435761 % uint64(tb.Buckets))
}

// SlotAddr returns the shared address of slot i of bucket b.
func (tb *KVTable) SlotAddr(b, i int) int {
	return tb.BucketAddr[b] + i*KVSlotBytes
}

// FindSlot scans bucket b for key and returns the slot holding it, or the
// first empty slot if the key is not stored; -1 means the bucket is full.
// The caller holds the bucket's lock.
func (tb *KVTable) FindSlot(t *svm.Thread, b int, key uint64) int {
	for i := 0; i < tb.SlotsPerBucket; i++ {
		if k := t.ReadU64(tb.SlotAddr(b, i)); k == key || k == 0 {
			return i
		}
	}
	return -1
}

// Add stores key in slot i of bucket b (see FindSlot) and adds delta to
// its value. The caller holds the bucket's lock.
func (tb *KVTable) Add(t *svm.Thread, b, i int, key, delta uint64) {
	addr := tb.SlotAddr(b, i)
	t.WriteU64(addr, key)
	v := t.ReadU64(addr + 8)
	t.WriteU64(addr+8, v+delta)
}

// Check reads the whole table and compares it with want, the expected
// total of every key. It reports the first of: a key stored outside its
// bucket, a key stored twice in one bucket, a wrong number of keys, a
// wrong total. Every slot is read whatever it finds.
func (tb *KVTable) Check(t *svm.Thread, want map[uint64]uint64) error {
	var first error
	got := map[uint64]uint64{}
	for b := 0; b < tb.Buckets; b++ {
		seen := map[uint64]bool{}
		for i := 0; i < tb.SlotsPerBucket; i++ {
			k := t.ReadU64(tb.SlotAddr(b, i))
			if k == 0 {
				continue
			}
			if first == nil && tb.BucketOf(k) != b {
				first = fmt.Errorf("key %d stored in wrong bucket %d", k, b)
			}
			if first == nil && seen[k] {
				first = fmt.Errorf("key %d duplicated within bucket %d", k, b)
			}
			seen[k] = true
			got[k] += t.ReadU64(tb.SlotAddr(b, i) + 8)
		}
	}
	if first != nil {
		return first
	}
	if len(got) != len(want) {
		return fmt.Errorf("key count %d, want %d", len(got), len(want))
	}
	for k, wv := range want {
		if got[k] != wv {
			return fmt.Errorf("key %d = %d, want %d", k, got[k], wv)
		}
	}
	return nil
}

// KVStore is the §6 "broader application domain" workload: a shared
// hash-table key-value store under transactional per-bucket locking —
// the access pattern of the back-end servers the paper's introduction
// motivates, quite unlike the SPLASH kernels. Each thread applies a
// deterministic stream of ADD(key, delta) operations; additions commute,
// so the expected final value of every key is independent of the
// interleaving and verified exactly at the end.
func KVStore(s Shape, buckets, slotsPerBucket, opsPerThread int) *Workload {
	// Half the table's capacity in distinct keys: overflow-free under any
	// hash distribution the default geometry produces.
	return KVStoreKeys(s, buckets, slotsPerBucket, opsPerThread, buckets*slotsPerBucket/2)
}

// KVStoreKeys is KVStore with an explicit key-space size. A key space
// that crowds more distinct keys into one bucket than it has slots
// makes the op stream overflow — used by tests to exercise the
// overflow-reporting path deterministically.
func KVStoreKeys(s Shape, buckets, slotsPerBucket, opsPerThread, keySpace int) *Workload {
	T := s.Threads()
	tb := NewKVTable(s, buckets, slotsPerBucket)

	w := &Workload{
		Name:       fmt.Sprintf("KVStore-%dx%d", buckets, opsPerThread),
		Pages:      tb.Pages,
		Locks:      buckets,
		HomeAssign: tb.HomeAssign,
	}

	// opFor returns thread tid's op i: (key, delta). Deterministic and
	// recomputable during replay.
	opFor := func(tid, i int) (uint64, uint64) {
		rng := NewRand(uint64(tid)<<32 | uint64(i) | 1)
		key := rng.Next()%uint64(keySpace) + 1 // keys are nonzero
		delta := rng.Next()%100 + 1
		return key, delta
	}

	w.Body = func(t *svm.Thread) {
		st := &kvState{OpStage: -1}
		t.Setup(st)
		tid := t.ID()

		// opsStage applies the thread's operation stream: lookup-or-insert
		// the key in its bucket, add the delta — all under the bucket's
		// lock, with st.Op advanced before the Release for exactly-once
		// replay.
		opsStage := func(stage int) {
			if st.OpStage != stage {
				st.Op, st.OpStage = 0, stage
			}
			for st.Op < opsPerThread {
				key, delta := opFor(tid, st.Op)
				b := tb.BucketOf(key)
				t.Acquire(b)
				slot := tb.FindSlot(t, b, key)
				if slot < 0 {
					// Identify the exact op that found the bucket full: the
					// truncated stream is the root cause, and the distant
					// key-count mismatch verify would otherwise report is
					// pure fallout (verifyStage skips once this is recorded).
					w.failf("thread %d op %d: bucket %d overflow (key %d, %d slots)",
						tid, st.Op, b, key, slotsPerBucket)
					st.Op = opsPerThread
					t.Release(b)
					return
				}
				tb.Add(t, b, slot, key, delta)
				t.Compute(500) // request parsing / hashing
				st.Op++
				t.Release(b)
			}
		}

		// verifyStage recomputes every key's expected total from all
		// threads' op streams and compares against the table.
		verifyStage := func() {
			if tid != 0 {
				return
			}
			if w.Err() != nil {
				// An op stream already failed (bucket overflow): the table
				// is legitimately short and a key-count/value diff would
				// only obscure the recorded root cause.
				return
			}
			want := map[uint64]uint64{}
			for pt := 0; pt < T; pt++ {
				for i := 0; i < opsPerThread; i++ {
					k, d := opFor(pt, i)
					want[k] += d
				}
			}
			if err := tb.Check(t, want); err != nil {
				w.failf("%v", err)
			}
		}

		RunStages(t, &st.Phase, &st.Arrived, 2, func(s int) {
			switch s {
			case 0:
				opsStage(s)
			case 1:
				verifyStage()
			}
		})
	}
	return w
}
