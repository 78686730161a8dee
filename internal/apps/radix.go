package apps

import (
	"fmt"

	"ftsvm/internal/svm"
)

// radixState is the resumable state of a Radix thread. Bucket advances
// before each lock release (exactly-once accumulation, tied to its stage
// by BucketStage); the histogram and permute stages are idempotent
// overwrites of data derived from the stable source array.
type radixState struct {
	Phase       int
	Arrived     bool
	Bucket      int
	BucketStage int
}

// Radix builds the RadixLocal workload: an R-ary radix sort over n keys.
// Per pass: local histograms (own keys, own pages), a lock-protected
// global bucket-total accumulation (R + 2 locks — the paper reports 66),
// offset computation, and the permutation, whose scattered remote writes
// make most diffed pages non-home pages (only ~12% home pages in the
// paper), so the extended protocol's extra diff cost is smallest here.
func Radix(s Shape, n int) *Workload {
	const R = 64       // radix (6 bits/digit)
	const keyBits = 24 // 4 passes
	passes := keyBits / 6
	T := s.Threads()

	l := newLayout(s.PageSize)
	keysA := l.alloc(n * 4)
	keysB := l.alloc(n * 4)
	histBase := l.alloc(T * R * 4)   // per-thread histograms
	totalBase := l.alloc(R * 4)      // global bucket totals
	offsetBase := l.alloc(T * R * 4) // per-thread write offsets

	for tid := 0; tid < T; tid++ {
		lo, hi := splitRange(n, T, tid)
		for _, base := range []int{keysA, keysB} {
			l.home(base+lo*4, base+hi*4, s.NodeOfThread(tid))
		}
	}

	w := &Workload{
		Name:       fmt.Sprintf("Radix-%dK", n/1024),
		Pages:      l.pages(),
		Locks:      R + 2,
		HomeAssign: l.homeOf,
	}

	w.Body = func(t *svm.Thread) {
		st := &radixState{BucketStage: -1}
		t.Setup(st)
		tid := t.ID()
		lo, hi := splitRange(n, T, tid)
		own := hi - lo

		keys := make([]uint32, own)
		hist := make([]uint32, R)
		scratch := make([]uint32, R)

		src := func(pass int) int {
			if pass%2 == 0 {
				return keysA
			}
			return keysB
		}
		dst := func(pass int) int { return src(pass + 1) }

		initStage := func() {
			rng := NewRand(uint64(tid)*2654435761 + 1)
			for i := range keys {
				keys[i] = uint32(rng.Next() & (1<<keyBits - 1))
			}
			t.WriteU32s(keysA+lo*4, keys)
		}

		// histStage builds the local histogram, publishes it, and zeroes
		// the thread's range of the global totals (idempotent overwrites).
		histStage := func(pass int) {
			shift := uint(6 * pass)
			t.ReadU32s(src(pass)+lo*4, keys)
			for b := range hist {
				hist[b] = 0
			}
			for _, k := range keys {
				hist[(k>>shift)&(R-1)]++
			}
			t.Compute(int64(own) * 2 * costIntOp)
			t.WriteU32s(histBase+tid*R*4, hist)
			bLo, bHi := splitRange(R, T, tid)
			if bHi > bLo {
				t.WriteU32s(totalBase+bLo*4, make([]uint32, bHi-bLo))
			}
		}

		// addStage accumulates this thread's counts into the global bucket
		// totals under per-bucket locks. st.Bucket advances before each
		// Release, so a replay adds each bucket exactly once.
		addStage := func(stage int) {
			if st.BucketStage != stage {
				st.Bucket, st.BucketStage = 0, stage
			}
			t.ReadU32s(histBase+tid*R*4, hist)
			for b := st.Bucket; b < R; b++ {
				if hist[b] == 0 {
					st.Bucket = b + 1
					continue
				}
				t.Acquire(b)
				v := t.ReadU32(totalBase + b*4)
				t.WriteU32(totalBase+b*4, v+hist[b])
				st.Bucket = b + 1
				t.Release(b)
			}
		}

		// offsetStage computes the thread's write offsets: bucket bases
		// (exclusive prefix over the totals) plus lower-ranked threads'
		// counts in each bucket.
		offsetStage := func(pass int) {
			t.ReadU32s(totalBase, scratch)
			sum := 0
			for b := 0; b < R; b++ {
				sum += int(scratch[b])
			}
			if sum != n {
				w.failf("pass %d (thread %d): bucket totals sum %d, want %d", pass, tid, sum, n)
			}
			base := uint32(0)
			for b := 0; b < R; b++ {
				c := scratch[b]
				scratch[b] = base
				base += c
			}
			for pt := 0; pt < tid; pt++ {
				t.ReadU32s(histBase+pt*R*4, hist)
				rowSum := 0
				for b := 0; b < R; b++ {
					rowSum += int(hist[b])
					scratch[b] += hist[b]
				}
				plo, phi := splitRange(n, T, pt)
				if rowSum != phi-plo {
					w.failf("pass %d: thread %d sees stale histogram row %d (sum %d, want %d)",
						pass, tid, pt, rowSum, phi-plo)
				}
			}
			t.Compute(int64(T*R) * costIntOp)
			t.WriteU32s(offsetBase+tid*R*4, scratch)
		}

		// permuteStage scatters the keys to their destinations.
		// Deterministic from the stable source, so replays overwrite
		// identically.
		permuteStage := func(pass int) {
			shift := uint(6 * pass)
			t.ReadU32s(src(pass)+lo*4, keys)
			t.ReadU32s(offsetBase+tid*R*4, scratch)
			for _, k := range keys {
				b := (k >> shift) & (R - 1)
				if int(scratch[b]) >= n {
					w.failf("pass %d thread %d: offset %d for bucket %d out of range", pass, tid, scratch[b], b)
					break
				}
				t.WriteU32(dst(pass)+int(scratch[b])*4, k)
				scratch[b]++
			}
			t.Compute(int64(own) * 3 * costIntOp)
		}

		verifyStage := func() {
			if tid != 0 {
				return
			}
			final := make([]uint32, n)
			t.ReadU32s(src(passes), final)
			var sum uint64
			var xor uint32
			prev := uint32(0)
			for i, k := range final {
				if k < prev {
					w.failf("not sorted at %d: %d < %d", i, k, prev)
					break
				}
				prev = k
				sum += uint64(k)
				xor ^= k
			}
			var wantSum uint64
			var wantXor uint32
			for pt := 0; pt < T; pt++ {
				plo, phi := splitRange(n, T, pt)
				rng := NewRand(uint64(pt)*2654435761 + 1)
				for i := plo; i < phi; i++ {
					_ = i
					k := uint32(rng.Next() & (1<<keyBits - 1))
					wantSum += uint64(k)
					wantXor ^= k
				}
			}
			if sum != wantSum || xor != wantXor {
				w.failf("permutation broken: sum %d vs %d, xor %x vs %x", sum, wantSum, xor, wantXor)
			}
		}

		total := 2 + 4*passes // init + 4 stages per pass + verify
		RunStages(t, &st.Phase, &st.Arrived, total, func(s int) {
			switch {
			case s == 0:
				initStage()
			case s == total-1:
				verifyStage()
			default:
				pass, sub := (s-1)/4, (s-1)%4
				switch sub {
				case 0:
					histStage(pass)
				case 1:
					addStage(s)
				case 2:
					offsetStage(pass)
				case 3:
					permuteStage(pass)
				}
			}
		})
	}
	return w
}
