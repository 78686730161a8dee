package mem

import (
	"bytes"
	"math/rand"
	"testing"
)

// trackedState is the write-time view the SVM page table maintains: the
// current page contents, a partial twin holding pre-write images of dirty
// chunks only (garbage elsewhere), the dirty mask, and — for the test's
// benefit — the full twin a non-tracking implementation would have taken.
type trackedState struct {
	cur, partial, full []byte
	mask               []uint64
}

func newTrackedState(rng *rand.Rand, size int) *trackedState {
	s := &trackedState{
		cur:     make([]byte, size),
		partial: make([]byte, size),
		full:    make([]byte, size),
		mask:    make([]uint64, MaskWords(size)),
	}
	rng.Read(s.cur)
	copy(s.full, s.cur)
	// The partial twin starts as garbage: only snapshotted chunks may be
	// read, so the tracked scan must be insensitive to these bytes.
	rng.Read(s.partial)
	return s
}

// write performs one tracked write of n bytes at off: snapshot-before-dirty,
// then mutate. Zero-byte XORs are avoided so every write really modifies.
func (s *trackedState) write(rng *rand.Rand, off, n int) {
	MarkAndSnapshot(s.mask, s.partial, s.cur, off, n)
	for i := off; i < off+n; i++ {
		s.cur[i] ^= byte(1 + rng.Intn(255))
	}
}

// writeSame performs a tracked write that stores the value already present
// (chunks become dirty, contents do not change) — the tracked scan must
// still match the full scan, which sees no difference.
func (s *trackedState) writeSame(off, n int) {
	MarkAndSnapshot(s.mask, s.partial, s.cur, off, n)
}

// computeTracked is the tracked diff in storage of its own.
func computeTracked(twin, cur []byte, word int, mask []uint64) []Run {
	return ComputeTrackedInto(new(DiffBuf), twin, cur, word, mask)
}

// TestComputeTrackedMatchesFull is the core differential property: for
// random write sets, the tracked scan over the partial twin equals the
// full scan over the full twin — including sizes that exercise the
// byte-wise tail, both word sizes, writes straddling chunk boundaries,
// and dirty-but-unmodified chunks.
func TestComputeTrackedMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sizes := []int{64, 100, 192, 4092, 4096, 4100, 16384}
	for _, size := range sizes {
		for _, word := range []int{4, 8} {
			if size%word != 0 && size != 100 && size != 4092 && size != 4100 {
				continue
			}
			for iter := 0; iter < 20; iter++ {
				s := newTrackedState(rng, size)
				nwrites := rng.Intn(12)
				for i := 0; i < nwrites; i++ {
					n := 1 + rng.Intn(2*ChunkBytes) // up to 2 chunks + straddle
					off := rng.Intn(size)
					if off+n > size {
						n = size - off
					}
					if rng.Intn(4) == 0 {
						s.writeSame(off, n)
					} else {
						s.write(rng, off, n)
					}
				}
				want := Compute(s.full, s.cur, word)
				got := computeTracked(s.partial, s.cur, word, s.mask)
				if !runsEqual(got, want) {
					t.Fatalf("size=%d word=%d iter=%d: tracked %d runs, full %d runs",
						size, word, iter, len(got), len(want))
				}
				buf := GetDiffBuf()
				got2 := ComputeTrackedInto(buf, s.partial, s.cur, word, s.mask)
				if !runsEqual(got2, want) {
					t.Fatalf("size=%d word=%d iter=%d: ComputeTrackedInto diverges", size, word, iter)
				}
				buf.Release()
			}
		}
	}
}

// TestComputeTrackedFullMask pins the whole-page twin (FullTwins, and the
// dense-writer path): a mask with every chunk marked scans the whole page,
// bit for bit, including a page that is not a whole number of chunks.
func TestComputeTrackedFullMask(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, size := range []int{4096, 4000} {
		twin := make([]byte, size)
		rng.Read(twin)
		cur := append([]byte(nil), twin...)
		mutate(rng, cur, 4, 50, 0, size-1)
		mask := make([]uint64, MaskWords(size))
		MarkRange(mask, 0, size)
		want := Compute(twin, cur, 4)
		if got := computeTracked(twin, cur, 4, mask); !runsEqual(got, want) {
			t.Fatalf("size %d: tracked scan with a full mask != Compute", size)
		}
		buf := GetDiffBuf()
		if got := ComputeTrackedInto(buf, twin, cur, 4, mask); !runsEqual(got, want) {
			t.Fatalf("size %d: ComputeTrackedInto(full mask) != Compute", size)
		}
		buf.Release()
	}
}

// TestComputeTrackedGarbageInsensitive re-randomizes the clean chunks of
// the partial twin and re-computes: the output must not move, proving the
// tracked scan never reads outside dirty chunks.
func TestComputeTrackedGarbageInsensitive(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	s := newTrackedState(rng, 4096)
	s.write(rng, 130, 7)
	s.write(rng, 1024, 200)
	s.write(rng, 4090, 6)
	first := computeTracked(s.partial, s.cur, 4, s.mask)
	for trial := 0; trial < 5; trial++ {
		for c := 0; c < len(s.partial)/ChunkBytes; c++ {
			if s.mask[c>>6]&(1<<(uint(c)&63)) == 0 {
				rng.Read(s.partial[c*ChunkBytes : (c+1)*ChunkBytes])
			}
		}
		if got := computeTracked(s.partial, s.cur, 4, s.mask); !runsEqual(got, first) {
			t.Fatalf("trial %d: output depends on clean-chunk twin bytes", trial)
		}
	}
}

// TestMarkRange cross-checks the word-at-a-time bit fill against a naive
// per-chunk loop.
func TestMarkRange(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const size = 16384
	for iter := 0; iter < 500; iter++ {
		off := rng.Intn(size)
		n := rng.Intn(size - off + 1)
		mask := make([]uint64, MaskWords(size))
		MarkRange(mask, off, n)
		want := make([]uint64, MaskWords(size))
		if n > 0 {
			for c := off >> ChunkShift; c <= (off+n-1)>>ChunkShift; c++ {
				want[c>>6] |= 1 << (uint(c) & 63)
			}
		}
		for w := range mask {
			if mask[w] != want[w] {
				t.Fatalf("MarkRange(off=%d n=%d): word %d = %x, want %x", off, n, w, mask[w], want[w])
			}
		}
	}
}

// TestMarkAndSnapshot pins the lazy-twin contract: a chunk is copied
// exactly once (at first dirtying), later writes never re-copy, and the
// copied bytes are the pre-write image.
func TestMarkAndSnapshot(t *testing.T) {
	cur := make([]byte, 256)
	for i := range cur {
		cur[i] = byte(i)
	}
	twin := make([]byte, 256)
	mask := make([]uint64, MaskWords(256))

	if n := MarkAndSnapshot(mask, twin, cur, 60, 8); n != 128 { // straddles chunks 0 and 1
		t.Fatalf("first snapshot copied %d bytes, want 128", n)
	}
	if !bytes.Equal(twin[:128], cur[:128]) {
		t.Fatal("snapshot does not match pre-write image")
	}
	cur[61] = 0xEE
	if n := MarkAndSnapshot(mask, twin, cur, 61, 1); n != 0 {
		t.Fatalf("re-snapshot of dirty chunk copied %d bytes, want 0", n)
	}
	if twin[61] != 61 {
		t.Fatal("re-snapshot overwrote the pre-image")
	}
	if MaskCount(mask) != 2 || MaskEmpty(mask) {
		t.Fatalf("mask count %d, want 2", MaskCount(mask))
	}
	// Tail chunk of a non-chunk-multiple page is clamped.
	smallCur := make([]byte, 100)
	smallTwin := make([]byte, 100)
	smallMask := make([]uint64, MaskWords(100))
	if n := MarkAndSnapshot(smallMask, smallTwin, smallCur, 96, 4); n != 36 {
		t.Fatalf("tail snapshot copied %d bytes, want 36", n)
	}
}

// TestApplyMasked pins masked application: runs land only inside dirty
// chunks; with every chunk marked the whole diff lands.
func TestApplyMasked(t *testing.T) {
	mask := make([]uint64, 1)
	MarkRange(mask, 64, 64)                                                  // chunk 1 only
	d := &Diff{Runs: []Run{{Off: 60, Data: bytes.Repeat([]byte{0xAB}, 72)}}} // spans chunks 0,1,2
	dst := make([]byte, 256)
	d.ApplyMasked(dst, mask)
	for i := 0; i < 256; i++ {
		want := byte(0)
		if i >= 64 && i < 128 {
			want = 0xAB
		}
		if dst[i] != want {
			t.Fatalf("byte %d = %x, want %x", i, dst[i], want)
		}
	}
	full := make([]byte, 256)
	MarkRange(mask, 0, len(full))
	d.ApplyMasked(full, mask)
	for i := 60; i < 132; i++ {
		if full[i] != 0xAB {
			t.Fatalf("full mask: byte %d not applied", i)
		}
	}
}

// TestComputeTrackedIntoAllocFree extends the steady-state zero-alloc gate
// to the tracked path.
func TestComputeTrackedIntoAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	s := newTrackedState(rng, 4096)
	s.write(rng, 100, 8)
	s.write(rng, 2000, 64)
	buf := GetDiffBuf()
	ComputeTrackedInto(buf, s.partial, s.cur, 4, s.mask) // warm
	allocs := testing.AllocsPerRun(100, func() {
		if runs := ComputeTrackedInto(buf, s.partial, s.cur, 4, s.mask); len(runs) == 0 {
			t.Fatal("no runs")
		}
	})
	buf.Release()
	if allocs != 0 {
		t.Errorf("ComputeTrackedInto: %v allocs/op, want 0", allocs)
	}
}

// TestAppendTrackedIntoKeepsEarlierDiffs fills one buffer with many diffs,
// pre-images and clones, starting from an empty buffer so its slab and
// arena are replaced several times on the way, and checks every diff
// handed out still holds what it held when it was made.
func TestAppendTrackedIntoKeepsEarlierDiffs(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var buf DiffBuf
	type made struct {
		got, want []Run
	}
	var all []made
	for round := 0; round < 2; round++ {
		buf.Reset()
		all = all[:0]
		for i := 0; i < 40; i++ {
			s := newTrackedState(rng, 4096)
			for w := rng.Intn(10); w >= 0; w-- {
				s.write(rng, rng.Intn(4000), 1+rng.Intn(96))
			}
			want := Compute(s.full, s.cur, 4)
			runs := AppendTrackedInto(&buf, s.partial, s.cur, 4, s.mask)
			pre := buf.AppendRegions(runs, s.full)
			wantPre := make([]Run, len(want))
			for j, r := range want {
				wantPre[j] = Run{Off: r.Off, Data: append([]byte(nil), s.full[r.Off:r.Off+len(r.Data)]...)}
			}
			all = append(all, made{runs, want}, made{pre, wantPre}, made{buf.AppendClone(runs), want})
		}
		for i, m := range all {
			if !runsEqual(m.got, m.want) {
				t.Fatalf("round %d: diff %d changed after later appends", round, i)
			}
		}
	}
}

// TestAppendTrackedIntoAllocFree pins the append-into API at zero
// steady-state allocations: once a buffer has grown to a cycle's size,
// resetting it and appending the same diffs, pre-images and clones again
// touches no heap.
func TestAppendTrackedIntoAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var states []*trackedState
	for i := 0; i < 4; i++ {
		s := newTrackedState(rng, 4096)
		s.write(rng, 100*i, 8)
		s.write(rng, 2000+i*64, 64)
		states = append(states, s)
	}
	var buf DiffBuf
	cycle := func() {
		buf.Reset()
		for _, s := range states {
			runs := AppendTrackedInto(&buf, s.partial, s.cur, 4, s.mask)
			if len(runs) == 0 {
				t.Fatal("no runs")
			}
			buf.AppendRegions(runs, s.partial)
			buf.AppendClone(runs)
		}
	}
	cycle() // warm: grow the slab and arena to one cycle
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("AppendTrackedInto cycle: %v allocs/op, want 0", allocs)
	}
}

// FuzzComputeTrackedMatchesFull drives arbitrary write sets (offset/length
// pairs decoded from the fuzz input) through the tracked and full paths.
func FuzzComputeTrackedMatchesFull(f *testing.F) {
	f.Add([]byte("some-initial-page-bytes-to-seed-the-corpus!!"), []byte{1, 2, 60, 8}, 4)
	f.Add(bytes.Repeat([]byte{7}, 200), []byte{0, 64, 64, 65, 190, 10}, 8)
	f.Fuzz(func(t *testing.T, page []byte, writes []byte, word int) {
		if word != 4 && word != 8 {
			return
		}
		if len(page) < word || len(page) > 1<<15 {
			return
		}
		size := len(page)
		s := &trackedState{
			cur:     append([]byte(nil), page...),
			partial: make([]byte, size),
			full:    append([]byte(nil), page...),
			mask:    make([]uint64, MaskWords(size)),
		}
		for i := range s.partial {
			s.partial[i] = byte(i*37 + 11) // deterministic garbage
		}
		for i := 0; i+1 < len(writes); i += 2 {
			off := int(writes[i]) * size / 256
			n := 1 + int(writes[i+1])%(2*ChunkBytes)
			if off+n > size {
				n = size - off
			}
			if n <= 0 {
				continue
			}
			MarkAndSnapshot(s.mask, s.partial, s.cur, off, n)
			for j := off; j < off+n; j++ {
				s.cur[j] ^= writes[i+1] | 1
			}
		}
		want := Compute(s.full, s.cur, word)
		got := computeTracked(s.partial, s.cur, word, s.mask)
		if !runsEqual(got, want) {
			t.Fatalf("tracked diverges: %d runs vs %d (size=%d word=%d)",
				len(got), len(want), size, word)
		}
	})
}
