package mem

import (
	"bytes"
	"math/rand"
	"testing"
)

// computeReference is the straightforward byte-wise word comparison the
// chunked fast path must agree with: one bytes.Equal per word, a final
// partial word compared over its remaining bytes. It intentionally avoids
// every trick the production path uses.
func computeReference(twin, cur []byte, word int) []Run {
	var runs []Run
	n := len(cur)
	start := -1
	for off := 0; off < n; off += word {
		end := off + word
		if end > n {
			end = n
		}
		if bytes.Equal(twin[off:end], cur[off:end]) {
			if start >= 0 {
				runs = append(runs, Run{Off: start, Data: append([]byte(nil), cur[start:off]...)})
				start = -1
			}
		} else if start < 0 {
			start = off
		}
	}
	if start >= 0 {
		runs = append(runs, Run{Off: start, Data: append([]byte(nil), cur[start:n]...)})
	}
	return runs
}

func runsEqual(a, b []Run) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Off != b[i].Off || !bytes.Equal(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}

// mutate flips roughly frac per mille of the words of cur, at random
// positions, plus whatever extra positions the caller forces.
func mutate(rng *rand.Rand, cur []byte, word, fracPerMille int, force ...int) {
	for off := 0; off+word <= len(cur); off += word {
		if rng.Intn(1000) < fracPerMille {
			cur[off+rng.Intn(word)] ^= 0x5a
		}
	}
	for _, off := range force {
		cur[off] ^= 0x5a
	}
}

// TestComputeMatchesReference cross-checks the uint64-chunked fast path
// (including its word==4 half-chunk resolution and its byte-wise tail)
// against the naive reference over random mutations, both word sizes, page
// lengths that exercise the tail (multiples of the word but not of 8, and
// lengths with a final partial word), and the all-equal / all-different
// extremes.
func TestComputeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []int{4, 8, 12, 36, 100, 4092, 4096, 4100, 16384}
	words := []int{4, 8}
	fracs := []int{0, 1, 20, 200, 600, 1000}
	for _, size := range sizes {
		for _, word := range words {
			for _, frac := range fracs {
				if size < word {
					continue
				}
				for iter := 0; iter < 8; iter++ {
					twin := make([]byte, size)
					rng.Read(twin)
					cur := append([]byte(nil), twin...)
					switch frac {
					case 0: // all-equal extreme
					case 1000: // all-different extreme
						for i := range cur {
							cur[i] ^= 0xff
						}
					default:
						mutate(rng, cur, word, frac, 0, size-1)
					}
					want := computeReference(twin, cur, word)
					got := Compute(twin, cur, word)
					if !runsEqual(got, want) {
						t.Fatalf("Compute(size=%d word=%d frac=%d) = %d runs, reference %d runs",
							size, word, frac, len(got), len(want))
					}
					buf := GetDiffBuf()
					got2 := ComputeInto(buf, twin, cur, word)
					if !runsEqual(got2, want) {
						t.Fatalf("ComputeInto(size=%d word=%d frac=%d) diverges from reference",
							size, word, frac)
					}
					buf.Release()
					// Applying the diff to the twin must reconstruct cur.
					if len(want) > 0 {
						d := &Diff{Runs: got}
						dst := append([]byte(nil), twin...)
						d.Apply(dst)
						if !bytes.Equal(dst, cur) {
							t.Fatalf("apply(size=%d word=%d frac=%d) does not reproduce cur",
								size, word, frac)
						}
					}
				}
			}
		}
	}
}

// TestComputeIntoAllocFree pins the steady-state pooled path at zero
// allocations: after the first call sizes the buffer, compute/discard
// cycles must not touch the heap.
func TestComputeIntoAllocFree(t *testing.T) {
	for _, frac := range []int{0, 20, 500} {
		twin, cur := benchPage(4096, frac)
		buf := GetDiffBuf()
		ComputeInto(buf, twin, cur, 4) // warm: size spans/runs/arena
		allocs := testing.AllocsPerRun(100, func() {
			runs := ComputeInto(buf, twin, cur, 4)
			if frac > 0 && len(runs) == 0 {
				t.Fatal("no runs")
			}
		})
		buf.Release()
		if allocs != 0 {
			t.Errorf("ComputeInto(frac=%d): %v allocs/op, want 0", frac, allocs)
		}
	}
}

// TestGetDiffBufReuseAllocFree pins the full pooled cycle (Get, compute,
// Release) at zero steady-state allocations, the shape the fault path uses.
// Under -race the cycle still runs, for the detector, but its count is not
// checked: the race detector makes sync.Pool drop items on purpose.
func TestGetDiffBufReuseAllocFree(t *testing.T) {
	twin, cur := benchPage(4096, 200)
	// Warm the pool with one sized buffer.
	b := GetDiffBuf()
	ComputeInto(b, twin, cur, 4)
	b.Release()
	allocs := testing.AllocsPerRun(100, func() {
		buf := GetDiffBuf()
		ComputeInto(buf, twin, cur, 4)
		buf.Release()
	})
	if allocs != 0 && !raceEnabled {
		t.Errorf("Get/ComputeInto/Release cycle: %v allocs/op, want 0", allocs)
	}
}

func TestCheckGeometry(t *testing.T) {
	cases := []struct {
		page, word int
		ok         bool
	}{
		{4096, 4, true},
		{4096, 8, true},
		{4100, 4, true},
		{16384, 8, true},
		{4, 4, true},
		{4096, 0, false},
		{4096, -4, false},
		{4100, 8, false},
		{2, 4, false},
		{0, 4, false},
	}
	for _, c := range cases {
		err := CheckGeometry(c.page, c.word)
		if (err == nil) != c.ok {
			t.Errorf("CheckGeometry(%d, %d) = %v, want ok=%v", c.page, c.word, err, c.ok)
		}
	}
}

// TestComputeWordSizes keeps a hand-built case per word size, pinning the
// exact run boundaries the chunked path must produce.
func TestComputeWordSizes(t *testing.T) {
	for _, word := range []int{4, 8} {
		twin := make([]byte, 64)
		cur := append([]byte(nil), twin...)
		cur[0] ^= 1             // first word
		cur[2*word] ^= 1        // third word: separate run (one clean word between)
		cur[2*word+word-1] ^= 1 // same word, last byte
		cur[63] ^= 1            // final word
		runs := Compute(twin, cur, word)
		want := []Run{
			{Off: 0, Data: cur[0:word]},
			{Off: 2 * word, Data: cur[2*word : 3*word]},
			{Off: 64 - word, Data: cur[64-word : 64]},
		}
		if !runsEqual(runs, want) {
			var got []int
			for _, r := range runs {
				got = append(got, r.Off, len(r.Data))
			}
			t.Errorf("word=%d: runs %v, want offsets 0,%d,%d", word, got, 2*word, 64-word)
		}
	}
}

// TestComputeAdjacentWordsMerge pins the merge behavior: modified words
// that touch coalesce into one run even across a chunk boundary.
func TestComputeAdjacentWordsMerge(t *testing.T) {
	for _, word := range []int{4, 8} {
		twin := make([]byte, 64)
		cur := append([]byte(nil), twin...)
		for off := 4; off < 28; off++ { // spans chunk boundaries at 8, 16, 24
			cur[off] ^= 0xff
		}
		runs := Compute(twin, cur, word)
		if len(runs) != 1 {
			t.Fatalf("word=%d: %d runs, want 1 merged run", word, len(runs))
		}
		lo := 4 - 4%word
		hi := 28
		if rem := hi % word; rem != 0 {
			hi += word - rem
		}
		if runs[0].Off != lo || len(runs[0].Data) != hi-lo {
			t.Errorf("word=%d: run [%d,%d), want [%d,%d)",
				word, runs[0].Off, runs[0].Off+len(runs[0].Data), lo, hi)
		}
	}
}

// FuzzComputeMatchesReference feeds arbitrary twin bytes and mutation masks
// through both implementations.
func FuzzComputeMatchesReference(f *testing.F) {
	f.Add([]byte("seed-page-contents-0123456789abcdef"), []byte{1, 0, 3}, 4)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0}, []byte{8}, 8)
	f.Fuzz(func(t *testing.T, twin []byte, flips []byte, word int) {
		if word != 4 && word != 8 {
			return
		}
		if len(twin) < word || len(twin) > 1<<16 {
			return
		}
		cur := append([]byte(nil), twin...)
		for i, fb := range flips {
			if len(cur) == 0 {
				break
			}
			cur[(i*131+int(fb))%len(cur)] ^= 0x80 | fb
		}
		want := computeReference(twin, cur, word)
		got := Compute(twin, cur, word)
		if !runsEqual(got, want) {
			t.Fatalf("fast path diverges: %d runs vs %d (len=%d word=%d)",
				len(got), len(want), len(twin), word)
		}
	})
}
