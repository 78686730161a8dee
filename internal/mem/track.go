package mem

import "math/bits"

// Dirty-chunk tracking.
//
// The SVM layer observes every write through the software page table, so
// instead of rediscovering the write set by scanning whole pages at diff
// time, the page table records — at write time — which fixed-size chunks
// of the page were touched during the interval. Diff computation then
// restricts the word-compare scan to dirty chunks: a word outside every
// dirty chunk was never written, so it cannot differ from the twin, and
// the tracked scan provably emits the same runs as the full scan.
//
// The same bitmap drives partial twins: a chunk is snapshotted into the
// twin at the moment it is first dirtied (MarkAndSnapshot), so the twin
// is only valid — and only ever read — inside dirty chunks.

const (
	// ChunkBytes is the tracking granularity. 64 bytes keeps the bitmap
	// at one uint64 per 4 KiB page while still skipping almost the whole
	// page for lock-grained sparse writers.
	ChunkBytes = 64
	// ChunkShift is log2(ChunkBytes).
	ChunkShift = 6
)

// MaskWords returns the number of uint64 words needed to hold one dirty
// bit per chunk of a page of the given size.
func MaskWords(pageSize int) int {
	chunks := (pageSize + ChunkBytes - 1) >> ChunkShift
	return (chunks + 63) / 64
}

// MarkRange sets the dirty bits of every chunk overlapped by [off, off+n).
func MarkRange(mask []uint64, off, n int) {
	if n <= 0 {
		return
	}
	first := off >> ChunkShift
	last := (off + n - 1) >> ChunkShift
	fw, lw := first>>6, last>>6
	fb, lb := uint(first&63), uint(last&63)
	if fw == lw {
		mask[fw] |= (^uint64(0) << fb) & (^uint64(0) >> (63 - lb))
		return
	}
	mask[fw] |= ^uint64(0) << fb
	for w := fw + 1; w < lw; w++ {
		mask[w] = ^uint64(0)
	}
	mask[lw] |= ^uint64(0) >> (63 - lb)
}

// MarkAndSnapshot marks the chunks overlapped by [off, off+n) dirty and,
// for each chunk not already dirty, first copies its current contents
// from src into dst — the lazy, chunk-granular twin: call it immediately
// before mutating src and dst accumulates exactly the pre-write image of
// every dirty chunk. Returns the number of bytes snapshotted (zero on the
// steady-state path where the written chunks are already dirty).
func MarkAndSnapshot(mask []uint64, dst, src []byte, off, n int) int {
	if n <= 0 {
		return 0
	}
	first := off >> ChunkShift
	last := (off + n - 1) >> ChunkShift
	copied := 0
	for c := first; c <= last; c++ {
		w, bit := c>>6, uint64(1)<<(uint(c)&63)
		if mask[w]&bit != 0 {
			continue
		}
		mask[w] |= bit
		lo := c << ChunkShift
		hi := lo + ChunkBytes
		if hi > len(src) {
			hi = len(src)
		}
		copied += copy(dst[lo:hi], src[lo:hi])
	}
	return copied
}

// CopyMasked copies only the dirty chunks from src into dst (both page
// size) and returns the number of bytes copied — rebuilding a partial
// twin for an already-known dirty set (fetch-merge replay).
func CopyMasked(dst, src []byte, mask []uint64) int {
	copied := 0
	maskRuns(mask, len(src), func(lo, hi int) {
		copied += copy(dst[lo:hi], src[lo:hi])
	})
	return copied
}

// MaskEmpty reports whether no chunk is marked dirty.
func MaskEmpty(mask []uint64) bool {
	for _, w := range mask {
		if w != 0 {
			return false
		}
	}
	return true
}

// MaskCount returns the number of dirty chunks.
func MaskCount(mask []uint64) int {
	n := 0
	for _, w := range mask {
		n += bits.OnesCount64(w)
	}
	return n
}

// MaskRuns calls fn(lo, hi) for each maximal byte range of consecutive
// dirty chunks, in order, clamped to limit — for callers that restrict
// their own per-word bookkeeping to the write set.
func MaskRuns(mask []uint64, limit int, fn func(lo, hi int)) {
	maskRuns(mask, limit, fn)
}

// maskRuns calls fn(lo, hi) for each maximal run of consecutive dirty
// chunks, as a byte range clamped to limit. Runs are visited in order.
func maskRuns(mask []uint64, limit int, fn func(lo, hi int)) {
	nchunks := len(mask) << 6
	start := -1 // first chunk of the current run, or -1
	for c := 0; c < nchunks; {
		w := mask[c>>6] >> (uint(c) & 63) // bit 0 = chunk c
		if start < 0 {
			if w == 0 { // rest of this mask word is clean
				c = (c>>6 + 1) << 6
				continue
			}
			c += bits.TrailingZeros64(w)
			start = c
			continue
		}
		z := bits.TrailingZeros64(^w) // consecutive dirty chunks from c
		if z > 0 {
			c += z // may reach the word boundary; re-enter to continue the run
			continue
		}
		fnClamped(fn, start<<ChunkShift, c<<ChunkShift, limit)
		start = -1
	}
	if start >= 0 {
		fnClamped(fn, start<<ChunkShift, nchunks<<ChunkShift, limit)
	}
}

func fnClamped(fn func(lo, hi int), lo, hi, limit int) {
	if lo >= limit {
		return
	}
	if hi > limit {
		hi = limit
	}
	fn(lo, hi)
}

// appendTrackedSpans is appendSpans restricted to dirty chunks: each
// maximal run of dirty chunks is scanned independently. Spans never merge
// across a clean chunk — correct, because the words in a clean chunk were
// never written and therefore equal the twin, so the full scan would have
// split there too.
func appendTrackedSpans(spans []span, twin, cur []byte, word int, mask []uint64) []span {
	maskRuns(mask, len(cur), func(lo, hi int) {
		// Chunk boundaries are word-aligned for the supported word sizes
		// (word divides ChunkBytes); re-align defensively for any word
		// size CheckGeometry admits.
		lo -= lo % word
		if r := hi % word; r != 0 && hi < len(cur) {
			hi += word - r
			if hi > len(cur) {
				hi = len(cur)
			}
		}
		spans = appendSpansRange(spans, twin, cur, word, lo, hi)
	})
	return spans
}

// ComputeTrackedInto is ComputeInto restricted to the dirty chunks in
// mask. For any mask that covers the true write set, the output is
// identical to Compute's (verified by differential fuzz tests). See
// DiffBuf for the storage-lifetime contract.
func ComputeTrackedInto(buf *DiffBuf, twin, cur []byte, word int, mask []uint64) []Run {
	buf.Reset()
	return AppendTrackedInto(buf, twin, cur, word, mask)
}

// AppendTrackedInto is ComputeTrackedInto without the reset: the diff is
// added after everything buf produced since its last Reset, which all
// stays valid, so a caller can keep many diffs in one buffer and recycle
// them together.
func AppendTrackedInto(buf *DiffBuf, twin, cur []byte, word int, mask []uint64) []Run {
	checkComputeArgs(twin, cur, word)
	buf.spans = appendTrackedSpans(buf.spans[:0], twin, cur, word, mask)
	return buf.emit(cur)
}

// ApplyMasked writes only the portions of the runs that fall inside dirty
// chunks. A partial twin is valid only inside its dirty chunks, so a diff
// patched onto it must skip everything else (clean chunks snapshot later,
// from a working copy that already has the diff applied).
func (d *Diff) ApplyMasked(dst []byte, mask []uint64) {
	for _, r := range d.Runs {
		off := r.Off
		data := r.Data
		for len(data) > 0 {
			c := off >> ChunkShift
			n := (c+1)<<ChunkShift - off
			if n > len(data) {
				n = len(data)
			}
			if mask[c>>6]&(uint64(1)<<(uint(c)&63)) != 0 {
				copy(dst[off:off+n], data[:n])
			}
			off += n
			data = data[n:]
		}
	}
}
