// Package mem implements the page-level memory primitives of the SVM
// system: twins, word-granularity diffs, and their wire-size accounting.
//
// Diffs are the multiple-writer mechanism of lazy release consistency: a
// writer compares the current page contents against the twin (the copy
// taken before its first write in the interval) and ships only the
// modified words, so writers of disjoint parts of one page never conflict.
//
// Diff creation sits on the protocol's per-release fast path (twice per
// release in the extended protocol), so Compute scans pages eight bytes
// at a time with an early-out for unmodified pages, and ComputeInto
// recycles all of its storage through a sync.Pool for diffs that do not
// outlive their use site.
package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
)

// Run is one contiguous modified region of a page.
type Run struct {
	Off  int
	Data []byte
}

// Diff is the set of modifications a node made to one page during an
// interval, relative to the page's twin.
type Diff struct {
	Page int
	Runs []Run
}

// runHeaderBytes approximates the wire encoding overhead of one run
// (offset + length).
const runHeaderBytes = 8

// diffHeaderBytes approximates the wire encoding overhead of one diff
// (page id + run count + protocol tag).
const diffHeaderBytes = 16

// CheckGeometry validates a page/word-size pair for diffing: the word
// size must be positive and divide the page size, or the final partial
// word of every page would be silently mis-diffed. Constructors (the
// model config, the SVM page table) call this before building state.
func CheckGeometry(pageSize, wordSize int) error {
	switch {
	case wordSize <= 0:
		return fmt.Errorf("mem: WordSize = %d, need > 0", wordSize)
	case pageSize < wordSize:
		return fmt.Errorf("mem: PageSize %d smaller than WordSize %d", pageSize, wordSize)
	case pageSize%wordSize != 0:
		return fmt.Errorf("mem: PageSize %d not a multiple of WordSize %d", pageSize, wordSize)
	}
	return nil
}

// span is one contiguous modified byte range [off, end) of a page,
// recorded before any payload is copied.
type span struct {
	off, end int
}

// appendSpans scans twin against cur with word granularity and appends
// the modified ranges to spans, merging adjacent modified words. The hot
// loop compares eight-byte chunks (a single load each on little-endian
// hardware); only chunks that differ are re-examined per word. The tail —
// pages not a multiple of 8, or word sizes other than 4/8 — falls back to
// the byte-wise word compare.
func appendSpans(spans []span, twin, cur []byte, word int) []span {
	n := len(cur)
	start := -1
	off := 0
	if word == 8 || word == 4 {
		for ; off+8 <= n; off += 8 {
			if binary.LittleEndian.Uint64(twin[off:]) == binary.LittleEndian.Uint64(cur[off:]) {
				if start >= 0 {
					spans = append(spans, span{start, off})
					start = -1
				}
				continue
			}
			if word == 8 {
				if start < 0 {
					start = off
				}
				continue
			}
			// word == 4: the differing chunk holds two words; resolve each.
			for w := off; w < off+8; w += 4 {
				if binary.LittleEndian.Uint32(twin[w:]) == binary.LittleEndian.Uint32(cur[w:]) {
					if start >= 0 {
						spans = append(spans, span{start, w})
						start = -1
					}
				} else if start < 0 {
					start = w
				}
			}
		}
	}
	for ; off < n; off += word {
		end := off + word
		if end > n {
			end = n
		}
		if bytes.Equal(twin[off:end], cur[off:end]) {
			if start >= 0 {
				spans = append(spans, span{start, off})
				start = -1
			}
		} else if start < 0 {
			start = off
		}
	}
	if start >= 0 {
		spans = append(spans, span{start, n})
	}
	return spans
}

// appendSpansRange scans only [lo, hi) of the pair, emitting spans with
// page-absolute offsets. lo must be word-aligned (the tracked caller
// aligns chunk boundaries before calling).
func appendSpansRange(spans []span, twin, cur []byte, word, lo, hi int) []span {
	base := len(spans)
	spans = appendSpans(spans, twin[lo:hi], cur[lo:hi], word)
	for i := base; i < len(spans); i++ {
		spans[i].off += lo
		spans[i].end += lo
	}
	return spans
}

// DiffBuf is reusable storage for diffs: the span scratch, a run slab, and
// one payload arena all runs point into. The Compute...Into functions reset
// it and fill it with one diff; the Append... functions and methods add a
// diff after everything produced since the last Reset, so many diffs can
// live in one buffer at once. Runs produced through a DiffBuf are valid
// until the buffer's next Reset (which every Compute...Into starts with)
// or its Release. A full slab or arena is replaced, never grown in place,
// so nothing already handed out moves or is written again before then:
// the old one stays with the runs that point into it.
type DiffBuf struct {
	spans []span
	runs  []Run
	data  []byte
}

var diffBufPool = sync.Pool{New: func() any { return new(DiffBuf) }}

// GetDiffBuf returns a pooled DiffBuf.
func GetDiffBuf() *DiffBuf { return diffBufPool.Get().(*DiffBuf) }

// Release returns the buffer (and every Run it produced) to the pool.
func (b *DiffBuf) Release() { diffBufPool.Put(b) }

// Reset makes the buffer's storage reusable: every Run it produced becomes
// invalid.
func (b *DiffBuf) Reset() {
	b.runs = b.runs[:0]
	b.data = b.data[:0]
}

// ComputeInto is Compute with caller-managed storage: run headers and
// payload bytes live in buf and are reused across calls, so a steady-state
// compute/apply/discard cycle allocates nothing. See DiffBuf for the
// lifetime contract.
func ComputeInto(buf *DiffBuf, twin, cur []byte, word int) []Run {
	buf.Reset()
	checkComputeArgs(twin, cur, word)
	buf.spans = appendSpans(buf.spans[:0], twin, cur, word)
	return buf.emit(cur)
}

// reserve makes room for n more runs and size more payload bytes. A slab
// or arena without the room is replaced by a fresh one at least twice its
// capacity, so the runs already handed out keep theirs untouched.
func (b *DiffBuf) reserve(n, size int) {
	if cap(b.runs)-len(b.runs) < n {
		b.runs = make([]Run, 0, max(2*cap(b.runs), n))
	}
	if cap(b.data)-len(b.data) < size {
		b.data = make([]byte, 0, max(2*cap(b.data), size))
	}
}

// emit copies the spanned regions of cur into the arena after its current
// contents and returns the runs describing them, capped so an append to
// the result cannot reach the slab.
func (b *DiffBuf) emit(cur []byte) []Run {
	if len(b.spans) == 0 {
		return nil
	}
	total := 0
	for _, s := range b.spans {
		total += s.end - s.off
	}
	b.reserve(len(b.spans), total)
	start := len(b.runs)
	for _, s := range b.spans {
		b.put(s.off, cur[s.off:s.end])
	}
	return b.runs[start:len(b.runs):len(b.runs)]
}

// put appends one run at off holding a copy of data; reserve made room.
func (b *DiffBuf) put(off int, data []byte) {
	p := len(b.data)
	b.data = append(b.data, data...)
	b.runs = append(b.runs, Run{Off: off, Data: b.data[p:len(b.data):len(b.data)]})
}

// AppendClone adds a deep copy of runs to the buffer and returns it (nil
// for no runs).
func (b *DiffBuf) AppendClone(runs []Run) []Run { return b.appendRuns(runs, nil) }

// AppendRegions adds runs covering the same regions as runs, holding src's
// bytes there instead of theirs, and returns them (nil for no runs). With a
// diff's twin as src this is the diff's pre-image.
func (b *DiffBuf) AppendRegions(runs []Run, src []byte) []Run { return b.appendRuns(runs, src) }

func (b *DiffBuf) appendRuns(runs []Run, src []byte) []Run {
	if len(runs) == 0 {
		return nil
	}
	total := 0
	for _, r := range runs {
		total += len(r.Data)
	}
	b.reserve(len(runs), total)
	start := len(b.runs)
	for _, r := range runs {
		data := r.Data
		if src != nil {
			data = src[r.Off : r.Off+len(r.Data)]
		}
		b.put(r.Off, data)
	}
	return b.runs[start:len(b.runs):len(b.runs)]
}

func checkComputeArgs(twin, cur []byte, word int) {
	if len(twin) != len(cur) {
		panic("mem: twin/current length mismatch")
	}
	if word <= 0 {
		panic("mem: non-positive word size")
	}
}

// Compute compares cur against twin with word granularity and returns the
// modified regions, merging adjacent modified words into single runs. The
// two slices must have equal length; a final partial word (length not a
// multiple of word) is compared over its remaining bytes. The returned
// runs hold copies of cur's data — one arena allocation for the whole
// diff — so cur may keep changing afterwards and the runs may be retained
// indefinitely (messages, recovery stashes).
func Compute(twin, cur []byte, word int) []Run {
	checkComputeArgs(twin, cur, word)
	buf := GetDiffBuf()
	buf.spans = appendSpans(buf.spans[:0], twin, cur, word)
	runs := cloneSpans(buf.spans, cur)
	buf.Release()
	return runs
}

// cloneSpans copies the spanned regions of cur into one fresh arena and
// returns independent runs (nil when spans is empty).
func cloneSpans(spans []span, cur []byte) []Run {
	if len(spans) == 0 {
		return nil
	}
	total := 0
	for _, s := range spans {
		total += s.end - s.off
	}
	arena := make([]byte, 0, total)
	runs := make([]Run, len(spans))
	for i, s := range spans {
		p := len(arena)
		arena = append(arena, cur[s.off:s.end]...)
		runs[i] = Run{Off: s.off, Data: arena[p:len(arena):len(arena)]}
	}
	return runs
}

// Apply writes the runs into dst.
func (d *Diff) Apply(dst []byte) {
	for _, r := range d.Runs {
		copy(dst[r.Off:], r.Data)
	}
}

// DataBytes returns the number of payload bytes carried by the diff.
func (d *Diff) DataBytes() int {
	n := 0
	for _, r := range d.Runs {
		n += len(r.Data)
	}
	return n
}

// WireBytes returns the modeled on-the-wire size of the diff, including
// run and diff headers.
func (d *Diff) WireBytes() int {
	return diffHeaderBytes + len(d.Runs)*runHeaderBytes + d.DataBytes()
}

// Empty reports whether the diff carries no modifications.
func (d *Diff) Empty() bool { return len(d.Runs) == 0 }

// Clone returns a deep copy of the diff, so the original can be retained
// locally (the extended protocol stores diffs between its two propagation
// phases) while a copy travels.
func (d *Diff) Clone() *Diff {
	c := &Diff{Page: d.Page, Runs: make([]Run, len(d.Runs))}
	total := 0
	for _, r := range d.Runs {
		total += len(r.Data)
	}
	arena := make([]byte, 0, total)
	for i, r := range d.Runs {
		p := len(arena)
		arena = append(arena, r.Data...)
		c.Runs[i] = Run{Off: r.Off, Data: arena[p:len(arena):len(arena)]}
	}
	return c
}
