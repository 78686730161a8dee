// Package checkpoint implements thread-state checkpointing for the
// extended SVM protocol: serialization of a thread's resumable state and
// the double-buffered remote store that holds it on a backup node.
//
// The paper checkpoints a thread's context and stack. Go cannot copy
// goroutine stacks, so a thread's resumable state is a gob-serializable
// struct the application registers (see DESIGN.md, substitutions). Two
// copies per thread are kept on the backup node and updated alternately,
// so a failure *during* checkpointing always leaves the previous complete
// checkpoint intact — exactly the paper's scheme.
package checkpoint

import (
	"bytes"
	"encoding"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"sync"
	"unsafe"

	"ftsvm/internal/proto"
)

// Snapshot is one saved thread state.
type Snapshot struct {
	// Seq is the release sequence number at which the snapshot was taken;
	// higher is newer.
	Seq int64
	// VT is the node's vector time at the snapshot, used during recovery
	// to position the restored thread in the partial order.
	VT proto.VectorTime
	// BarSeq is the number of global barriers the thread had completed at
	// the snapshot, so a restored thread re-joins the correct barrier
	// episode.
	BarSeq int64
	// Blob is the gob-encoded application state.
	Blob []byte
}

// A blob must be byte-for-byte what a new gob.Encoder writes for the value
// (its length is a modeled checkpoint cost): the type's descriptor
// messages, constant once gob has numbered the type, then a value message.
// For a flat state — a pointer to a struct whose exported fields are bools,
// ints, uints, floats or arrays or slices of them, with no gob, binary or
// text marshaler anywhere — that message is its length, the type id, a
// (field delta, value) pair per non-zero field and a 0. A plan writes it from
// field offsets, with no reflection, lock or allocation. The descriptors
// and the type id come once from a new encoder's blob, and the plan is kept
// only if it reproduces that blob; any other type gets a new encoder per
// call, for good.
type plan struct {
	fresh      bool   // a new encoder per call
	prefix, id []byte // the descriptor messages; the gob-coded type id
	fields     []field
}

// field is one exported field: its offset, its kind (Array, Slice or the
// scalar's), the size of its scalar (of an element, for an array or a
// slice), how gob codes the scalar (see codes) and an array's length.
type field struct {
	off, size uintptr
	kind      reflect.Kind
	code      byte
	n         int
}

// codes says, by reflect.Kind up to Float64, how gob writes a scalar as
// one uint: 'u' as it is (a bool as 0 or 1), 'i' zig-zagged, 'f' as its
// float64 bits byte-reversed; '-' is not a scalar.
const codes = "-uiiiiiuuuuu-ff"

var plans sync.Map // reflect.Type -> *plan

func planFor(state any) *plan {
	t := reflect.TypeOf(state)
	if p, ok := plans.Load(t); ok {
		return p.(*plan)
	}
	p, _ := plans.LoadOrStore(t, compile(t, state))
	return p.(*plan)
}

var marshalers = []reflect.Type{reflect.TypeFor[gob.GobEncoder](), reflect.TypeFor[encoding.BinaryMarshaler](), reflect.TypeFor[encoding.TextMarshaler]()}

// marshals reports whether gob would hand a value of type t to a marshaler.
func marshals(t reflect.Type) bool {
	return slices.ContainsFunc(marshalers, func(m reflect.Type) bool { return t.Implements(m) || reflect.PointerTo(t).Implements(m) })
}

// compile builds the plan of type t, of which state is a value.
func compile(t reflect.Type, state any) *plan {
	fresh := &plan{fresh: true}
	if t == nil || t.Kind() != reflect.Pointer || t.Elem().Kind() != reflect.Struct || marshals(t.Elem()) {
		return fresh
	}
	p := &plan{}
	for i := range t.Elem().NumField() {
		f := t.Elem().Field(i)
		if !f.IsExported() {
			continue
		}
		ft, n := f.Type, 0
		if ft.Kind() == reflect.Array {
			n = ft.Len()
		}
		if k := ft.Kind(); (k == reflect.Array || k == reflect.Slice && ft.Elem().Kind() != reflect.Uint8) && !marshals(ft) {
			ft = ft.Elem() // a byte slice is gob's own
		}
		if ft.Kind() > reflect.Float64 || codes[ft.Kind()] == '-' || marshals(ft) {
			return fresh
		}
		p.fields = append(p.fields, field{f.Offset, ft.Size(), f.Type.Kind(), codes[ft.Kind()], n})
	}
	v := reflect.ValueOf(state)
	if v.IsNil() {
		v = reflect.New(t.Elem())
	}
	var b bytes.Buffer
	if gob.NewEncoder(&b).EncodeValue(v) != nil {
		return fresh
	}
	blob, last := b.Bytes(), 0
	for at := 0; at < len(blob); { // the value message is the last one
		n, w := readUint(blob[at:])
		last, at = at, at+w+int(n)
	}
	_, w := readUint(blob[last:])
	msg, body := blob[last+w:], p.appendBody(nil, v.UnsafePointer())
	p.prefix, p.id = blob[:last], msg[:max(len(msg)-len(body), 0)]
	if !bytes.Equal(p.append(nil, v.UnsafePointer()), blob) {
		return fresh
	}
	return p
}

// append appends the blob of the struct at s, growing dst at most once.
func (p *plan) append(dst []byte, s unsafe.Pointer) []byte {
	n := len(p.prefix) + len(p.id) + 10 + 18*len(p.fields) // a uint takes 9 bytes at most
	for _, f := range p.fields {
		if f.kind == reflect.Slice {
			f.n = len(*(*[]byte)(unsafe.Add(s, f.off)))
		}
		n += 9 * f.n
	}
	if cap(dst)-len(dst) < n {
		dst = append(make([]byte, 0, len(dst)+n), dst...)
	}
	dst = append(dst, p.prefix...)
	at := len(dst)
	dst = p.appendBody(append(append(dst, 0), p.id...), s) // a 1-byte length for now
	var lb [9]byte
	l := appendUint(lb[:0], uint64(len(dst)-at-1))
	dst[at] = l[0]
	return slices.Insert(dst, at+1, l[1:]...)
}

// appendBody appends the fields of the struct at s and the terminator. An
// array or a slice is its length and every element, zeros included.
func (p *plan) appendBody(dst []byte, s unsafe.Pointer) []byte {
	last := -1
	for i, f := range p.fields {
		at, n := unsafe.Add(s, f.off), f.n
		switch f.kind {
		case reflect.Array: // n is its length
		case reflect.Slice:
			sl := *(*[]byte)(at) // a slice header: len counts elements
			if at, n = unsafe.Pointer(unsafe.SliceData(sl)), len(sl); n == 0 {
				continue
			}
		default:
			x, zero := f.word(at)
			if !zero {
				dst = appendUint(appendUint(dst, uint64(i-last)), x)
				last = i
			}
			continue
		}
		dst = appendUint(appendUint(dst, uint64(i-last)), uint64(n))
		for j := range uintptr(n) {
			x, _ := f.word(unsafe.Add(at, j*f.size))
			dst = appendUint(dst, x)
		}
		last = i
	}
	return append(dst, 0)
}

// word returns gob's uint for the scalar f describes at p, and whether the
// scalar is zero (gob leaves a zero field out; -0.0 is zero).
func (f *field) word(p unsafe.Pointer) (uint64, bool) {
	var u uint64
	switch f.size {
	case 1:
		u = uint64(*(*uint8)(p))
	case 2:
		u = uint64(*(*uint16)(p))
	case 4:
		u = uint64(*(*uint32)(p))
	default:
		u = *(*uint64)(p)
	}
	switch f.code {
	case 'f':
		x := math.Float64frombits(u)
		if f.size == 4 {
			x = float64(math.Float32frombits(uint32(u)))
		}
		return bits.ReverseBytes64(math.Float64bits(x)), x == 0
	case 'i':
		sh := 64 - 8*f.size
		i := int64(u<<sh) >> sh
		u = uint64(i<<1) ^ uint64(i>>63)
	}
	return u, u == 0
}

// appendUint appends gob's coding of x: one byte up to 0x7F, otherwise the
// negated byte count and the big-endian bytes.
func appendUint(dst []byte, x uint64) []byte {
	if x <= 0x7F {
		return append(dst, byte(x))
	}
	n := bits.LeadingZeros64(x) / 8 // 8 - the byte count
	dst = binary.BigEndian.AppendUint64(append(dst, byte(n-8)), x<<(8*n))
	return dst[:len(dst)-n]
}

// readUint reads a uint gob wrote, returning it and its width.
func readUint(b []byte) (x uint64, w int) {
	if b[0] <= 0x7F {
		return uint64(b[0]), 1
	}
	w = 1 - int(int8(b[0]))
	for _, c := range b[1:w] {
		x = x<<8 | uint64(c)
	}
	return x, w
}

// AppendEncode appends the checkpoint blob of an application state value
// (typically a pointer to a struct) to dst: what gob.NewEncoder(&b).Encode
// would write to a new b at this moment in this process. A flat state
// costs no allocation once dst has room for its blob.
func AppendEncode(dst []byte, state any) ([]byte, error) {
	if p := planFor(state); !p.fresh && !reflect.ValueOf(state).IsNil() {
		return p.append(dst, reflect.ValueOf(state).UnsafePointer()), nil
	}
	b := bytes.NewBuffer(dst)
	if err := gob.NewEncoder(b).Encode(state); err != nil {
		return dst, fmt.Errorf("checkpoint: encode: %w", err)
	}
	return b.Bytes(), nil
}

// Encode returns the checkpoint blob of state (see AppendEncode) in a new
// slice, a flat state's one allocation.
func Encode(state any) ([]byte, error) { return AppendEncode(nil, state) }

// Decode restores an application state value encoded by Encode. The
// destination is zeroed first: gob omits zero-valued fields at encode and
// leaves them untouched at decode, so decoding into a struct that was
// pre-initialized with sentinels would silently resurrect the sentinels
// for every field that happened to be zero when the checkpoint was taken.
func Decode(blob []byte, into any) error {
	if v := reflect.ValueOf(into); v.Kind() == reflect.Pointer && !v.IsNil() {
		v.Elem().SetZero()
	}
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(into); err != nil {
		return fmt.Errorf("checkpoint: decode: %w", err)
	}
	return nil
}

// Store holds checkpoints for threads backed up on this node. Each thread
// has two alternating slots; Latest always returns the newest complete one.
type Store struct {
	slots map[int]*threadSlots
}

type threadSlots struct {
	snaps [2]Snapshot
	valid [2]bool
	next  int // slot the next Put writes
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{slots: make(map[int]*threadSlots)} }

// Put saves a snapshot for thread tid into the alternate slot. Writes with
// a Seq not newer than the newest stored snapshot are ignored (a stale
// checkpoint arriving late must never regress the store). The blob is
// copied into storage the slot owns, since the sender reuses its buffer
// once the deposit has landed; the slot reuses that storage when it is
// written again, two Puts later, so a blob read from the store is valid
// until then.
func (s *Store) Put(tid int, snap Snapshot) {
	ts := s.slots[tid]
	if ts == nil {
		ts = &threadSlots{}
		s.slots[tid] = ts
	}
	if cur, ok := s.Latest(tid); ok && snap.Seq <= cur.Seq {
		return
	}
	snap.Blob = append(ts.snaps[ts.next].Blob[:0], snap.Blob...)
	ts.snaps[ts.next] = snap
	ts.valid[ts.next] = true
	ts.next = 1 - ts.next
}

// Latest returns the newest complete snapshot for thread tid.
func (s *Store) Latest(tid int) (Snapshot, bool) {
	return s.LatestValid(tid, func(Snapshot) bool { return true })
}

// LatestValid returns the newest stored snapshot satisfying ok. Recovery
// uses it to skip a snapshot tied to an interval that rolled back: a
// point-A sibling snapshot taken at a release whose timestamp was never
// saved pairs with state the roll-back erased, so the previous buffered
// snapshot (or none) is the consistent one.
func (s *Store) LatestValid(tid int, ok func(Snapshot) bool) (Snapshot, bool) {
	ts := s.slots[tid]
	if ts == nil {
		return Snapshot{}, false
	}
	best := -1
	for i := 0; i < 2; i++ {
		if ts.valid[i] && ok(ts.snaps[i]) && (best < 0 || ts.snaps[i].Seq > ts.snaps[best].Seq) {
			best = i
		}
	}
	if best < 0 {
		return Snapshot{}, false
	}
	return ts.snaps[best], true
}
