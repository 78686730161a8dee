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
	"encoding/gob"
	"fmt"
	"reflect"
	"slices"
	"sync"

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

// typeEncoder is the long-lived encoding state of one state type. A blob
// must be byte-for-byte what a new gob.Encoder would write for the value
// (its length is a modeled checkpoint cost), and a new encoder writes the
// type's descriptor messages, which are constant once gob has numbered the
// type, followed by one value message, which does not depend on what the
// encoder sent before. So one encoder per type lives on and writes value
// messages, and each blob is the cached descriptor bytes followed by what
// the encoder just wrote. An encoder is never shared between two types:
// its set of already-sent types is what makes the split valid.
type typeEncoder struct {
	// fresh marks a type the split is not valid for; see needsNewEncoder.
	fresh bool

	mu     sync.Mutex   // held for one encode, never across a run
	enc    *gob.Encoder // nil until the first encode, and again after an error
	buf    bytes.Buffer // enc's writer
	prefix []byte       // what a new encoder writes before the value message
}

var encoders sync.Map // reflect.Type -> *typeEncoder

func encoderFor(t reflect.Type) *typeEncoder {
	if te, ok := encoders.Load(t); ok {
		return te.(*typeEncoder)
	}
	te, _ := encoders.LoadOrStore(t, &typeEncoder{fresh: t == nil || needsNewEncoder(t, map[reflect.Type]bool{})})
	return te.(*typeEncoder)
}

// needsNewEncoder reports whether gob's output for a value of type t can
// depend on more than the value and the process-wide type numbering. An
// interface makes it: the concrete type inside is described the first
// time an encoder meets it, so a long-lived encoder would leave the
// description out of every later blob. So does a map: its entries are
// written in iteration order, so two encodes of one value need not agree
// and the descriptor prefix cannot be checked. seen makes the walk
// terminate on recursive types.
func needsNewEncoder(t reflect.Type, seen map[reflect.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	switch t.Kind() {
	case reflect.Interface, reflect.Map:
		return true
	case reflect.Pointer, reflect.Slice, reflect.Array:
		return needsNewEncoder(t.Elem(), seen)
	case reflect.Struct:
		for i := range t.NumField() {
			if needsNewEncoder(t.Field(i).Type, seen) {
				return true
			}
		}
	}
	return false
}

// Encode serializes an application state value (typically a pointer to a
// struct) for checkpointing. The result is what gob.NewEncoder(&b).Encode
// would write to a new b at this moment in this process.
func Encode(state any) ([]byte, error) {
	blob, err := encoderFor(reflect.TypeOf(state)).encode(state)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encode: %w", err)
	}
	return blob, nil
}

func (te *typeEncoder) encode(state any) ([]byte, error) {
	if te.fresh {
		var b bytes.Buffer
		err := gob.NewEncoder(&b).Encode(state)
		return b.Bytes(), err
	}
	te.mu.Lock()
	defer te.mu.Unlock()
	if te.enc == nil {
		return te.start(state)
	}
	te.buf.Reset()
	if err := te.enc.Encode(state); err != nil {
		te.enc = nil // its sent set and the stream no longer agree
		return nil, err
	}
	return slices.Concat(te.prefix, te.buf.Bytes()), nil
}

// start encodes state on a new encoder, whose output is the standalone
// blob, and keeps the encoder. It finds the descriptor prefix without
// knowing gob's framing: a second encode of the same value writes the
// value message alone, which must be how the first output ends.
func (te *typeEncoder) start(state any) ([]byte, error) {
	te.buf.Reset()
	enc := gob.NewEncoder(&te.buf)
	if err := enc.Encode(state); err != nil {
		return nil, err
	}
	blob := bytes.Clone(te.buf.Bytes())
	te.buf.Reset()
	if err := enc.Encode(state); err != nil {
		return nil, err
	}
	if !bytes.HasSuffix(blob, te.buf.Bytes()) {
		return nil, fmt.Errorf("gob stream of %T is not descriptors followed by a history-free value message", state)
	}
	te.prefix = bytes.Clone(blob[:len(blob)-te.buf.Len()])
	te.enc = enc
	return blob, nil
}

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
// checkpoint arriving late must never regress the store).
func (s *Store) Put(tid int, snap Snapshot) {
	ts := s.slots[tid]
	if ts == nil {
		ts = &threadSlots{}
		s.slots[tid] = ts
	}
	if cur, ok := s.latest(ts); ok && snap.Seq <= cur.Seq {
		return
	}
	ts.snaps[ts.next] = snap
	ts.valid[ts.next] = true
	ts.next = 1 - ts.next
}

// Latest returns the newest complete snapshot for thread tid.
func (s *Store) Latest(tid int) (Snapshot, bool) {
	ts := s.slots[tid]
	if ts == nil {
		return Snapshot{}, false
	}
	return s.latest(ts)
}

func (s *Store) latest(ts *threadSlots) (Snapshot, bool) {
	best := -1
	for i := 0; i < 2; i++ {
		if ts.valid[i] && (best < 0 || ts.snaps[i].Seq > ts.snaps[best].Seq) {
			best = i
		}
	}
	if best < 0 {
		return Snapshot{}, false
	}
	return ts.snaps[best], true
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
