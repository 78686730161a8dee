package checkpoint

import (
	"testing"
	"testing/quick"

	"ftsvm/internal/proto"
)

type demoState struct {
	Phase   int
	I, J    int
	Partial []float64
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := &demoState{Phase: 2, I: 17, J: 4, Partial: []float64{1.5, 2.5}}
	blob, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	var out demoState
	if err := Decode(blob, &out); err != nil {
		t.Fatal(err)
	}
	if out.Phase != 2 || out.I != 17 || out.J != 4 || len(out.Partial) != 2 || out.Partial[1] != 2.5 {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

func TestStoreLatest(t *testing.T) {
	s := NewStore()
	if _, ok := s.Latest(5); ok {
		t.Fatal("empty store returned a snapshot")
	}
	s.Put(5, Snapshot{Seq: 1, Blob: []byte("a")})
	s.Put(5, Snapshot{Seq: 2, Blob: []byte("b")})
	snap, ok := s.Latest(5)
	if !ok || snap.Seq != 2 || string(snap.Blob) != "b" {
		t.Fatalf("Latest = %+v, %v", snap, ok)
	}
}

func TestStoreDoubleBufferKeepsPrevious(t *testing.T) {
	// The slot being overwritten is always the *older* one: if a failure
	// interrupts the k-th checkpoint, checkpoint k-1 must still be intact.
	s := NewStore()
	s.Put(1, Snapshot{Seq: 1, Blob: []byte("one")})
	s.Put(1, Snapshot{Seq: 2, Blob: []byte("two")})
	// Simulate a torn third checkpoint: it would target the slot holding
	// seq 1, never the slot holding seq 2. Verify seq 2 survives a Put.
	s.Put(1, Snapshot{Seq: 3, Blob: []byte("three")})
	ts := s.slots[1]
	seqs := map[int64]bool{}
	for i := 0; i < 2; i++ {
		if ts.valid[i] {
			seqs[ts.snaps[i].Seq] = true
		}
	}
	if !seqs[3] || !seqs[2] {
		t.Fatalf("slots hold %v, want {2,3}", seqs)
	}
}

// TestStorePutCopiesBlob: a stored snapshot does not share the sender's
// buffer, which the sender reuses as soon as the deposit has landed, and
// a slot reuses its own storage when it is written again.
func TestStorePutCopiesBlob(t *testing.T) {
	s := NewStore()
	buf := []byte("one")
	s.Put(1, Snapshot{Seq: 1, Blob: buf})
	copy(buf, "xxx")
	s.Put(1, Snapshot{Seq: 2, Blob: []byte("two")})
	if snap, _ := s.LatestValid(1, func(s Snapshot) bool { return s.Seq == 1 }); string(snap.Blob) != "one" {
		t.Fatalf("slot 0 holds %q after the sender rewrote its buffer, want \"one\"", snap.Blob)
	}
	first := s.slots[1].snaps[0].Blob
	s.Put(1, Snapshot{Seq: 3, Blob: []byte("333")})
	if snap, _ := s.Latest(1); string(snap.Blob) != "333" || &snap.Blob[0] != &first[0] {
		t.Fatalf("the third Put stored %q in new storage, want \"333\" in slot 0's", snap.Blob)
	}
}

func TestStoreIgnoresStale(t *testing.T) {
	s := NewStore()
	s.Put(1, Snapshot{Seq: 5, Blob: []byte("new")})
	s.Put(1, Snapshot{Seq: 3, Blob: []byte("old")})
	snap, _ := s.Latest(1)
	if snap.Seq != 5 {
		t.Fatalf("stale Put regressed store to seq %d", snap.Seq)
	}
}

// Property: after any sequence of monotonically-sequenced Puts, Latest
// returns the highest Seq, and both slots hold the two highest distinct
// checkpoints once at least two were written.
func TestStoreProperty(t *testing.T) {
	f := func(n uint8) bool {
		s := NewStore()
		count := int(n%20) + 2
		for i := 1; i <= count; i++ {
			s.Put(9, Snapshot{Seq: int64(i), VT: proto.VectorTime{int32(i)}})
		}
		snap, ok := s.Latest(9)
		if !ok || snap.Seq != int64(count) {
			return false
		}
		ts := s.slots[9]
		have := map[int64]bool{}
		for i := 0; i < 2; i++ {
			if ts.valid[i] {
				have[ts.snaps[i].Seq] = true
			}
		}
		return have[int64(count)] && have[int64(count-1)]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeZeroesSentinels is the regression for the gob zero-field
// pitfall: a field that was zero at encode time must decode as zero even
// when the destination struct was pre-initialized with a sentinel.
func TestDecodeZeroesSentinels(t *testing.T) {
	type st struct {
		A int
		B int
	}
	blob, err := Encode(&st{A: 7, B: 0})
	if err != nil {
		t.Fatal(err)
	}
	dst := &st{A: -1, B: -1}
	if err := Decode(blob, dst); err != nil {
		t.Fatal(err)
	}
	if dst.A != 7 || dst.B != 0 {
		t.Fatalf("decoded %+v, want {7 0}", dst)
	}
}

// TestLatestValid exercises roll-decision-aware snapshot selection: the
// newest snapshot is skipped when the predicate rejects it, falling back
// to the older buffered one, and reports absence when both fail.
func TestLatestValid(t *testing.T) {
	st := NewStore()
	st.Put(7, Snapshot{Seq: 1, VT: []int32{0, 3}, Blob: []byte("a")})
	st.Put(7, Snapshot{Seq: 2, VT: []int32{0, 5}, Blob: []byte("b")})

	atMost := func(ts int32) func(Snapshot) bool {
		return func(s Snapshot) bool { return s.VT[1] <= ts }
	}
	if snap, ok := st.LatestValid(7, atMost(5)); !ok || snap.Seq != 2 {
		t.Fatalf("want newest snapshot, got %+v ok=%v", snap, ok)
	}
	if snap, ok := st.LatestValid(7, atMost(4)); !ok || snap.Seq != 1 {
		t.Fatalf("want fallback to older snapshot, got %+v ok=%v", snap, ok)
	}
	if _, ok := st.LatestValid(7, atMost(2)); ok {
		t.Fatal("want no valid snapshot")
	}
	if _, ok := st.LatestValid(8, atMost(99)); ok {
		t.Fatal("want no snapshot for unknown thread")
	}
}

type benchState struct {
	Phase   int
	Arrived bool
	Flush   int
	Scratch [32]float64
}

func newBenchState() *benchState {
	src := &benchState{Phase: 7, Arrived: true, Flush: 1234}
	for i := range src.Scratch {
		src.Scratch[i] = float64(i) * 1.5
	}
	return src
}

// BenchmarkEncode measures checkpoint capture, paid twice per release
// (points A and B) and so hundreds of thousands of times per run.
func BenchmarkEncode(b *testing.B) {
	src := newBenchState()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Encode(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecode measures checkpoint restore, paid once per recovered
// thread. A new decoder compiles its engine per call, so it costs two
// orders of magnitude more than Encode; kept apart so that it does not
// hide Encode's number.
func BenchmarkDecode(b *testing.B) {
	src := newBenchState()
	blob, err := Encode(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		var dst benchState
		if err := Decode(blob, &dst); err != nil {
			b.Fatal(err)
		}
		if dst.Flush != src.Flush {
			b.Fatal("round-trip mismatch")
		}
	}
}

// BenchmarkStorePut measures the double-buffered deposit path.
func BenchmarkStorePut(b *testing.B) {
	st := NewStore()
	blob := make([]byte, 2048)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st.Put(3, Snapshot{Seq: int64(i + 1), VT: []int32{1, 2, 3}, Blob: blob})
	}
	if _, ok := st.Latest(3); !ok {
		b.Fatal("no snapshot stored")
	}
}
