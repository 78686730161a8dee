package checkpoint

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

// refEncode is the contract Encode is held to: what a new gob.Encoder
// writes for v at this moment in this process.
func refEncode(v any) ([]byte, error) {
	var b bytes.Buffer
	err := gob.NewEncoder(&b).Encode(v)
	return b.Bytes(), err
}

// The state shapes of the differential table. flatState is the shape of
// every real state type in the repository, and vecState adds the arrays
// and slices the compiled writer also takes; every other shape takes a new
// encoder per call.
type (
	flatState struct {
		Phase, I, J int
		Arrived     bool
		Sum         float64
	}
	vecState struct {
		Phase   int8
		Partial []float64
		Grid    [4]int32
		Flags   []bool
		Hist    [3]uint16
		Small   []float32
	}
	seqState struct {
		Partial []float64
		Grid    [4]int32
		Rows    [][]uint8
		Name    string
	}
	inner struct {
		A int
		B uint16
	}
	nestedState struct {
		Phase int
		In    inner
	}
	ptrState struct {
		Phase int
		P     *int
		Q     *inner
	}
	// sharesA and sharesB (and nestedState) carry the same nested type, so
	// each one's descriptor prefix repeats a descriptor another type's
	// encoder has already sent.
	sharesA struct {
		In inner
		X  int
	}
	sharesB struct {
		Y  bool
		In []inner
	}
	recState struct {
		V    int
		Next *recState
	}
)

var shapes = []reflect.Type{
	reflect.TypeFor[flatState](),
	reflect.TypeFor[vecState](),
	reflect.TypeFor[seqState](),
	reflect.TypeFor[nestedState](),
	reflect.TypeFor[ptrState](),
	reflect.TypeFor[sharesA](),
	reflect.TypeFor[sharesB](),
	reflect.TypeFor[recState](),
}

// randomState returns a pointer to a testing/quick value of type t, the
// form in which applications hand their state to Encode.
func randomState(t reflect.Type, rng *rand.Rand) any {
	v, ok := quick.Value(t, rng)
	if !ok {
		panic("testing/quick cannot generate " + t.String())
	}
	p := reflect.New(t)
	p.Elem().Set(v)
	return p.Interface()
}

// checkEncode holds one Encode call to the contract and to the reference
// decoder: the blob equals a new encoder's, and Decode into a struct full
// of other values yields what a new decoder yields into a zero one. It
// reports with Errorf so that it may run off the test goroutine.
func checkEncode(t *testing.T, state, sentinel any) {
	t.Helper()
	want, err := refEncode(state)
	if err != nil {
		t.Errorf("%T: reference encode: %v", state, err)
		return
	}
	got, err := Encode(state)
	if err != nil {
		t.Errorf("%T: Encode: %v", state, err)
		return
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%T %+v: Encode wrote\n%x, a new encoder\n%x", state, state, got, want)
		return
	}
	ref := reflect.New(reflect.TypeOf(state).Elem()).Interface()
	if err := gob.NewDecoder(bytes.NewReader(want)).Decode(ref); err != nil {
		t.Errorf("%T: reference decode: %v", state, err)
		return
	}
	if err := Decode(got, sentinel); err != nil {
		t.Errorf("%T: Decode: %v", state, err)
		return
	}
	if !reflect.DeepEqual(sentinel, ref) {
		t.Errorf("%T: Decode gave %+v, a new decoder %+v", state, sentinel, ref)
	}
}

// checkShapes runs the table for rounds rounds with the types interleaved,
// so every type's encoder sees its 1st, 2nd and Nth call between calls for
// the others.
func checkShapes(t *testing.T, seed int64, rounds int) {
	rng := rand.New(rand.NewSource(seed))
	for range rounds {
		for _, typ := range shapes {
			checkEncode(t, randomState(typ, rng), randomState(typ, rng))
		}
	}
}

func TestEncodeMatchesNewEncoder(t *testing.T) {
	checkShapes(t, 1, 40)
}

// TestEncodeConcurrent is the RunGrid situation: cells on different
// goroutines encode the same types at once. Run under -race.
func TestEncodeConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			checkShapes(t, int64(g+2), 25)
		}()
	}
	wg.Wait()
}

type (
	boxA       struct{ N int }
	boxB       struct{ S string }
	ifaceState struct {
		Phase int
		V     any
	}
)

// TestEncodeInterfaceState changes the concrete type inside an interface
// field from call to call. gob describes that type inside the value, the
// first time an encoder meets it, so no writer that outlives one blob can
// write what a new encoder writes: such types get a new encoder per call.
func TestEncodeInterfaceState(t *testing.T) {
	gob.Register(boxA{})
	gob.Register(boxB{})
	for i, v := range []any{boxA{N: 7}, boxB{S: "x"}, nil, boxB{S: "y"}} {
		state := &ifaceState{Phase: i, V: v}
		got := &ifaceState{Phase: -1, V: boxA{N: -1}}
		checkEncode(t, state, got)
		if !reflect.DeepEqual(got, state) {
			t.Fatalf("call %d: decoded %+v, want %+v", i, got, state)
		}
	}
}

type chanState struct{ C chan int }

// flaky is a field whose encoding can fail after it has succeeded, which
// is the only way to make a live encoder return an error.
type flaky struct{ Fail bool }

func (f flaky) GobEncode() ([]byte, error) {
	if f.Fail {
		return nil, errors.New("flaky: told to fail")
	}
	return []byte{1}, nil
}

func (f *flaky) GobDecode([]byte) error { return nil }

type flakyState struct {
	N int
	F flaky
}

// TestEncodeErrorsLeaveNothingBehind: a type gob rejects errors on every
// call, a type whose encoding can fail errors only when it fails (both take
// a new encoder per call), and neither disturbs the blobs that follow.
func TestEncodeErrorsLeaveNothingBehind(t *testing.T) {
	if _, err := refEncode(&chanState{}); err == nil {
		t.Fatal("gob encodes a struct whose only field is a chan; the test needs another bad type")
	}
	for i := range 3 {
		if blob, err := Encode(&chanState{}); err == nil {
			t.Fatalf("call %d: Encode of a chan-only struct returned %x, want an error", i, blob)
		}
		checkEncode(t, &flatState{Phase: i, Sum: 2.5}, &flatState{Phase: -1, I: -1, Arrived: true})
	}
	for i := range 3 {
		checkEncode(t, &flakyState{N: i}, &flakyState{N: -1})
		if blob, err := Encode(&flakyState{N: i, F: flaky{Fail: true}}); err == nil {
			t.Fatalf("call %d: Encode returned %x for a field whose GobEncode failed", i, blob)
		}
	}
	checkEncode(t, &flakyState{N: 9}, &flakyState{N: -1})
}

// TestEncodeAllocBudget gates the steady-state cost of a checkpoint
// capture: AppendEncode into a buffer with room allocates nothing, and
// Encode only the blob it returns. (Encode made 2 while a long-lived gob
// encoder per type wrote each value message, and a new encoder per call
// makes 17 for this state.)
func TestEncodeAllocBudget(t *testing.T) {
	state := &flatState{Phase: 3, I: 17, J: 4, Arrived: true, Sum: 1.5}
	buf, err := AppendEncode(nil, state)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() { buf, _ = AppendEncode(buf[:0], state) }); got != 0 {
		t.Errorf("AppendEncode of a flat state into a buffer with room allocates %v objects per call, budget 0", got)
	}
	if got := testing.AllocsPerRun(200, func() { _, _ = Encode(state) }); got > 1 {
		t.Errorf("Encode of a flat state allocates %v objects per call, budget 1", got)
	}
}

// kinds has a field of every kind the compiled writer takes, as a scalar,
// an array and a slice, and unexported fields it must skip.
type kinds struct {
	B      bool
	I      int
	I8     int8
	I16    int16
	I32    int32
	I64    int64
	hidden string
	U      uint
	U8     uint8
	U16    uint16
	U32    uint32
	U64    uint64
	F32    float32
	F64    float64
	Bs     [3]bool
	Is     []int64
	Us     [2]uint32
	Fs     []float64
	F32s   []float32
	inner  []any
}

// FuzzCompiledMatchesGob holds the compiled writer to gob bit for bit over
// every scalar kind and its edge values: the extremes of each width, -0.0
// (which gob leaves out like 0), NaN and the infinities.
func FuzzCompiledMatchesGob(f *testing.F) {
	f.Add(false, int64(0), uint64(0), 0.0, float32(0), uint8(0))
	f.Add(true, int64(math.MinInt64), uint64(math.MaxUint64), math.Copysign(0, -1), float32(math.Copysign(0, -1)), uint8(1))
	f.Add(true, int64(math.MaxInt64), uint64(0x80), math.NaN(), float32(math.Inf(1)), uint8(2))
	f.Add(false, int64(-1), uint64(0x7F), math.Inf(-1), float32(math.NaN()), uint8(3))
	f.Add(true, int64(-64), uint64(1<<63), math.MaxFloat64, float32(math.SmallestNonzeroFloat32), uint8(7))
	if planFor(&kinds{}).fresh {
		f.Fatal("kinds takes a new encoder per call, not the compiled writer")
	}
	f.Fuzz(func(t *testing.T, b bool, i int64, u uint64, x float64, y float32, n uint8) {
		s := &kinds{
			B: b, I: int(i), I8: int8(i), I16: int16(i), I32: int32(i), I64: i, hidden: "x",
			U: uint(u), U8: uint8(u), U16: uint16(u), U32: uint32(u), U64: u, F32: y, F64: x,
			Bs: [3]bool{b, !b, false}, Us: [2]uint32{uint32(u >> 32), 0}, inner: []any{1},
		}
		for k := range int(n % 4) {
			s.Is = append(s.Is, i>>k)
			s.Fs = append(s.Fs, x*float64(k))
			s.F32s = append(s.F32s, y, 0)
		}
		want, err := refEncode(s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendEncode([]byte("head"), s)
		if err != nil {
			t.Fatal(err)
		}
		if string(got[:4]) != "head" || !bytes.Equal(got[4:], want) {
			t.Fatalf("%+v: AppendEncode wrote\n%x, a new encoder\n%x", s, got[4:], want)
		}
	})
}
