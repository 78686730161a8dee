package proto

import (
	"fmt"
	"math/rand"
	"testing"
)

// deltaChangedRef is the element loop deltaChanged must agree with.
func deltaChangedRef(prev, cur VectorTime) int {
	c := 0
	for i, x := range cur {
		if prev[i] != x {
			c++
		}
	}
	return c
}

// TestDeltaChangedMatchesElementLoop checks the block count against the
// element loop at every length from 0 to 1030 (so every remainder modulo
// 8, and blocks with a change in any lane) and at change densities from
// none to every entry.
func TestDeltaChangedMatchesElementLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 1030; n++ {
		for _, pct := range []int{0, 1, 8, 50, 100} {
			prev := make(VectorTime, n)
			for i := range prev {
				prev[i] = rng.Int31()
			}
			cur := prev.Clone()
			for i := range cur {
				if rng.Intn(100) < pct {
					// Flip a bit in either half: a change confined to the
					// sign bit or to the low bits must both count.
					cur[i] ^= 1 << rng.Intn(32)
				}
			}
			if got, want := deltaChanged(prev, cur), deltaChangedRef(prev, cur); got != want {
				t.Fatalf("n=%d density %d%%: deltaChanged = %d, element loop %d", n, pct, got, want)
			}
		}
	}
}

func BenchmarkDeltaChanged(b *testing.B) {
	for _, changed := range []int{8, 512} {
		b.Run(fmt.Sprintf("512/changed=%d", changed), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			prev := make(VectorTime, 512)
			for i := range prev {
				prev[i] = int32(rng.Intn(1000))
			}
			cur := prev.Clone()
			for _, i := range rng.Perm(len(cur))[:changed] {
				cur[i]++
			}
			for b.Loop() {
				deltaChanged(prev, cur)
			}
		})
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	cases := []struct {
		name      string
		prev, cur VectorTime
		wantBytes int
	}{
		{"identical", VectorTime{1, 2, 3}, VectorTime{1, 2, 3}, 5},
		{"one change", VectorTime{1, 2, 3, 4, 5, 6}, VectorTime{1, 2, 9, 4, 5, 6}, 5 + 8},
		{"dense falls back to full", VectorTime{0, 0, 0}, VectorTime{1, 2, 3}, 5 + 4*3},
		{"zero baseline sparse", make(VectorTime, 64), func() VectorTime {
			v := make(VectorTime, 64)
			v[7] = 3
			v[40] = 1
			return v
		}(), 5 + 8*2},
		{"empty", VectorTime{}, VectorTime{}, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := AppendDelta(nil, tc.prev, tc.cur)
			if got := DeltaWireBytes(tc.prev, tc.cur); got != len(buf) {
				t.Fatalf("DeltaWireBytes = %d, encoded %d bytes", got, len(buf))
			}
			if tc.wantBytes != len(buf) {
				t.Fatalf("encoded %d bytes, want %d", len(buf), tc.wantBytes)
			}
			dec, rest, err := DecodeDelta(tc.prev, buf)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if len(rest) != 0 {
				t.Fatalf("%d trailing bytes", len(rest))
			}
			if !dec.Equal(tc.cur) || !tc.cur.Equal(dec) {
				t.Fatalf("round trip: got %v, want %v", dec, tc.cur)
			}
		})
	}
}

func TestDeltaNeverBeatenByFullPlusTag(t *testing.T) {
	prev := make(VectorTime, 256)
	cur := make(VectorTime, 256)
	for i := range cur {
		cur[i] = int32(i + 1) // every entry changed
	}
	if got, max := DeltaWireBytes(prev, cur), 5+4*256; got != max {
		t.Fatalf("dense delta = %d bytes, want full fallback %d", got, max)
	}
}

func TestDecodeDeltaRejectsGarbage(t *testing.T) {
	prev := VectorTime{1, 2}
	for _, data := range [][]byte{
		nil,
		{0x00},
		{0x02, 0, 0, 0, 0}, // unknown tag
		{0x00, 9, 0, 0, 0}, // full length mismatch
		{0x01, 1, 0, 0, 0}, // sparse truncated
		{0x01, 1, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0}, // index out of range
	} {
		if _, _, err := DecodeDelta(prev, data); err == nil {
			t.Fatalf("decode of %v succeeded", data)
		}
	}
}

// FuzzVectorTimeCodec holds the two delta-codec contracts: decode(encode)
// is the identity for any (prev, cur) pair of equal length, and the
// modeled wire cost (DeltaWireBytes) equals the real encoded length.
func FuzzVectorTimeCodec(f *testing.F) {
	f.Add(4, []byte{0, 0, 0, 0}, []byte{1, 0, 2, 0})
	f.Add(1, []byte{9}, []byte{9})
	f.Add(8, []byte{}, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, n int, prevRaw, curRaw []byte) {
		if n <= 0 || n > 1024 {
			return
		}
		prev, cur := make(VectorTime, n), make(VectorTime, n)
		for i := 0; i < n; i++ {
			if i < len(prevRaw) {
				prev[i] = int32(prevRaw[i]) << (i % 20)
			}
			if i < len(curRaw) {
				cur[i] = int32(curRaw[i]) << (i % 24)
			}
		}
		buf := AppendDelta(nil, prev, cur)
		if got := DeltaWireBytes(prev, cur); got != len(buf) {
			t.Fatalf("DeltaWireBytes = %d, encoded %d", got, len(buf))
		}
		dec, rest, err := DecodeDelta(prev, buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(rest) != 0 {
			t.Fatalf("%d trailing bytes", len(rest))
		}
		if !dec.Equal(cur) || !cur.Equal(dec) {
			t.Fatalf("round trip: got %v, want %v", dec, cur)
		}
	})
}
