package explore

import (
	"hash"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ftsvm/internal/obs"
)

// refHashEvent is the fingerprint's event fold as it was written until the
// inline FNV-1a replaced it: 21 bytes through hash/fnv's New64a. Kept as the
// reference hashEvent must equal bit for bit — stored verdicts carry the
// value.
func refHashEvent(h hash.Hash64, e obs.Event) {
	var buf [21]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(e.TimeNs >> (8 * i))
		buf[8+i] = byte(e.Seq >> (8 * i))
	}
	for i := 0; i < 4; i++ {
		buf[16+i] = byte(e.Node >> (8 * i))
	}
	buf[20] = byte(e.Kind)
	h.Write(buf[:])
}

// TestFingerprintEqualsHashFNV: over random event streams followed by a
// page image, the inline fold equals hash/fnv's New64a.
func TestFingerprintEqualsHashFNV(t *testing.T) {
	type ev struct {
		TimeNs, Seq int64
		Node        int32
		Kind        uint8
	}
	same := func(stream []ev, image []byte) bool {
		ref := fnv.New64a()
		h := fnvOffset64
		for _, x := range stream {
			e := obs.Event{TimeNs: x.TimeNs, Seq: x.Seq, Node: x.Node, Kind: obs.Kind(x.Kind), Thread: int32(x.Seq)}
			refHashEvent(ref, e)
			h = hashEvent(h, e)
		}
		ref.Write(image)
		return hashBytes(h, image) == ref.Sum64()
	}
	if err := quick.Check(same, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if !same(nil, nil) {
		t.Fatal("empty stream: inline offset basis differs from hash/fnv's")
	}
}

// TestOccCounterEqualsMap: on a random (kind, node) stream the dense
// counter returns the ordinals the map it replaced returned, and an event
// outside the table panics instead of being counted somewhere else.
func TestOccCounterEqualsMap(t *testing.T) {
	const nodes = 6
	type key struct {
		kind obs.Kind
		node int32
	}
	ref := map[key]int64{}
	occ := newOccCounter(nodes)
	kinds := append([]obs.Kind{obs.KNone}, obs.Kinds()...)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		k := key{kinds[rng.Intn(len(kinds))], int32(rng.Intn(nodes))}
		ref[k]++
		if got := occ.next(k.kind, k.node); got != ref[k] {
			t.Fatalf("event %d (%s on node %d): ordinal %d, map says %d", i, k.kind, k.node, got, ref[k])
		}
	}
	last := kinds[len(kinds)-1]
	for _, k := range []key{{obs.KMsgSend, -1}, {obs.KMsgSend, nodes}, {last + 1, 0}, {last, nodes}} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(r.(string), "outside") {
					t.Fatalf("kind %d on node %d: recovered %v, want the out-of-table panic", k.kind, k.node, r)
				}
			}()
			occ.next(k.kind, k.node)
		}()
	}
}
