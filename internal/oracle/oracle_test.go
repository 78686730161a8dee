package oracle

import (
	"strings"
	"testing"

	"ftsvm/internal/mem"
	"ftsvm/internal/proto"
)

// wdiff builds a diff writing val at byte offset off of page p.
func wdiff(p, off int, val byte) *mem.Diff {
	return &mem.Diff{Page: p, Runs: []mem.Run{{Off: off, Data: []byte{val}}}}
}

// rec builds a commit record for node n's interval itv with the given
// foreign vector entries (own entry is forced to itv, as at commit).
func rec(n int, itv int32, vt proto.VectorTime, diffs ...*mem.Diff) Record {
	v := vt.Clone()
	v[n] = itv
	return Record{Node: n, Interval: itv, VT: v, Diffs: diffs}
}

// TestReplayTable exercises the replay edge cases that the protocol's
// failure paths actually produce: empty intervals, duplicated records
// (an interval replayed twice during roll-forward), out-of-order commit
// logs, rolled-back tails, and genuinely broken (gapped) logs.
func TestReplayTable(t *testing.T) {
	const nodes, pages, psz = 3, 2, 16
	cases := []struct {
		name    string
		recs    []Record
		upTo    proto.VectorTime
		wantErr string           // substring of the Replay error, "" for success
		want    map[int][]int    // page -> offsets expected non-zero
		wantVal map[[2]int]byte  // {page,off} -> expected byte
		applied proto.VectorTime // expected frontier after replay
	}{
		{
			name: "empty interval advances the frontier",
			recs: []Record{
				rec(0, 1, proto.VectorTime{0, 0, 0}), // no diffs at all
				rec(0, 2, proto.VectorTime{0, 0, 0}, wdiff(0, 0, 7)),
			},
			wantVal: map[[2]int]byte{{0, 0}: 7},
			applied: proto.VectorTime{2, 0, 0},
		},
		{
			name: "interval replayed twice is applied once",
			recs: []Record{
				rec(1, 1, proto.VectorTime{0, 0, 0}, wdiff(0, 4, 9)),
				rec(1, 1, proto.VectorTime{0, 0, 0}, wdiff(0, 4, 9)), // roll-forward duplicate
				rec(1, 2, proto.VectorTime{0, 0, 0}, wdiff(0, 5, 3)),
			},
			wantVal: map[[2]int]byte{{0, 4}: 9, {0, 5}: 3},
			applied: proto.VectorTime{0, 2, 0},
		},
		{
			name: "out-of-order commit records sort causally",
			recs: []Record{
				// Node 1's interval 1 observed node 0's intervals 1..2, yet
				// arrives first in the slice; replay must defer it.
				rec(1, 1, proto.VectorTime{2, 0, 0}, wdiff(1, 0, 5)),
				rec(0, 2, proto.VectorTime{0, 0, 0}, wdiff(0, 8, 2)),
				rec(0, 1, proto.VectorTime{0, 0, 0}, wdiff(0, 8, 1)),
			},
			// Causal order forces n0#1 then n0#2 onto page 0 byte 8.
			wantVal: map[[2]int]byte{{0, 8}: 2, {1, 0}: 5},
			applied: proto.VectorTime{2, 1, 0},
		},
		{
			name: "rolled-back tail beyond upTo is skipped",
			recs: []Record{
				rec(2, 1, proto.VectorTime{0, 0, 0}, wdiff(1, 2, 4)),
				rec(2, 2, proto.VectorTime{0, 0, 0}, wdiff(1, 2, 8)), // rolled back
			},
			upTo:    proto.VectorTime{0, 0, 1},
			wantVal: map[[2]int]byte{{1, 2}: 4},
			applied: proto.VectorTime{0, 0, 1},
		},
		{
			name: "causal gap is an error",
			recs: []Record{
				rec(0, 2, proto.VectorTime{0, 0, 0}, wdiff(0, 0, 1)), // interval 1 missing
			},
			wantErr: "stuck",
		},
		{
			name: "foreign dependency never satisfied is an error",
			recs: []Record{
				rec(0, 1, proto.VectorTime{0, 5, 0}, wdiff(0, 0, 1)),
			},
			wantErr: "stuck",
		},
		{
			name:    "record naming an unknown node is an error",
			recs:    []Record{{Node: 7, Interval: 1, VT: proto.VectorTime{0, 0, 0}}},
			wantErr: "outside",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStore(pages, psz, nodes)
			err := s.Replay(tc.recs, tc.upTo)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Replay error = %v, want containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("Replay: %v", err)
			}
			if tc.applied != nil && !s.Applied().Equal(tc.applied) {
				t.Fatalf("applied frontier = %v, want %v", s.Applied(), tc.applied)
			}
			for k, v := range tc.wantVal {
				if got := s.Page(k[0])[k[1]]; got != v {
					t.Fatalf("page %d byte %d = %#02x, want %#02x", k[0], k[1], got, v)
				}
			}
		})
	}
}

// TestReplayIdempotentAcrossCalls replays the same log twice into one
// store — the whole log is a duplicate the second time — and checks the
// store is unchanged: the oracle's own roll-forward idempotence.
func TestReplayIdempotentAcrossCalls(t *testing.T) {
	s := NewStore(1, 8, 2)
	recs := []Record{
		rec(0, 1, proto.VectorTime{0, 0}, wdiff(0, 0, 11)),
		rec(1, 1, proto.VectorTime{1, 0}, wdiff(0, 1, 22)),
	}
	for pass := 0; pass < 2; pass++ {
		if err := s.Replay(recs, nil); err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
	}
	if got := s.Page(0)[0]; got != 11 {
		t.Fatalf("byte 0 = %d, want 11", got)
	}
	if got := s.Page(0)[1]; got != 22 {
		t.Fatalf("byte 1 = %d, want 22", got)
	}
	if !s.Applied().Equal(proto.VectorTime{1, 1}) {
		t.Fatalf("applied = %v, want [1 1]", s.Applied())
	}
}

// TestCheckReportsDivergence covers the final comparison: matching
// frames pass, short/nil frames compare as zeros, and a flipped byte is
// reported with its page.
func TestCheckReportsDivergence(t *testing.T) {
	s := NewStore(2, 8, 1)
	if err := s.Replay([]Record{rec(0, 1, proto.VectorTime{0}, wdiff(1, 3, 5))}, nil); err != nil {
		t.Fatal(err)
	}
	good := func(p int) []byte {
		if p == 1 {
			return []byte{0, 0, 0, 5, 0, 0, 0, 0}
		}
		return nil // never-touched page: nil frame reads as zeros
	}
	if err := s.Check(good); err != nil {
		t.Fatalf("Check(good): %v", err)
	}
	bad := func(p int) []byte { return make([]byte, 8) }
	err := s.Check(bad)
	if err == nil || !strings.Contains(err.Error(), "page 1") {
		t.Fatalf("Check(bad) = %v, want page 1 divergence", err)
	}
}

// TestLogCommitClones verifies the sink snapshot semantics: mutating
// the caller's vector time and diff after Commit must not alter the
// recorded log.
func TestLogCommitClones(t *testing.T) {
	var l Log
	vt := proto.VectorTime{1, 0}
	d := wdiff(0, 0, 9)
	l.Commit(0, 1, vt, []*mem.Diff{d})
	vt[1] = 99
	d.Runs[0].Data[0] = 99
	r := l.Records[0]
	if r.VT[1] != 0 {
		t.Fatalf("logged VT mutated: %v", r.VT)
	}
	if r.Diffs[0].Runs[0].Data[0] != 9 {
		t.Fatalf("logged diff mutated: %v", r.Diffs[0].Runs[0].Data)
	}
}

// TestCheckNilFramesInPlace: nil frames on either side — a page nobody
// wrote, a dead primary with no live replica — compare as zeros without
// allocating, and a divergence from a nil frame names the same page and
// byte, with the same values, as a zero-filled copy of it would.
func TestCheckNilFramesInPlace(t *testing.T) {
	s := NewStore(3, 8, 1)
	if err := s.Replay([]Record{rec(0, 1, proto.VectorTime{0}, wdiff(1, 3, 5))}, nil); err != nil {
		t.Fatal(err)
	}
	written := []byte{0, 0, 0, 5, 0, 0, 0, 0}
	zero := make([]byte, 8)
	match := func(p int) []byte {
		switch p {
		case 1:
			return written
		case 2:
			return zero // allocated but never written, against a never-applied reference
		}
		return nil // nil against a never-applied reference
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := s.Check(match); err != nil {
			t.Fatalf("Check: %v", err)
		}
	}); allocs != 0 {
		t.Fatalf("Check of matching frames allocates %.0f objects, want 0", allocs)
	}

	const want = "oracle: page 1 diverges from the reference at byte 3: committed 0x00, reference 0x05 (applied frontier [1])"
	for name, frame := range map[string][]byte{"nil": nil, "short": {0, 0}, "zeros": zero} {
		err := s.Check(func(p int) []byte {
			if p == 1 {
				return frame
			}
			return nil
		})
		if err == nil || err.Error() != want {
			t.Errorf("%s frame: Check = %v, want %q", name, err, want)
		}
	}
	stray := []byte{0, 0, 0, 0, 0, 0, 9, 0}
	err := s.Check(func(p int) []byte {
		if p == 1 {
			return written
		}
		return stray
	})
	const wantStray = "oracle: page 0 diverges from the reference at byte 6: committed 0x09, reference 0x00 (applied frontier [1])"
	if err == nil || err.Error() != wantStray {
		t.Errorf("write to a never-applied page: Check = %v, want %q", err, wantStray)
	}
}

// TestLogCommitSlabs: committed records keep their own diffs and vectors
// across slab refills — a record carved before a slab was replaced still
// reads its own bytes — and NewStore allocates no page up front.
func TestLogCommitSlabs(t *testing.T) {
	var l Log
	const commits = 300
	vt := proto.VectorTime{0, 0, 0}
	for i := 1; i <= commits; i++ {
		vt[0] = int32(i)
		l.Commit(0, int32(i), vt, []*mem.Diff{wdiff(i%5, i%8, byte(i)), wdiff(5+i%3, 0, byte(i+1))})
	}
	for i, r := range l.Records {
		itv := int32(i + 1)
		if r.Interval != itv || r.VT[0] != itv || len(r.Diffs) != 2 ||
			r.Diffs[0].Page != int(itv)%5 || r.Diffs[0].Runs[0].Off != int(itv)%8 || r.Diffs[0].Runs[0].Data[0] != byte(itv) ||
			r.Diffs[1].Page != 5+int(itv)%3 || r.Diffs[1].Runs[0].Data[0] != byte(itv+1) {
			t.Fatalf("record %d = %+v (diffs %+v %+v), want interval %d's own", i, r, *r.Diffs[0], *r.Diffs[1], itv)
		}
	}
	s := NewStore(8, 16, 3)
	for p := range 8 {
		if s.Page(p) != nil {
			t.Fatalf("page %d allocated before any diff", p)
		}
	}
	if err := s.Replay(l.Records, nil); err != nil {
		t.Fatal(err)
	}
	last := commits // the last commit wrote both locations last
	if got := s.Page(last % 5)[last%8]; got != byte(last) {
		t.Errorf("last commit's first diff: byte %d, want %d", got, byte(last))
	}
	if got := s.Page(5 + last%3)[0]; got != byte(last+1) {
		t.Errorf("last commit's second diff: byte %d, want %d", got, byte(last+1))
	}
}
