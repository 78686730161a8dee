package svm

import (
	"slices"
	"testing"

	"ftsvm/internal/model"
	"ftsvm/internal/proto"
)

// TestVecAppendKeepsNeighbour: a vector carved from a node's arena is
// capped at its length, so appending to it copies it and never writes the
// vector carved after it, inside the build's chunk or a later one.
func TestVecAppendKeepsNeighbour(t *testing.T) {
	cfg := model.Default()
	cfg.Nodes = 4
	cl, err := New(Options{Config: cfg, Mode: ModeFT, Pages: 8, Locks: 2, Body: counterBody(1)})
	if err != nil {
		t.Fatal(err)
	}
	n := cl.nodes[0]
	w := cl.cfg.Nodes
	// The build carves node 0's page versions from its first chunk in page
	// order, so the first two are neighbours.
	var built []proto.VectorTime
	for p := 0; p < 8; p++ {
		pg := n.pt.page(p)
		for _, v := range []proto.VectorTime{pg.commitVer, pg.tentVer} {
			if v != nil {
				built = append(built, v)
			}
		}
	}
	if len(built) < 2 {
		t.Fatal("node 0 homes fewer than two page replicas")
	}
	for _, pair := range [][2]proto.VectorTime{{built[0], built[1]}, {n.newVec(), n.newVec()}} {
		a, b := pair[0], pair[1]
		if len(a) != w || cap(a) != w {
			t.Fatalf("a carved vector has length %d and capacity %d, want %d and %d", len(a), cap(a), w, w)
		}
		for i := range b {
			b[i] = 7
		}
		was := slices.Clone(b)
		grown := append(a, 99)
		if !slices.Equal(b, was) {
			t.Fatalf("appending to a vector wrote its neighbour: %v, was %v", b, was)
		}
		if &grown[0] == &a[0] {
			t.Fatal("appending to a full vector did not copy it")
		}
	}
}

// TestVecArenaChunks: a build carves the home-side versions from one
// chunk per node sized to them exactly, so a short-lived cluster leaves no
// unused slot behind. Each later chunk holds twice as many vectors as the
// one before, at least 4 and at most 512 elements' worth: from 512 nodes
// up each vector is its own chunk.
func TestVecArenaChunks(t *testing.T) {
	for _, mode := range []Mode{ModeFT, ModeBase} {
		cfg := model.Default()
		cfg.Nodes = 4
		cl, err := New(Options{Config: cfg, Mode: mode, Pages: 8, Locks: 2, Body: counterBody(1)})
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range cl.nodes {
			homed := 0
			for p := 0; p < 8; p++ {
				pg := n.pt.page(p)
				for _, v := range []proto.VectorTime{pg.baseVer, pg.commitVer, pg.tentVer} {
					if v != nil {
						homed++
					}
				}
			}
			for _, lh := range n.lockHomesState {
				if lh != nil {
					homed++
				}
			}
			if a := cl.vecs[i]; len(a.free) != 0 || a.chunk != homed {
				t.Errorf("mode %v: after the build node %d's arena holds %d unused elements of a %d-vector chunk, want none of %d",
					mode, i, len(a.free), a.chunk, homed)
			}
		}
	}
	for _, tc := range []struct {
		nodes, first int
		want         []int // vectors per later chunk, in order
	}{
		{4, 0, []int{4, 8, 16, 32, 64, 128, 128}},
		{4, 3, []int{6, 12}},
		{4, 100, []int{128, 128}},
		{100, 0, []int{4, 5, 5}},
		{512, 0, []int{1, 1}},
		{600, 2, []int{1, 1}},
	} {
		cl := &Cluster{cfg: &model.Config{Nodes: tc.nodes}, vecs: []vecArena{{chunk: tc.first}}}
		n := &node{cl: cl}
		var got []int
		for _, want := range tc.want {
			n.newVec()
			got = append(got, cl.vecs[0].chunk)
			for range want - 1 {
				n.newVec()
			}
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%d nodes after a %d-vector chunk: chunks of %v vectors, want %v", tc.nodes, tc.first, got, tc.want)
		}
	}
}
