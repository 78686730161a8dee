package svm

import (
	"bytes"
	"testing"
)

// TestPeekMatchesFrame: both peeks read exactly the frames Frame returns
// in place, a nil frame as zeros — on a base cluster, and on an extended
// cluster whose homes of page 0 are then killed one by one: with the
// primary dead only the live peek moves, to the surviving replica's
// tentative copy, and with both dead the live frame is nil.
func TestPeekMatchesFrame(t *testing.T) {
	const nodes, pages, written = 4, 8, 6 // pages written..pages-1 stay zero
	body := func(th *Thread) {
		th.Setup(&counterState{})
		for p := th.ID(); p < written; p += nodes {
			for w := 0; w < 8; w++ {
				th.WriteU64(p*4096+512*w, uint64(1000*p+w+1))
			}
		}
		th.Barrier()
	}
	check := func(t *testing.T, cl *Cluster) {
		t.Helper()
		psz := cl.PageSize()
		zero := make([]byte, psz)
		for _, live := range []bool{false, true} {
			peek := cl.PeekBytes(0, pages*psz)
			if live {
				peek = cl.PeekLiveBytes(0, pages*psz)
			}
			for p := 0; p < pages; p++ {
				want := cl.Frame(p, live)
				if want == nil {
					want = zero
				}
				if !bytes.Equal(peek[p*psz:(p+1)*psz], want) {
					t.Errorf("live=%v page %d: peek differs from Frame", live, p)
				}
			}
		}
	}

	t.Run("base", func(t *testing.T) {
		cl := runCluster(t, ModeBase, nodes, 1, pages, 1, body)
		if cl.Frame(0, false) == nil {
			t.Fatal("base: written page 0 has no frame")
		}
		check(t, cl)
	})
	t.Run("extended", func(t *testing.T) {
		cl := runCluster(t, ModeFT, nodes, 1, pages, 1, body)
		check(t, cl)
		before := cl.Frame(0, false)
		if before == nil || !bytes.Equal(cl.Frame(0, true), before) {
			t.Fatal("extended: page 0's live frame is not its committed copy before the kill")
		}
		cl.KillNode(cl.pageHomes.Primary(0))
		check(t, cl)
		after := cl.Frame(0, true)
		if &after[0] == &before[0] || !bytes.Equal(after, before) {
			t.Fatal("extended: the live frame of a dead primary is not the surviving replica's equal copy")
		}
		cl.KillNode(cl.pageHomes.Secondary(0))
		check(t, cl)
		if cl.Frame(0, true) != nil || &cl.Frame(0, false)[0] != &before[0] {
			t.Fatal("extended: with both homes dead the live frame must be nil and the plain one the dead primary's")
		}
	})
}
