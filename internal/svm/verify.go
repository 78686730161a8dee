package svm

import (
	"bytes"
	"fmt"

	"ftsvm/internal/proto"
)

// Verify is the check every run ends in, after any failure, detected or
// not: the cluster ran and every live thread finished, every one after
// the same number of barrier episodes, then check (the workload's own
// self-check; nil for none), then VerifyReplicas.
//
// A thread that finished short of an episode the others completed was
// restored from a snapshot taken inside that episode's barrier and did
// not replay the suspended call: it fell through the completed episode
// after redoing work past it (the replay contract, encodeSnapshot), and
// the writes of that work were never released.
func (cl *Cluster) Verify(check func() error) error {
	if len(cl.threads) == 0 {
		return fmt.Errorf("svm: the cluster has not run")
	}
	if t := cl.unfinished(); t != nil {
		return fmt.Errorf("svm: thread %d on node %d did not finish", t.id, t.node.id)
	}
	var last int64
	for _, t := range cl.threads {
		if !t.dead {
			last = max(last, t.barSeq)
		}
	}
	for _, t := range cl.threads {
		if !t.dead && t.barSeq < last {
			return fmt.Errorf("svm: thread %d on node %d finished without barrier episode %d (its last was %d)",
				t.id, t.node.id, t.barSeq+1, t.barSeq)
		}
	}
	if check != nil {
		if err := check(); err != nil {
			return err
		}
	}
	return cl.VerifyReplicas()
}

// VerifyReplicas audits the state a finished run leaves behind. Under
// either protocol no live node may still hold a write it never released:
// a thread that returns, or replays past a sync call it did not re-run,
// with pages on its node's dirty list has lost those writes. The
// extended protocol's replication invariant is then audited page by page
// (verifyPage).
func (cl *Cluster) VerifyReplicas() error {
	for _, n := range cl.nodes {
		if !n.dead && len(n.dirty) > 0 {
			return fmt.Errorf("svm: node %d ended the run holding unreleased writes to page %d", n.id, n.dirty[0])
		}
	}
	if cl.opt.Mode != ModeFT {
		return nil
	}
	for p := 0; p < cl.pageHomes.Items(); p++ {
		if err := cl.verifyPage(p); err != nil {
			return err
		}
	}
	return nil
}

// verifyPage holds page p to the rule its homes' membership picks. A
// home on a node that died and was never recovered (nobody observed the
// death, so nobody rehomed the page) picks availability: if any copy
// exists a live home must hold one, from which a later access — which
// would detect the death and recover — can rebuild full replication.
// Every other page must have converged at quiescence: its k homes are
// distinct live nodes, and the primary's committed copy equals every
// secondary's tentative copy byte for byte with equal version vectors;
// a divergence is an interval applied to one copy and lost on another.
// A home on a recovered (excluded) node is an error under either rule.
func (cl *Cluster) verifyPage(p int) error {
	dir := cl.pageHomes
	deg := dir.Degree()
	if err := distinctHomes(dir, p); err != nil {
		return err
	}
	unrecovered, allDead, anyCopy, liveCopy := false, true, false, false
	for s := 0; s < deg; s++ {
		h := dir.Replica(p, s)
		n := cl.nodes[h]
		if n.excluded {
			return fmt.Errorf("page %d: home on dead node (slot %d = node %d)", p, s, h)
		}
		unrecovered = unrecovered || n.dead
		allDead = allDead && n.dead
		if c, _ := cl.homeCopy(p, s); c != nil {
			anyCopy = true
			liveCopy = liveCopy || !n.dead
		}
	}
	if unrecovered {
		switch {
		case allDead:
			return fmt.Errorf("page %d: all homes dead (%v)", p, homesOf(dir, p))
		case anyCopy && !liveCopy:
			return fmt.Errorf("page %d: only copy was on a dead home (%v)", p, homesOf(dir, p))
		}
		return nil // one live copy suffices until recovery rebuilds the rest
	}
	if !anyCopy {
		return nil // never touched
	}
	prim, primVer := cl.homeCopy(p, 0)
	if prim == nil {
		return fmt.Errorf("page %d: one replica missing", p)
	}
	for s := 1; s < deg; s++ {
		tent, tentVer := cl.homeCopy(p, s)
		if tent == nil {
			return fmt.Errorf("page %d: one replica missing", p)
		}
		if i := firstDiff(prim, tent); i >= 0 {
			return fmt.Errorf("page %d: replicas diverge at byte %d (committed %d vs tentative %d)",
				p, i, prim[i], tent[i])
		}
		if !primVer.Equal(tentVer) {
			return fmt.Errorf("page %d: replica versions diverge: %v vs %v", p, primVer, tentVer)
		}
	}
	return nil
}

// homeCopy returns the copy of page p that its home in slot s keeps, with
// its version vector: the primary's committed copy, a secondary's
// tentative one.
func (cl *Cluster) homeCopy(p, s int) ([]byte, proto.VectorTime) {
	pg := cl.nodes[cl.pageHomes.Replica(p, s)].pt.page(p)
	if s == 0 {
		return pg.committed, pg.commitVer
	}
	return pg.tentative, pg.tentVer
}

// firstDiff returns the first offset at which two equal-length copies
// differ, or -1 when they are equal.
func firstDiff(a, b []byte) int {
	if bytes.Equal(a, b) {
		return -1
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// distinctHomes checks that no two replica slots of a page share a node.
func distinctHomes(dir proto.Directory, p int) error {
	for a := 0; a < dir.Degree(); a++ {
		for b := a + 1; b < dir.Degree(); b++ {
			if h := dir.Replica(p, a); h == dir.Replica(p, b) {
				return fmt.Errorf("page %d: replicas colocated on node %d", p, h)
			}
		}
	}
	return nil
}

// homesOf collects an item's k homes, primary first — for error messages;
// checks iterate Replica slot by slot and never allocate.
func homesOf(dir proto.Directory, item int) []int {
	out := make([]int, dir.Degree())
	for s := range out {
		out[s] = dir.Replica(item, s)
	}
	return out
}
