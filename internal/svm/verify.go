package svm

import (
	"fmt"

	"ftsvm/internal/proto"
)

// VerifyReplicas audits the extended protocol's replication invariant
// after a run: every page's k homes are distinct live nodes, and the
// primary's committed copy matches every secondary's tentative copy byte
// for byte (with equal version vectors). At quiescence — all threads
// finished, no release in flight — the replicas must have converged;
// any divergence means an interval was applied to one copy and lost on
// another, exactly the corruption the two-phase pipeline exists to
// prevent. Returns nil for ModeBase clusters (no replicas to audit).
func (cl *Cluster) VerifyReplicas() error {
	if cl.opt.Mode != ModeFT {
		return nil
	}
	dir := cl.pageHomes
	deg := dir.Degree()
	for p := 0; p < cl.pageHomes.Items(); p++ {
		if err := distinctHomes(dir, p); err != nil {
			return err
		}
		for s := 0; s < deg; s++ {
			if h := dir.Replica(p, s); cl.nodes[h].dead {
				return fmt.Errorf("page %d: home on dead node (slot %d = node %d)", p, s, h)
			}
		}
		pgP := cl.nodes[dir.Replica(p, 0)].pt.page(p)
		touched := pgP.committed != nil
		for s := 1; s < deg; s++ {
			if cl.nodes[dir.Replica(p, s)].pt.page(p).tentative != nil {
				touched = true
			}
		}
		if !touched {
			continue // never touched
		}
		if pgP.committed == nil {
			return fmt.Errorf("page %d: one replica missing", p)
		}
		for s := 1; s < deg; s++ {
			pgS := cl.nodes[dir.Replica(p, s)].pt.page(p)
			if pgS.tentative == nil {
				return fmt.Errorf("page %d: one replica missing", p)
			}
			for i := range pgP.committed {
				if pgP.committed[i] != pgS.tentative[i] {
					return fmt.Errorf("page %d: replicas diverge at byte %d (committed %d vs tentative %d)",
						p, i, pgP.committed[i], pgS.tentative[i])
				}
			}
			if !pgP.commitVer.Equal(pgS.tentVer) {
				return fmt.Errorf("page %d: replica versions diverge: %v vs %v", p, pgP.commitVer, pgS.tentVer)
			}
		}
	}
	return nil
}

// VerifyAvailability audits the weaker invariant that holds when a node
// has fail-stopped after its last protocol obligation and no survivor
// has observed the death (no recovery episode ran): every page still
// has at least one live home holding its committed state, so a future
// access — which would trigger detection and recovery — can rebuild
// full replication without data loss. Pages with all homes live are
// held to the byte-compare contract; a page whose only intact copy
// sits on a dead node is exactly the durability loss the k homes exist
// to prevent. Returns nil for ModeBase clusters.
func (cl *Cluster) VerifyAvailability() error {
	if cl.opt.Mode != ModeFT {
		return nil
	}
	dir := cl.pageHomes
	deg := dir.Degree()
	for p := 0; p < cl.pageHomes.Items(); p++ {
		if err := distinctHomes(dir, p); err != nil {
			return err
		}
		copyAt := func(s int) []byte {
			pg := cl.nodes[dir.Replica(p, s)].pt.page(p)
			if s == 0 {
				return pg.committed
			}
			return pg.tentative
		}
		anyDead, allDead, anyCopy, liveCopy := false, true, false, false
		for s := 0; s < deg; s++ {
			dead := cl.nodes[dir.Replica(p, s)].dead
			anyDead = anyDead || dead
			allDead = allDead && dead
			if copyAt(s) != nil {
				anyCopy = true
				if !dead {
					liveCopy = true
				}
			}
		}
		if allDead {
			return fmt.Errorf("page %d: all homes dead (%v)", p, homesOf(dir, p))
		}
		if !anyCopy {
			continue
		}
		if anyDead {
			if !liveCopy {
				return fmt.Errorf("page %d: only copy was on a dead home (%v)", p, homesOf(dir, p))
			}
			continue // one live copy suffices until recovery rebuilds the rest
		}
		prim := copyAt(0)
		if prim == nil {
			return fmt.Errorf("page %d: one replica missing", p)
		}
		for s := 1; s < deg; s++ {
			tent := copyAt(s)
			if tent == nil {
				return fmt.Errorf("page %d: one replica missing", p)
			}
			for i := range prim {
				if prim[i] != tent[i] {
					return fmt.Errorf("page %d: replicas diverge at byte %d (committed %d vs tentative %d)",
						p, i, prim[i], tent[i])
				}
			}
		}
	}
	return nil
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
