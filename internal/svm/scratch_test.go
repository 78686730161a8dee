package svm

import (
	"encoding/binary"
	"testing"

	"ftsvm/internal/model"
	"ftsvm/internal/obs"
)

// pagesCounterBody increments a counter at the start of every page under
// lock 0, so each release diffs every page: pages whose secondary home is
// the releaser travel in the stash deposited at its backup, and every
// other page's pre-image is kept at its secondary home.
func pagesCounterBody(pages, iters int) func(*Thread) {
	return func(t *Thread) {
		st := &counterState{}
		t.Setup(st)
		psz := t.cl.cfg.PageSize
		for st.Iter < iters {
			t.Acquire(0)
			for p := 0; p < pages; p++ {
				v := t.ReadU64(p * psz)
				t.WriteU64(p*psz, v+1)
			}
			st.Iter++
			t.Release(0)
		}
		t.Barrier()
	}
}

// TestRecycledScratchKill kills a releaser during its third release,
// before its release.savets milestone: the second release's scratch has
// been poisoned and reused by then. With poisoning on, the scratch of the
// dead node is poisoned again before recovery reads anything, so the run
// only comes out right if every receiver kept its own copy.
//   - phase1: the kill lands right after phase 1. Recovery rolls every
//     tentative copy back with the pre-image its secondary home kept
//     (undoFrom).
//   - deposit: the kill lands right after the deposit reached the backup.
//     Recovery rolls forward, applying the stash the backup kept
//     (savedStash) to the pages whose only tentative copy died.
func TestRecycledScratchKill(t *testing.T) {
	old := poisonScratch
	poisonScratch = true
	t.Cleanup(func() { poisonScratch = old })
	const nodes, victim, pages, iters, release = 4, 2, 8, 6, 3
	for _, tc := range []struct {
		name string
		// kill reports whether to kill the victim at event e.
		kill func(cl *Cluster, e obs.Event, itv int32) bool
		// want names the recovery action the kill must exercise.
		want string
	}{
		{"phase1", func(cl *Cluster, e obs.Event, _ int32) bool {
			return e.Kind == obs.KReleasePhase1 && e.Node == victim && e.Seq == release
		}, "roll-back"},
		{"deposit", func(cl *Cluster, e obs.Event, itv int32) bool {
			ts, ok := cl.nodes[cl.backupOf(victim)].savedTS[victim]
			return e.Kind == obs.KMsgDeliver && itv > 0 && ok && ts[victim] >= itv
		}, "roll-forward"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := model.Default()
			cfg.Nodes = nodes
			cl, err := New(Options{Config: cfg, Mode: ModeFT, Pages: pages, Locks: 1, Body: pagesCounterBody(pages, iters)})
			if err != nil {
				t.Fatal(err)
			}
			rec := cl.EnableFlightRecorder(8)
			cl.EnableWireTrace()
			var itv int32 // the victim's interval of its third release
			rollBacks, rollForwards := 0, 0
			rec.SetSink(func(e obs.Event) {
				v := cl.nodes[victim]
				switch {
				case v.dead:
					if e.Kind == obs.KRecoveryStart {
						rollBacks, rollForwards = pendingRolls(cl, victim)
					}
				case e.Kind == obs.KReleaseCommit && e.Node == victim && e.Seq == release:
					itv = int32(len(v.intervals))
				case tc.kill(cl, e, itv):
					cl.KillNode(victim)
				}
			})
			if err := cl.Run(); err != nil {
				t.Fatal(err)
			}
			if err := cl.Verify(nil); err != nil {
				t.Fatal(err)
			}
			switch {
			case cl.ProtoStats().Recoveries != 1:
				t.Fatalf("%d recoveries, want 1", cl.ProtoStats().Recoveries)
			case tc.want == "roll-back" && rollBacks == 0:
				t.Fatal("recovery found no tentative update to roll back")
			case tc.want == "roll-forward" && rollForwards == 0:
				t.Fatal("recovery found no stashed diff to roll forward")
			}
			psz := cfg.PageSize
			for p := 0; p < pages; p++ {
				if got := binary.LittleEndian.Uint64(cl.PeekBytes(p*psz, 8)); got != nodes*iters {
					t.Errorf("page %d counter = %d, want %d", p, got, nodes*iters)
				}
			}
		})
	}
}

// pendingRolls counts, before recovery acts on dead's failure, the
// tentative updates recovery will roll back with a kept pre-image and the
// stashed diffs it will roll forward onto a committed copy.
func pendingRolls(cl *Cluster, dead int) (rollBacks, rollForwards int) {
	backup := cl.nodes[cl.backupOf(dead)]
	saved := backup.savedTS[dead][dead]
	for p := 0; p < cl.pageHomes.Items(); p++ {
		s := cl.nodes[cl.pageHomes.Replica(p, 1)]
		if s.dead {
			continue
		}
		pg := s.pt.page(p)
		if rec, ok := pg.undoFrom[dead]; ok && pg.tentVer != nil && rec.interval == pg.tentVer[dead] && rec.interval > saved {
			rollBacks++
		}
	}
	if st := backup.savedStash[dead]; st != nil {
		for _, d := range st.diffs {
			if pg := cl.nodes[cl.pageHomes.Primary(d.Page)].pt.page(d.Page); pg.commitVer[dead] < saved {
				rollForwards++
			}
		}
	}
	return rollBacks, rollForwards
}

// TestRecycledCheckpointRestore restores a killed node's threads from
// snapshots whose senders' buffers were reused afterwards. Two threads
// share each node and every other release of theirs commits no update, so
// the victim's threads are checkpointed by each other at point A, by
// themselves at a release with no updates (both from the sender's
// checkpoint buffer) and at point B (from the release scratch). With
// poisoning on, every such buffer is overwritten once its deposit has
// landed, so the restored threads resume correctly only if each backup's
// store kept its own copy of the blob.
func TestRecycledCheckpointRestore(t *testing.T) {
	old := poisonScratch
	poisonScratch = true
	t.Cleanup(func() { poisonScratch = old })
	const nodes, tpn, victim, iters = 4, 2, 2, 12
	cfg := model.Default()
	cfg.Nodes = nodes
	cfg.ThreadsPerNode = tpn
	psz := cfg.PageSize
	body := func(t *Thread) {
		st := &counterState{}
		t.Setup(st)
		l := t.ID() % 2
		for st.Iter < iters {
			t.Acquire(l)
			if st.Iter%2 == 0 {
				t.WriteU64(l*psz, t.ReadU64(l*psz)+1)
			}
			st.Iter++
			t.Release(l)
		}
		t.Barrier()
	}
	cl, err := New(Options{Config: cfg, Mode: ModeFT, Pages: 8, Locks: 2, Body: body})
	if err != nil {
		t.Fatal(err)
	}
	rec := cl.EnableFlightRecorder(8)
	restores := 0
	rec.SetSink(func(e obs.Event) {
		switch {
		case e.Kind == obs.KRecoveryRestore:
			restores++
		case e.Kind == obs.KReleaseDone && e.Node == victim && e.Seq == 9 && !cl.nodes[victim].dead:
			cl.KillNode(victim)
		}
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Verify(nil); err != nil {
		t.Fatal(err)
	}
	switch {
	case cl.ProtoStats().Recoveries != 1:
		t.Fatalf("%d recoveries, want 1", cl.ProtoStats().Recoveries)
	case restores != tpn:
		t.Fatalf("%d threads restored from a checkpoint, want %d", restores, tpn)
	}
	for l := range 2 {
		if got := binary.LittleEndian.Uint64(cl.PeekBytes(l*psz, 8)); got != nodes*iters/2 {
			t.Errorf("lock %d's counter = %d, want %d", l, got, nodes*iters/2)
		}
	}
}
