package svm

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"ftsvm/internal/model"
)

// writeEveryPage has each thread write one word into every nodes-th page
// from its own id on, so every page ends with a copy at each of its homes.
func writeEveryPage(nodes, pages int) func(*Thread) {
	return func(th *Thread) {
		th.Setup(&counterState{})
		for p := th.ID(); p < pages; p += nodes {
			th.WriteU64(p*th.cl.cfg.PageSize, uint64(p+1))
		}
		th.Barrier()
	}
}

// wantErr fails t unless err is non-nil and contains want.
func wantErr(t *testing.T, err error, want string) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("verify = %v, want %q", err, want)
	}
}

// TestVerifyReplicasPerPage: the replica check picks its rule per page
// from membership. After a kill that no survivor observed, the victim's
// pages are held to availability while every page with all homes live
// is still held to equal bytes and versions; once the victim is recovered
// (excluded), a page still homed on it is an error.
func TestVerifyReplicasPerPage(t *testing.T) {
	const nodes, pages, victim = 4, 8, 1
	cl := runCluster(t, ModeFT, nodes, 1, pages, 1, writeEveryPage(nodes, pages))
	if err := cl.VerifyReplicas(); err != nil {
		t.Fatalf("healthy run: %v", err)
	}
	cl.KillNode(victim) // after the run: nothing will ever detect it
	if err := cl.VerifyReplicas(); err != nil {
		t.Fatalf("undetected kill: %v", err)
	}

	allLive, unrecovered := -1, -1
	for p := pages - 1; p >= 0; p-- {
		if slices.Contains(homesOf(cl.pageHomes, p), victim) {
			unrecovered = p
		} else {
			allLive = p
		}
	}
	if allLive < 0 || unrecovered < 0 {
		t.Fatalf("no page of each kind (all homes live %d, homed on the victim %d)", allLive, unrecovered)
	}

	_, ver := cl.homeCopy(allLive, 1)
	ver[0]++
	wantErr(t, cl.VerifyReplicas(), fmt.Sprintf("page %d: replica versions diverge", allLive))
	ver[0]--

	liveSlot := 0
	if cl.pageHomes.Replica(unrecovered, 0) == victim {
		liveSlot = 1
	}
	buf, _ := cl.homeCopy(unrecovered, liveSlot)
	buf[0] ^= 1
	if err := cl.VerifyReplicas(); err != nil {
		t.Fatalf("byte divergence on a page with an unrecovered home and a live copy: %v", err)
	}
	buf[0] ^= 1

	cl.exclude(cl.nodes[victim])
	wantErr(t, cl.VerifyReplicas(), fmt.Sprintf("page %d: home on dead node", unrecovered))
}

// TestDebugPageEveryReplica: at degree 3, DebugPage compares the primary
// with every secondary, so a divergence at slot 2 is located.
func TestDebugPageEveryReplica(t *testing.T) {
	const nodes, pages = 4, 8
	cfg := model.Default()
	cfg.Nodes = nodes
	cfg.ReplicaDegree = 3
	cl, err := New(Options{Config: cfg, Mode: ModeFT, Pages: pages, Locks: 1, Body: writeEveryPage(nodes, pages)})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	tent, _ := cl.homeCopy(0, 2)
	tent[5] ^= 1
	out := cl.DebugPage(0)
	for _, c := range []struct{ slot, div int }{{1, -1}, {2, 5}} {
		line := fmt.Sprintf("slot %d n%d first divergence: %d\n", c.slot, cl.pageHomes.Replica(0, c.slot), c.div)
		if !strings.Contains(out, line) {
			t.Errorf("DebugPage lacks %q:\n%s", line, out)
		}
	}
	wantErr(t, cl.VerifyReplicas(), "page 0: replicas diverge at byte 5")
}

// TestUnreleasedWriteFailsVerify: a run that ends with a write still on a
// live node's dirty list has lost that write, and the end-of-run check
// names the node and the page under either protocol. unguardedPhasedBody
// advances its round before its barrier, so thread 1, killed while
// waiting in barrier 4, replays on node 2 as: write round 5's value,
// fall through the completed episode, return — the write is never
// released. Verify names the thread, its node and the episode it
// skipped; VerifyReplicas, which does not count barriers, names the
// unreleased write.
func TestUnreleasedWriteFailsVerify(t *testing.T) {
	cfg := model.Default()
	cfg.Nodes = 4
	cl, err := New(Options{Config: cfg, Mode: ModeFT, Pages: 8, Locks: 1, Body: unguardedPhasedBody(5)})
	if err != nil {
		t.Fatal(err)
	}
	cl.Engine().At(1_000_000, func() { cl.KillNode(1) })
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if got := cl.PeekU64(8); got != 4001 {
		t.Fatalf("slot 1 = %d, want round 4's 4001 (the lost write)", got)
	}
	wantErr(t, cl.VerifyReplicas(), "svm: node 2 ended the run holding unreleased writes to page 0")
	wantErr(t, cl.Verify(nil), "svm: thread 1 on node 2 finished without barrier episode 5 (its last was 4)")

	// Base protocol: a body that writes after its last barrier and returns.
	cfg.Nodes = 2
	cl, err = New(Options{Config: cfg, Mode: ModeBase, Pages: 2, Locks: 1, Body: func(th *Thread) {
		th.Setup(&counterState{})
		th.Barrier()
		th.WriteU64(th.ID()*8, 1)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	wantErr(t, cl.Verify(nil), "svm: node 0 ended the run holding unreleased writes to page 0")
}

// TestVerifyOrder: the end-of-run check tests, in order, that the cluster
// ran, that every live thread finished (naming the first that did not),
// the workload's check, then the replicas; a check is not consulted for a
// run that never ended, nor for one that never started.
func TestVerifyOrder(t *testing.T) {
	build := func() *Cluster {
		cfg := model.Default()
		cfg.Nodes = 2
		cl, err := New(Options{Config: cfg, Mode: ModeFT, Pages: 2, Locks: 1, Body: writeEveryPage(2, 2)})
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	called := false
	check := func() error { called = true; return errors.New("self-check failed") }
	cl := build()
	wantErr(t, cl.Verify(check), "svm: the cluster has not run")
	if cl.Finished() {
		t.Fatal("a cluster that never ran reports Finished")
	}
	cl.Engine().At(1, cl.Engine().Stop) // cut the run short
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	wantErr(t, cl.Verify(check), "svm: thread 0 on node 0 did not finish")
	if called {
		t.Fatal("the workload's check ran before every thread finished")
	}
	cl = build()
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	wantErr(t, cl.Verify(check), "self-check failed")
	if err := cl.Verify(nil); err != nil {
		t.Fatal(err)
	}
}
