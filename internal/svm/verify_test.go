package svm

import (
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
		t.Fatalf("VerifyReplicas = %v, want %q", err, want)
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
