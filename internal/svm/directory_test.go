package svm

import (
	"fmt"
	"testing"

	"ftsvm/internal/model"
	"ftsvm/internal/obs"
)

// runCounterWithDir runs the lock-protected counter workload with the
// given directory mode and returns the cluster.
func runCounterWithDir(t *testing.T, dir model.DirectoryMode, kill bool) *Cluster {
	t.Helper()
	cfg := model.Default()
	cfg.Nodes = 4
	cfg.Directory = dir
	const iters = 8
	cl, err := New(Options{Config: cfg, Mode: ModeFT, Pages: 8, Locks: 1, Body: counterBody(iters)})
	if err != nil {
		t.Fatal(err)
	}
	cl.EnableAuditor()
	if kill {
		killOn(cl, obs.KReleaseDone, 1, 3)
	}
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if !cl.Finished() {
		t.Fatal("not all threads finished")
	}
	checkCounter(t, cl, 4*iters)
	return cl
}

// TestDirectoryHealthyBitIdentical pins the flat-vs-hashed healthy-run
// guarantee the BENCH gates rely on: without failures, the hashed
// directory places every item exactly where the flat map does, so the
// run's virtual time and traffic are bit-identical.
func TestDirectoryHealthyBitIdentical(t *testing.T) {
	flat := runCounterWithDir(t, model.DirFlat, false)
	hashed := runCounterWithDir(t, model.DirHashed, false)
	if flat.ExecTime() != hashed.ExecTime() {
		t.Fatalf("exec time differs: flat %d vs hashed %d", flat.ExecTime(), hashed.ExecTime())
	}
	fm, hm := flat.Metrics().Map(), hashed.Metrics().Map()
	for _, m := range []string{"vmmc.msgs_sent", "vmmc.bytes_sent", "svm.intervals", "svm.write_faults"} {
		if fm[m] != hm[m] {
			t.Fatalf("%s differs: flat %d vs hashed %d", m, fm[m], hm[m])
		}
	}
}

// TestDirectoryHashedRecovery runs a mid-release kill with the hashed
// directory under the online auditor: recovery must rehome through
// the override table, rebuild replicas from reverse-index deltas, and
// finish with the replica invariants intact.
func TestDirectoryHashedRecovery(t *testing.T) {
	cl := runCounterWithDir(t, model.DirHashed, true)
	verifyReplicaInvariants(t, cl)
	if cl.RehomeWallNs() <= 0 {
		t.Fatal("rehome wall time not recorded")
	}
	if cl.DirectoryBytes() <= 0 {
		t.Fatal("directory footprint not recorded")
	}
}

// TestDirectoryHashedEveryVictim sweeps the victim over all nodes: each
// node holds a different mix of page homes, lock homes, and barrier
// mastership, and the hashed rehoming path must recover all of them.
func TestDirectoryHashedEveryVictim(t *testing.T) {
	for victim := 0; victim < 4; victim++ {
		t.Run(fmt.Sprintf("victim%d", victim), func(t *testing.T) {
			cfg := model.Default()
			cfg.Nodes = 4
			cfg.Directory = model.DirHashed
			const iters = 8
			cl, err := New(Options{Config: cfg, Mode: ModeFT, Pages: 8, Locks: 1, Body: counterBody(iters)})
			if err != nil {
				t.Fatal(err)
			}
			cl.EnableAuditor()
			killOn(cl, obs.KReleasePhase1, victim, 2)
			if err := cl.Run(); err != nil {
				t.Fatal(err)
			}
			if !cl.Finished() {
				t.Fatal("not all threads finished after recovery")
			}
			checkCounter(t, cl, 4*iters)
			verifyReplicaInvariants(t, cl)
		})
	}
}

// TestDirectoryHashedParallelIdentical pins worker-count independence
// for hashed healthy runs: the parallel engine disables the directory
// lookup cache, and lookups must produce the same placements (and thus
// bit-identical virtual metrics) either way.
func TestDirectoryHashedParallelIdentical(t *testing.T) {
	run := func(workers int) *Cluster {
		cfg := model.Default()
		cfg.Nodes = 4
		cfg.Directory = model.DirHashed
		opt := Options{Config: cfg, Mode: ModeFT, Pages: 8, Locks: 1,
			Body: counterBody(8), Workers: workers}
		cl, err := New(opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Run(); err != nil {
			t.Fatal(err)
		}
		return cl
	}
	serial := run(1)
	par := run(4)
	if reason := par.SerialFallbackReason(); reason != "" {
		t.Skipf("parallel engine unavailable: %s", reason)
	}
	if serial.ExecTime() != par.ExecTime() {
		t.Fatalf("exec time differs: serial %d vs parallel %d", serial.ExecTime(), par.ExecTime())
	}
	sm, pm := serial.Metrics().Map(), par.Metrics().Map()
	for _, m := range []string{"vmmc.msgs_sent", "vmmc.bytes_sent", "svm.intervals"} {
		if sm[m] != pm[m] {
			t.Fatalf("%s differs: serial %d vs parallel %d", m, sm[m], pm[m])
		}
	}
}

// TestAuditorLazyPrevReq pins the auditor's lazy version history: no
// per-page vector exists before the run (eager allocation was one
// NewVector(N) per node per page, O(N² x pages) at 512 nodes), and after
// it only the pages whose required version was actually written have one.
func TestAuditorLazyPrevReq(t *testing.T) {
	cfg := model.Default()
	cfg.Nodes = 4
	cl, err := New(Options{Config: cfg, Mode: ModeFT, Pages: 8, Locks: 1, Body: counterBody(4)})
	if err != nil {
		t.Fatal(err)
	}
	cl.EnableAuditor()
	count := func() (n int) {
		for _, per := range cl.aud.prevReq {
			for _, v := range per {
				if v != nil {
					n++
				}
			}
		}
		return n
	}
	if count() != 0 {
		t.Fatal("auditor pre-allocated per-page version vectors")
	}
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	// The counter workload writes page 0 only.
	if got := count(); got == 0 || got > cfg.Nodes {
		t.Fatalf("%d per-page version vectors after a one-page workload on %d nodes", got, cfg.Nodes)
	}
}
