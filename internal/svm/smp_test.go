package svm

import (
	"fmt"
	"strings"
	"testing"

	"ftsvm/internal/model"
	"ftsvm/internal/obs"
)

// multiLockState drives the multi-lock SMP workload: each iteration picks
// a lock/slot by round-robin, increments the slot under the lock, and
// advances Iter before Release (the exactly-once contract).
type multiLockState struct {
	Iter int
}

// multiLockBody has every thread increment rotating per-lock slots, so at
// any instant different threads (including node siblings) are inside
// critical sections of different locks — the window where one thread's
// release observes a sibling mid-CS.
func multiLockBody(locks, iters int) func(*Thread) {
	return func(t *Thread) {
		st := &multiLockState{}
		t.Setup(st)
		for st.Iter < iters {
			l := (st.Iter + t.ID()) % locks
			t.Acquire(l)
			addr := l * 64
			v := t.ReadU64(addr)
			t.Compute(300)
			t.WriteU64(addr, v+1)
			st.Iter++
			t.Release(l)
		}
		t.Barrier()
	}
}

func checkMultiLock(t *testing.T, cl *Cluster, locks, totalIters int) {
	t.Helper()
	var sum uint64
	for l := 0; l < locks; l++ {
		sum += cl.PeekU64(l * 64)
	}
	if sum != uint64(totalIters) {
		t.Fatalf("slot sum = %d, want %d", sum, totalIters)
	}
}

// TestMultiLockSMPFailureSweep kills every node at every release
// milestone with 2 threads/node and per-thread rotating locks: the
// exactly-once guarantee must hold even when the victim's siblings are
// mid-critical-section, and when a bystander home dies inside another
// node's release.
func TestMultiLockSMPFailureSweep(t *testing.T) {
	const nodes, locks, iters = 3, 4, 8
	milestones := []obs.Kind{
		obs.KReleaseCommit, obs.KReleasePhase1, obs.KReleaseSaveTS,
		obs.KReleaseCkptB, obs.KReleasePhase2, obs.KReleaseDone, obs.KCkptA,
	}
	ran := 0
	for victim := 0; victim < nodes; victim++ {
		for _, kind := range milestones {
			for seq := int64(1); seq <= 5; seq += 2 {
				name := fmt.Sprintf("%s/n%d/s%d", kind, victim, seq)
				cfg := model.Default()
				cfg.Nodes = nodes
				cfg.ThreadsPerNode = 2
				cl, err := New(Options{
					Config: cfg, Mode: ModeFT, Pages: locks + 1, Locks: locks,
					Body: multiLockBody(locks, iters),
				})
				if err != nil {
					t.Fatal(err)
				}
				fired := killOn(cl, kind, victim, seq)
				if err := cl.Run(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !*fired {
					continue
				}
				ran++
				if !cl.Finished() {
					t.Fatalf("%s: threads did not finish", name)
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("%s: %v", name, r)
						}
					}()
					checkMultiLock(t, cl, locks, nodes*2*iters)
					verifyReplicaInvariants(t, cl)
				}()
			}
		}
	}
	t.Logf("multi-lock SMP schedules executed: %d", ran)
	if ran < 20 {
		t.Fatalf("only %d schedules executed", ran)
	}
}

// TestInspectors exercises the diagnostic helpers (PeekU32, DebugPage,
// DebugState) against a finished cluster so their formats stay valid.
func TestInspectors(t *testing.T) {
	cfg := model.Default()
	cfg.Nodes = 4
	var th *Thread
	cl, err := New(Options{
		Config: cfg, Mode: ModeFT, Pages: 4, Locks: 1,
		Body: func(t *Thread) {
			th = t
			t.Setup(&counterState{})
			t.Acquire(0)
			t.WriteU32(8, 0xdeadbeef)
			t.Release(0)
			t.Barrier()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if got := cl.PeekU32(8); got != 0xdeadbeef {
		t.Fatalf("PeekU32 = %#x", got)
	}
	if s := cl.DebugPage(0); !strings.Contains(s, "page 0:") || !strings.Contains(s, "first divergence: -1") {
		t.Fatalf("DebugPage output malformed:\n%s", s)
	}
	if s := th.DebugState(); !strings.Contains(s, "finished") {
		t.Fatalf("DebugState output malformed: %s", s)
	}
}
