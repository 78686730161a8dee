package svm

import (
	"fmt"
	"testing"

	"ftsvm/internal/model"
	"ftsvm/internal/obs"
)

// TestFailureScheduleSweep systematically fail-stops every node at every
// protocol milestone of every release sequence number, for the shared
// counter workload — an exhaustive walk of the §4.5 failure windows. Each
// schedule is a fully deterministic simulation; the invariants are the
// paper's guarantees: the computation completes, not one increment is
// lost or duplicated, and both replicas of every page are identical on
// distinct live nodes afterwards.
func TestFailureScheduleSweep(t *testing.T) {
	const nodes = 4
	const iters = 6
	milestones := []obs.Kind{
		obs.KReleaseCommit, obs.KReleasePhase1, obs.KReleaseSaveTS,
		obs.KReleaseCkptB, obs.KReleasePhase2, obs.KReleaseDone, obs.KCkptA,
	}
	ran, skipped := 0, 0
	for victim := 0; victim < nodes; victim++ {
		for _, kind := range milestones {
			for seq := int64(1); seq <= 5; seq += 2 {
				name := fmt.Sprintf("%s/n%d/s%d", kind, victim, seq)
				cfg := model.Default()
				cfg.Nodes = nodes
				cl, err := New(Options{
					Config: cfg, Mode: ModeFT, Pages: 8, Locks: 1,
					Body: counterBody(iters),
				})
				if err != nil {
					t.Fatal(err)
				}
				fired := killOn(cl, kind, victim, seq)
				if err := cl.Run(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !*fired {
					skipped++ // milestone never reached (e.g. ckpt.A needs siblings)
					continue
				}
				ran++
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("%s: invariant check panicked: %v", name, r)
						}
					}()
					if err := cl.Verify(nil); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					checkCounter(t, cl, nodes*iters)
				}()
			}
		}
	}
	t.Logf("failure schedules: %d executed, %d unreachable", ran, skipped)
	if ran < 40 {
		t.Fatalf("only %d schedules executed; sweep ineffective", ran)
	}
}

// TestFailureScheduleSweepSMP repeats a reduced sweep with 2 threads per
// node (the point-A checkpoint path).
func TestFailureScheduleSweepSMP(t *testing.T) {
	const nodes = 3
	const iters = 4
	ran := 0
	for victim := 0; victim < nodes; victim++ {
		for _, kind := range []obs.Kind{obs.KCkptA, obs.KReleaseSaveTS, obs.KReleaseDone} {
			cfg := model.Default()
			cfg.Nodes = nodes
			cfg.ThreadsPerNode = 2
			cl, err := New(Options{
				Config: cfg, Mode: ModeFT, Pages: 8, Locks: 1,
				Body: counterBody(iters),
			})
			if err != nil {
				t.Fatal(err)
			}
			fired := killOn(cl, kind, victim, 2)
			if err := cl.Run(); err != nil {
				t.Fatalf("%s/n%d: %v", kind, victim, err)
			}
			if !*fired {
				continue
			}
			ran++
			if err := cl.Verify(nil); err != nil {
				t.Fatalf("%s/n%d: %v", kind, victim, err)
			}
			checkCounter(t, cl, nodes*2*iters)
		}
	}
	if ran < 5 {
		t.Fatalf("only %d SMP schedules executed", ran)
	}
}
