package apps

import (
	"fmt"
	"testing"

	"ftsvm/internal/model"
	"ftsvm/internal/obs"
	"ftsvm/internal/svm"
)

// runWithFailure runs a workload under the extended protocol and kills a
// node mid-run: at virtual time atNs when kind is obs.KNone, else from
// the flight recorder's sink the first time it records kind with a
// sequence number of at least seq. The workload's own verification must
// still pass after recovery.
func runWithFailure(t *testing.T, s Shape, w *Workload, victim int, kind obs.Kind, atNs int64, seq int64) {
	t.Helper()
	cfg := model.Default()
	cfg.Nodes = s.Nodes
	cfg.ThreadsPerNode = s.ThreadsPerNode
	cfg.PageSize = s.PageSize
	cl, err := svm.New(svm.Options{
		Config:     cfg,
		Mode:       svm.ModeFT,
		Pages:      w.Pages,
		Locks:      w.Locks,
		HomeAssign: w.HomeAssign,
		Body:       w.Body,
	})
	if err != nil {
		t.Fatal(err)
	}
	killed := false
	if kind == obs.KNone {
		cl.Engine().At(atNs, func() {
			killed = true
			cl.KillNode(victim)
		})
	} else {
		cl.EnableFlightRecorder(1).SetSink(func(e obs.Event) {
			if killed || e.Kind != kind || int(e.Node) != victim || e.Seq < seq {
				return
			}
			killed = true
			cl.KillNode(victim)
		})
	}
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if !killed {
		t.Skipf("kill trigger %s never fired (workload finished first)", kind)
	}
	if !cl.Finished() {
		t.Fatal("threads did not finish after recovery")
	}
	if err := w.Err(); err != nil {
		t.Fatalf("workload verification failed after recovery: %v", err)
	}
}

func ftShape() Shape { return Shape{Nodes: 4, ThreadsPerNode: 1, PageSize: 4096} }

func TestFFTSurvivesFailure(t *testing.T) {
	for _, victim := range []int{0, 2} {
		victim := victim
		t.Run(fmt.Sprintf("victim%d", victim), func(t *testing.T) {
			runWithFailure(t, ftShape(), FFT(ftShape(), 1024), victim, obs.KNone, 2_000_000, 0)
		})
	}
}

func TestLUSurvivesFailure(t *testing.T) {
	runWithFailure(t, ftShape(), LU(ftShape(), 64, 8), 1, obs.KNone, 3_000_000, 0)
}

func TestLUSurvivesFailureAtRelease(t *testing.T) {
	// Kill at a barrier release's phase 1 (roll-back window).
	runWithFailure(t, ftShape(), LU(ftShape(), 64, 8), 2, obs.KReleasePhase1, 0, 3)
}

func TestWaterNsqSurvivesFailure(t *testing.T) {
	runWithFailure(t, ftShape(), WaterNsq(ftShape(), 64, 2), 3, obs.KNone, 4_000_000, 0)
}

func TestWaterNsqSurvivesFailureMidLockChain(t *testing.T) {
	// Kill inside the per-molecule flush (lock-heavy window), after the
	// timestamp save (roll-forward).
	runWithFailure(t, ftShape(), WaterNsq(ftShape(), 64, 2), 1, obs.KReleaseSaveTS, 0, 10)
}

func TestWaterSpSurvivesFailure(t *testing.T) {
	runWithFailure(t, ftShape(), WaterSp(ftShape(), 64, 2), 2, obs.KNone, 4_000_000, 0)
}

func TestRadixSurvivesFailure(t *testing.T) {
	runWithFailure(t, ftShape(), Radix(ftShape(), 4096), 1, obs.KNone, 5_000_000, 0)
}

func TestRadixSurvivesFailureAtCommit(t *testing.T) {
	runWithFailure(t, ftShape(), Radix(ftShape(), 4096), 2, obs.KReleaseCommit, 0, 5)
}

func TestVolrendSurvivesFailure(t *testing.T) {
	runWithFailure(t, ftShape(), Volrend(ftShape(), 16, 32), 3, obs.KNone, 2_000_000, 0)
}

func TestKVStoreSurvivesFailure(t *testing.T) {
	runWithFailure(t, ftShape(), KVStore(ftShape(), 16, 32, 60), 2, obs.KNone, 4_000_000, 0)
}

func TestKVStoreSurvivesFailureAtSaveTS(t *testing.T) {
	// Roll-forward window during the transactional op stream.
	runWithFailure(t, ftShape(), KVStore(ftShape(), 16, 32, 60), 1, obs.KReleaseSaveTS, 0, 12)
}

func TestOceanSurvivesFailure(t *testing.T) {
	runWithFailure(t, ftShape(), Ocean(ftShape(), 64, 4), 1, obs.KNone, 3_000_000, 0)
}
