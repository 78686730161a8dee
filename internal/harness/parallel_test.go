package harness

import (
	"fmt"
	"hash/fnv"
	"testing"

	"ftsvm/internal/apps"
	"ftsvm/internal/model"
	"ftsvm/internal/svm"
)

// parallelCell runs one experiment cell with the given engine worker
// count and folds every observable the parallel engine must preserve
// into one fingerprint: virtual execution time, executed event count,
// the post-run RNG cursor (pins the full draw sequence), per-endpoint
// wire counters, protocol counters, checkpoint count, the unified
// metrics snapshot (svm.*, ckpt.*, vmmc.*), and the final committed
// memory image. The flight recorder is deliberately absent — attaching
// it forces the serial-fallback path, which is exactly what this test
// must not take — so the event stream is pinned through the counters,
// the RNG cursor, and the memory bytes instead.
func parallelCell(t *testing.T, app string, mode svm.Mode, tpn int, seed int64, workers int) string {
	t.Helper()
	cfg := model.Default()
	cfg.Nodes = 4
	cfg.ThreadsPerNode = tpn
	cfg.Seed = seed
	s := apps.Shape{Nodes: cfg.Nodes, ThreadsPerNode: tpn, PageSize: cfg.PageSize}
	w, err := Build(app, SizeSmall, s)
	if err != nil {
		t.Fatalf("build %s: %v", app, err)
	}
	cl, err := svm.New(svm.Options{
		Config: cfg, Mode: mode,
		Pages: w.Pages, Locks: w.Locks, HomeAssign: w.HomeAssign,
		Body: w.Body, Workers: workers,
	})
	if err != nil {
		t.Fatalf("new %s: %v", app, err)
	}
	if err := cl.Run(); err != nil {
		t.Fatalf("%s (workers=%d): %v", app, workers, err)
	}
	if err := cl.Verify(w.Err); err != nil {
		t.Fatalf("%s (workers=%d): %v", app, workers, err)
	}
	if workers > 1 {
		if r := cl.SerialFallbackReason(); r != "" {
			t.Fatalf("%s: fell back to serial (%s) — the parallel engine was not exercised", app, r)
		}
		if got := cl.EngineWorkers(); got != workers {
			t.Fatalf("%s: EngineWorkers = %d, want %d", app, got, workers)
		}
	}

	h := fnv.New64a()
	fmt.Fprintf(h, "exec=%d events=%d rand=%d ckpt=%d\n",
		cl.ExecTime(), cl.Engine().Events(), cl.Engine().Rand().Int63(), cl.CheckpointCount())
	for i := 0; i < cfg.Nodes; i++ {
		fmt.Fprintf(h, "ep%d=%+v\n", i, cl.Network().Endpoint(i).Stats())
	}
	fmt.Fprintf(h, "proto=%+v\n", cl.ProtoStats())
	for _, c := range cl.Metrics().Sorted() {
		fmt.Fprintf(h, "%s=%d\n", c.Name, c.Value)
	}
	h.Write(cl.PeekLiveBytes(0, cl.NumPages()*cl.PageSize()))
	return fmt.Sprintf("%016x", h.Sum64())
}

// FuzzParallelDeterminism is the cluster-level determinism property:
// for an arbitrary (app, protocol mode, threads-per-node, seed, worker
// count), the parallel engine must reproduce the serial engine's run
// bit-for-bit — same virtual times, same wire and protocol counters,
// same vmmc metrics, same RNG draw sequence, same final memory image.
// This is the end-to-end counterpart of sim's TestParallelDeterminism:
// it drives the full SVM protocol stack (locks, barriers, two-phase
// diff propagation, checkpoints) over the lane engine rather than a
// synthetic workload.
func FuzzParallelDeterminism(f *testing.F) {
	f.Add(uint8(0), int64(1), uint8(2), false, uint8(1))
	f.Add(uint8(1), int64(7), uint8(4), true, uint8(2))
	f.Add(uint8(2), int64(42), uint8(3), true, uint8(1))
	f.Add(uint8(3), int64(99), uint8(4), false, uint8(2))
	f.Add(uint8(0), int64(1234), uint8(2), true, uint8(2))
	f.Fuzz(func(t *testing.T, appIdx uint8, seed int64, workers uint8, ft bool, tpn uint8) {
		pool := []string{"counter", "falseshare", "fft", "waternsq"}
		app := pool[int(appIdx)%len(pool)]
		w := 2 + int(workers)%3
		tp := 1 + int(tpn)%2
		if seed < 0 {
			seed = -seed
		}
		mode := svm.ModeBase
		if ft {
			mode = svm.ModeFT
		}
		serial := parallelCell(t, app, mode, tp, seed, 1)
		par := parallelCell(t, app, mode, tp, seed, w)
		if serial != par {
			t.Fatalf("%s mode=%v tpn=%d seed=%d: workers=%d fingerprint %s != serial %s",
				app, mode, tp, seed, w, par, serial)
		}
	})
}
