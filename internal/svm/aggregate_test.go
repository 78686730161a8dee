package svm

import (
	"testing"

	"ftsvm/internal/model"
	"ftsvm/internal/obs"
)

// runAggregate builds a cluster with batched diff propagation enabled.
func runAggregate(t *testing.T, mode Mode, body func(*Thread)) *Cluster {
	t.Helper()
	cfg := model.Default()
	cfg.Nodes = 4
	cl, err := New(Options{
		Config: cfg, Mode: mode, Pages: 8, Locks: 1,
		Body: body, AggregateDiffs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Verify(nil); err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestAggregateDiffsCounter(t *testing.T) {
	for _, mode := range []Mode{ModeBase, ModeFT} {
		t.Run(mode.String(), func(t *testing.T) {
			cl := runAggregate(t, mode, counterBody(10))
			checkCounter(t, cl, 40)
		})
	}
}

// TestAggregateDiffsMultiPage exercises batching proper: each critical
// section touches several pages homed at different nodes, so a release
// produces one batch per home instead of one message per page.
func TestAggregateDiffsMultiPage(t *testing.T) {
	body := func(th *Thread) {
		st := &counterState{}
		th.Setup(st)
		for st.Iter < 6 {
			th.Acquire(0)
			for p := 0; p < 6; p++ {
				addr := p*4096 + th.ID()*8
				th.WriteU64(addr, th.ReadU64(addr)+1)
			}
			st.Iter++
			th.Release(0)
		}
		th.Barrier()
	}
	cl := runAggregate(t, ModeFT, body)
	for p := 0; p < 6; p++ {
		for tid := 0; tid < 4; tid++ {
			if got := cl.PeekU64(p*4096 + tid*8); got != 6 {
				t.Fatalf("page %d slot %d = %d, want 6", p, tid, got)
			}
		}
	}
}

// TestAggregateReducesMessages compares message counts with and without
// batching on the multi-page workload.
func TestAggregateReducesMessages(t *testing.T) {
	count := func(agg bool) int64 {
		cfg := model.Default()
		cfg.Nodes = 4
		cl, err := New(Options{
			Config: cfg, Mode: ModeFT, Pages: 8, Locks: 1,
			AggregateDiffs: agg,
			// Barrier-only body: the message count is then dominated by
			// the deterministic diff traffic, not by timing-sensitive
			// lock-polling retries.
			Body: func(th *Thread) {
				st := &counterState{}
				th.Setup(st)
				for st.Iter < 6 {
					for p := 0; p < 6; p++ {
						addr := p*4096 + th.ID()*8
						th.WriteU64(addr, uint64(st.Iter+1))
					}
					st.Iter++
					th.Barrier()
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Run(); err != nil {
			t.Fatal(err)
		}
		var msgs int64
		for i := 0; i < cfg.Nodes; i++ {
			msgs += cl.Network().Endpoint(i).Stats().MsgsSent
		}
		return msgs
	}
	plain, agg := count(false), count(true)
	if agg >= plain {
		t.Fatalf("aggregation did not reduce messages: %d vs %d", agg, plain)
	}
}

// TestAggregateDiffsSurviveFailure injects a failure during phase 1 with
// batching on: the batched undo pre-images must still roll back correctly.
func TestAggregateDiffsSurviveFailure(t *testing.T) {
	cfg := model.Default()
	cfg.Nodes = 4
	const iters = 8
	cl, err := New(Options{
		Config: cfg, Mode: ModeFT, Pages: 8, Locks: 1,
		AggregateDiffs: true,
		Body:           counterBody(iters),
	})
	if err != nil {
		t.Fatal(err)
	}
	fired := killOn(cl, obs.KReleasePhase1, 1, 3)
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if !*fired {
		t.Skip("kill point never reached")
	}
	checkCounter(t, cl, 4*iters)
	verifyReplicaInvariants(t, cl)
}

// TestUnsafeSinglePhaseFailureFree: the ablation mode must be exact in
// failure-free runs and cheaper than the two-phase pipeline.
func TestUnsafeSinglePhaseFailureFree(t *testing.T) {
	run := func(unsafe bool) *Cluster {
		cfg := model.Default()
		cfg.Nodes = 4
		cl, err := New(Options{
			Config: cfg, Mode: ModeFT, Pages: 8, Locks: 1,
			Body: counterBody(10), UnsafeSinglePhase: unsafe,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Run(); err != nil {
			t.Fatal(err)
		}
		checkCounter(t, cl, 40)
		return cl
	}
	two := run(false).ExecTime()
	one := run(true).ExecTime()
	if one >= two {
		t.Fatalf("single-phase (%d) not cheaper than two-phase (%d)", one, two)
	}
}
