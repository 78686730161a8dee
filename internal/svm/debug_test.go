package svm

import (
	"fmt"
	"os"
	"testing"

	"ftsvm/internal/model"
	"ftsvm/internal/obs"
)

// TestDebugFailDuringCompute is a diagnostic harness: it stops the
// simulation after a virtual-time budget and dumps thread states. Skipped
// unless run explicitly.
func TestDebugFailDuringCompute(t *testing.T) {
	if os.Getenv("SVM_DEBUG") == "" {
		t.Skip("diagnostic harness; set SVM_DEBUG=1 to run")
	}
	cfg := model.Default()
	cfg.Nodes = 4
	cfg.ThreadsPerNode = 1
	trace := []string{}
	opt := Options{
		Config: cfg, Mode: ModeFT, Pages: 8, Locks: 1,
		Body: counterBody(8),
	}
	cl, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	onEvent(cl, func(e obs.Event) {
		if len(trace) < 400 {
			trace = append(trace, fmt.Sprintf("%s n%d t%d seq%d", e.Kind, e.Node, e.Thread, e.Seq))
		}
	})
	cl.Engine().At(3_000_000, func() { cl.KillNode(2) })
	cl.Engine().At(500_000_000, func() { cl.Engine().Stop() })
	_ = cl.Run()
	for _, s := range trace[max(0, len(trace)-60):] {
		t.Log(s)
	}
	t.Logf("rec: pending=%v arrived=%d claimed=%v epoch=%d liveThreads=%d",
		cl.rec.pending, cl.rec.arrived, cl.rec.claimed, cl.rec.epoch, cl.liveThreadCount())
	for _, th := range cl.threads {
		st := "?"
		if s, ok := th.state.(*counterState); ok {
			st = fmt.Sprintf("iter=%d", s.Iter)
		}
		t.Logf("thread %d node %d dead=%v fin=%v blocked=%v inRec=%v barSeq=%d %s",
			th.id, th.node.id, th.dead, th.finished, th.blocked, th.inRecovery, th.barSeq, st)
	}
	for _, n := range cl.nodes {
		t.Logf("node %d dead=%v excl=%v vt=%v barEpoch=%d barSentEpoch=%d relBusy=%v intervals=%d",
			n.id, n.dead, n.excluded, n.vt, n.barEpoch, n.barSentEpoch, n.releaseBusy, len(n.intervals))
	}
}
