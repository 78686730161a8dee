package svm

import (
	"testing"

	"ftsvm/internal/model"
	"ftsvm/internal/obs"
)

// TestMetricsNamesPinned: Metrics lists its 27 counters in a fixed order
// (the bench ledger hashes the snapshot), and each reads its source. The
// run uses probe detection and a kill so that the recovery, probe and
// checkpoint counters are not zero.
func TestMetricsNamesPinned(t *testing.T) {
	cfg := model.Default()
	cfg.Nodes = 8
	cfg.Detection = model.DetectProbe
	cl, err := New(Options{Config: cfg, Mode: ModeFT, Pages: 16, Locks: 1, Body: phasedBody(5)})
	if err != nil {
		t.Fatal(err)
	}
	cl.Engine().At(1_000_000, func() { cl.KillNode(1) })
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	checkPhased(t, cl, 5)

	s, net := cl.ProtoStats(), cl.Network()
	var tr struct{ msgs, bytes, recv, stalls int64 }
	for i := 0; i < cl.Nodes(); i++ {
		st := net.Endpoint(i).Stats()
		tr.msgs += st.MsgsSent
		tr.bytes += st.BytesSent
		tr.recv += st.MsgsReceived
		tr.stalls += st.PostStallsNs
	}
	want := obs.Snapshot{
		{Name: "svm.read_faults", Value: s.ReadFaults},
		{Name: "svm.remote_fetches", Value: s.RemoteFetches},
		{Name: "svm.local_fetches", Value: s.LocalFetches},
		{Name: "svm.write_faults", Value: s.WriteFaults},
		{Name: "svm.pages_diffed", Value: s.PagesDiffed},
		{Name: "svm.home_pages_diffed", Value: s.HomePagesDiffed},
		{Name: "svm.twin_bytes_copied", Value: s.TwinBytesCopied},
		{Name: "svm.diff_msgs", Value: s.DiffMsgs},
		{Name: "svm.diff_bytes", Value: s.DiffBytes},
		{Name: "svm.invalidations", Value: s.Invalidations},
		{Name: "svm.intervals", Value: s.Intervals},
		{Name: "svm.deferred_words", Value: s.DeferredWords},
		{Name: "svm.remote_acquires", Value: s.RemoteAcquires},
		{Name: "svm.intra_node_handoffs", Value: s.IntraNodeHandoffs},
		{Name: "svm.barrier_episodes", Value: s.BarrierEpisodes},
		{Name: "svm.recoveries", Value: s.Recoveries},
		{Name: "svm.migrated_threads", Value: s.MigratedThreads},
		{Name: "ckpt.checkpoints", Value: cl.CheckpointCount()},
		{Name: "vmmc.msgs_sent", Value: tr.msgs},
		{Name: "vmmc.bytes_sent", Value: tr.bytes},
		{Name: "vmmc.msgs_received", Value: tr.recv},
		{Name: "vmmc.post_stalls_ns", Value: tr.stalls},
		{Name: "vmmc.retransmits", Value: net.Retransmits},
		{Name: "vmmc.retx_bytes", Value: net.RetxBytes},
		{Name: "vmmc.probes_sent", Value: net.ProbesSent},
		{Name: "vmmc.probe_acks", Value: net.ProbeAcks},
		{Name: "vmmc.false_suspicions", Value: net.FalseSuspicions},
	}
	got := cl.Metrics()
	if len(got) != len(want) {
		t.Fatalf("Metrics has %d counters, want %d:\n%v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("counter %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if s.Recoveries != 1 || net.ProbesSent == 0 || cl.CheckpointCount() == 0 {
		t.Fatalf("run did not exercise recovery, probes and checkpoints: %d recoveries, %d probes, %d checkpoints",
			s.Recoveries, net.ProbesSent, cl.CheckpointCount())
	}
}

// TestPhaseTimesKeepFirstFailure: at degree 3 a second node is killed
// after the first failure has been recovered, and PhaseTimes still
// describes the first failure: its kill time and victim, and its
// episode's start and end.
func TestPhaseTimesKeepFirstFailure(t *testing.T) {
	cfg := model.Default()
	cfg.Nodes = 6
	cfg.ReplicaDegree = 3
	const iters = 16
	cl, err := New(Options{Config: cfg, Mode: ModeFT, Pages: 12, Locks: 1, Body: counterBody(iters)})
	if err != nil {
		t.Fatal(err)
	}
	var kills, starts, dones []int64
	onEvent(cl, func(e obs.Event) {
		switch {
		case e.Kind == obs.KReleaseDone && e.Node == 1 && e.Seq == 3 && len(kills) == 0,
			e.Kind == obs.KReleaseDone && e.Node == 2 && len(dones) > 0 && len(kills) == 1:
			kills = append(kills, cl.eng.Now())
			cl.KillNode(int(e.Node))
		case e.Kind == obs.KRecoveryStart:
			starts = append(starts, cl.eng.Now())
		case e.Kind == obs.KRecoveryDone:
			dones = append(dones, cl.eng.Now())
		}
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	checkCounter(t, cl, 6*iters)
	if len(kills) != 2 || len(starts) != 2 || len(dones) != 2 {
		t.Fatalf("want two separate failures: kills %v, recovery starts %v, dones %v", kills, starts, dones)
	}
	want := PhaseTimes{KillNs: kills[0], Victim: 1, DetectNs: starts[0], RecoverNs: dones[0]}
	if got := cl.PhaseTimes(); got != want {
		t.Fatalf("PhaseTimes = %+v, want the first failure's %+v (second kill at %d)", got, want, kills[1])
	}
}
