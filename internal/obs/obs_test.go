package obs

import (
	"strings"
	"testing"
)

func TestRingWraparound(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Append(Event{Seq: int64(i), Kind: KLockSet})
	}
	if r.Total() != 10 {
		t.Fatalf("Total = %d, want 10", r.Total())
	}
	evs := r.Last(4)
	if len(evs) != 4 {
		t.Fatalf("Last(4) returned %d events", len(evs))
	}
	for i, e := range evs {
		if want := int64(6 + i); e.Seq != want {
			t.Errorf("event %d: Seq = %d, want %d (oldest-first)", i, e.Seq, want)
		}
	}
	if got := r.Last(100); len(got) != 4 {
		t.Errorf("Last(100) returned %d events, want 4 (ring capacity)", len(got))
	}
}

func TestRingLastBeforeFull(t *testing.T) {
	r := NewRing(8)
	r.Append(Event{Seq: 1})
	r.Append(Event{Seq: 2})
	evs := r.Last(8)
	if len(evs) != 2 || evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Fatalf("Last = %+v, want seqs [1 2]", evs)
	}
}

func TestRecorderStampsAndStreams(t *testing.T) {
	now := int64(0)
	rec := NewRecorder(2, 16, func() int64 { return now })
	var streamed []Event
	rec.SetSink(func(e Event) { streamed = append(streamed, e) })

	now = 42
	rec.Record(Event{Kind: KLockGrant, Node: 1, Thread: -1, Seq: 3})
	if got := rec.Node(1).Last(1); len(got) != 1 || got[0].TimeNs != 42 {
		t.Fatalf("ring event = %+v, want TimeNs 42", got)
	}
	if len(streamed) != 1 || streamed[0].TimeNs != 42 || streamed[0].Kind != KLockGrant {
		t.Fatalf("sink got %+v", streamed)
	}
	if n := rec.Node(0).Total(); n != 0 {
		t.Errorf("node 0 recorded %d events, want 0", n)
	}
}

func TestRecordZeroAlloc(t *testing.T) {
	rec := NewRecorder(1, 64, func() int64 { return 7 })
	e := Event{Kind: KReleaseDone, Node: 0, Thread: 2, Seq: 9}
	allocs := testing.AllocsPerRun(1000, func() { rec.Record(e) })
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f objects per call, want 0", allocs)
	}
}

func TestKindStrings(t *testing.T) {
	// These names are the contract with -kinds flags, boundary IDs and
	// harness.Config.KillKind.
	want := map[Kind]string{
		KReleaseCommit: "release.commit",
		KReleasePhase1: "release.phase1",
		KReleaseSaveTS: "release.savets",
		KReleaseCkptB:  "release.ckptB",
		KReleasePhase2: "release.phase2",
		KReleaseDone:   "release.done",
		KCkptA:         "ckpt.A",
		KBarrierArrive: "barrier.arrive",
		KLockGrant:     "lock.grant",
		KKill:          "kill",
		KRecoveryStart: "recovery.start",
		KRecoveryDone:  "recovery.done",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
	for k := KNone; k < numKinds; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
}

func TestSnapshotGetMap(t *testing.T) {
	snap := Snapshot{{Name: "svm.faults", Value: 10}, {Name: "vmmc.msgs", Value: 5}}
	if v, ok := snap.Get("svm.faults"); !ok || v != 10 {
		t.Fatalf("Get(svm.faults) = %d, %v", v, ok)
	}
	if _, ok := snap.Get("svm.msgs"); ok {
		t.Fatalf("Get found a counter the snapshot does not hold")
	}
	if m := snap.Map(); len(m) != 2 || m["svm.faults"] != 10 || m["vmmc.msgs"] != 5 {
		t.Fatalf("Map = %v", m)
	}
}

func TestDump(t *testing.T) {
	rec := NewRecorder(2, 8, nil)
	rec.Record(Event{TimeNs: 1000, Kind: KLockHeld, Node: 0, Thread: 1, Seq: 2})
	var sb strings.Builder
	rec.Dump(&sb, 8)
	out := sb.String()
	for _, want := range []string{"node 0:", "node 1:", "lock.held", "seq=2"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}

// TestSinkOnlyRecorder: perNode 0 keeps no rings, yet still stamps every
// event and streams it to the sink without allocating; Node reads as no
// ring and Dump says that nothing was kept.
func TestSinkOnlyRecorder(t *testing.T) {
	rec := NewRecorder(2, 0, func() int64 { return 42 })
	var streamed []Event
	rec.SetSink(func(e Event) { streamed = append(streamed, e) })
	rec.Record(Event{Kind: KLockGrant, Node: 1, Thread: -1, Seq: 3})
	if len(streamed) != 1 || streamed[0].TimeNs != 42 || streamed[0].Kind != KLockGrant {
		t.Fatalf("sink got %+v, want one lock.grant stamped 42", streamed)
	}
	if rec.Node(0) != nil || rec.Node(1) != nil {
		t.Fatalf("sink-only recorder has rings %v %v, want none", rec.Node(0), rec.Node(1))
	}
	var sb strings.Builder
	rec.Dump(&sb, 8)
	if got := sb.String(); !strings.Contains(got, "no rings") {
		t.Errorf("Dump = %q, want it to say no rings were kept", got)
	}
	rec.SetSink(func(Event) {})
	e := Event{Kind: KReleaseDone, Node: 0, Thread: 2, Seq: 9}
	if allocs := testing.AllocsPerRun(1000, func() { rec.Record(e) }); allocs != 0 {
		t.Fatalf("sink-only Record allocates %.1f objects per call, want 0", allocs)
	}
}
