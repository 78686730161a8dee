package harness

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"ftsvm/internal/apps"
	"ftsvm/internal/obs"
	"ftsvm/internal/svm"
)

func TestBuildAllApps(t *testing.T) {
	s := apps.Shape{Nodes: 4, ThreadsPerNode: 1, PageSize: 4096}
	if all := Apps(); !slices.Equal(all[:len(AppNames)], AppNames) {
		t.Fatalf("Apps() = %v does not start with the paper's suite %v", all, AppNames)
	}
	for _, app := range Apps() {
		w, err := Build(app, SizeSmall, s)
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		if w.Pages <= 0 || w.Body == nil {
			t.Fatalf("%s: malformed workload", app)
		}
	}
	if _, err := Build("nosuch", SizeSmall, s); err == nil {
		t.Fatal("unknown app did not error")
	}
	// An unknown size must not reach the apps as problem size 0 (FFT
	// panics on it; the micro workloads run zero iterations and "pass").
	for _, app := range Apps() {
		_, err := Build(app, "bogus", s)
		if err == nil || !strings.Contains(err.Error(), `unknown size "bogus"`) {
			t.Fatalf("%s at size bogus: err = %v, want one naming the size", app, err)
		}
	}
}

func TestRunPairSmall(t *testing.T) {
	base, ext := RunPair("radix", SizeSmall, 4, 1)
	if base.Err != nil || ext.Err != nil {
		t.Fatalf("base=%v ext=%v", base.Err, ext.Err)
	}
	if base.ExecNs <= 0 || ext.ExecNs <= base.ExecNs {
		t.Fatalf("exec times base=%d ext=%d: extended must cost more", base.ExecNs, ext.ExecNs)
	}
	if ext.Checkpoints == 0 {
		t.Fatal("extended run took no checkpoints")
	}
	if base.Checkpoints != 0 {
		t.Fatal("base run took checkpoints")
	}
	if ext.MsgsSent <= base.MsgsSent {
		t.Fatal("extended protocol should send more messages (dual homes)")
	}
}

func TestFigureBreakdownRenders(t *testing.T) {
	var buf bytes.Buffer
	FigureBreakdown(&buf, SizeSmall, 4, 1, false)
	out := buf.String()
	if !strings.Contains(out, "Figure 7") || !strings.Contains(out, "fft") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	if strings.Contains(out, "ERROR") {
		t.Fatalf("figure contains errors:\n%s", out)
	}
}

func TestOverheadPositiveAcrossApps(t *testing.T) {
	for _, app := range AppNames {
		base, ext := RunPair(app, SizeSmall, 4, 1)
		if base.Err != nil || ext.Err != nil {
			t.Fatalf("%s: base=%v ext=%v", app, base.Err, ext.Err)
		}
		if ov := Overhead(base, ext); ov <= 0 {
			t.Errorf("%s: overhead %.1f%%, want positive", app, ov)
		}
	}
}

// TestRunRejectsImpossibleKills holds Run to its KillKind contract: a
// kill it cannot perform is an error, never a panic inside the base
// protocol or a cell that silently runs healthy. Every row but the last
// is rejected before anything is built; the last is found after the run:
// counter's node 1 never makes a millionth release.
func TestRunRejectsImpossibleKills(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    Config
		want string
	}{
		{"base protocol", Config{Mode: svm.ModeBase, KillKind: "release.done", KillVictim: 1}, "extended protocol"},
		{"victim out of range", Config{Mode: svm.ModeFT, KillKind: "release.done", KillVictim: 9}, "not a node"},
		{"negative victim", Config{Mode: svm.ModeFT, KillKind: "release.done", KillVictim: -1}, "not a node"},
		{"unknown kind", Config{Mode: svm.ModeFT, KillKind: "release.bogus", KillVictim: 1}, "unknown KillKind"},
		{"negative seq", Config{Mode: svm.ModeFT, KillKind: "release.done", KillVictim: 1, KillSeq: -1}, "KillSeq -1 is negative"},
		{"seq never reached", Config{Mode: svm.ModeFT, KillKind: "release.done", KillVictim: 1, KillSeq: 1_000_000}, "kill never fired"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.c
			c.App, c.Size, c.Nodes, c.ThreadsPerNode = "counter", SizeSmall, 4, 1
			r := Run(c)
			if r.Err == nil || !strings.Contains(r.Err.Error(), tc.want) {
				t.Fatalf("Err = %v (KillNs %d), want an error containing %q", r.Err, r.Phase.KillNs, tc.want)
			}
		})
	}
}

// killTracer fail-stops node the first time it emits kind with sequence
// number seq (0: any) to an svm.Tracer, as bench/cells.go's killAt does.
type killTracer struct {
	cl   *svm.Cluster
	kind string
	node int
	seq  int64
	done bool
}

func (k *killTracer) Event(e svm.TraceEvent) {
	if !k.done && e.Kind == k.kind && e.Node == k.node && (k.seq == 0 || e.Seq == k.seq) {
		k.done = true
		k.cl.KillNode(k.node)
	}
}

// TestKillPathsAgree holds Run's kill, from the flight recorder's sink,
// to the same kill from an svm.Tracer, which the bench ledger's scale
// kill cells still use. svm.Cluster.trace calls both observers from one
// point and neither charges virtual time, so the two runs must agree
// event for event. This test goes when svm.Tracer does.
func TestKillPathsAgree(t *testing.T) {
	for _, c := range []Config{
		{App: "counter", KillKind: "release.done", KillVictim: 1, KillSeq: 3},
		{App: "counter", KillKind: "release.phase1", KillVictim: 1, KillSeq: 3},
		{App: "falseshare", KillKind: "barrier.arrive", KillVictim: 3, KillSeq: 2},
		{App: "kvstore", LockAlgo: svm.LockNIC, KillKind: "lock.grant", KillVictim: 1, KillSeq: 1},
	} {
		c.Size, c.Mode, c.Nodes, c.ThreadsPerNode = SizeSmall, svm.ModeFT, 4, 1
		t.Run(c.KillKind, func(t *testing.T) {
			got := Run(c)
			// Run does not report its event count; count it on Run's own
			// path, NewCluster plus killOn.
			sink, _, err := NewCluster(c)
			if err != nil || got.Err != nil {
				t.Fatalf("NewCluster: %v; Run: %v", err, got.Err)
			}
			kind, _ := obs.KindByName(c.KillKind)
			killOn(sink, kind, c.KillVictim, c.KillSeq)
			// The same cell, built as bench/cells.go builds it.
			cfg, _ := c.ModelConfig()
			w, _ := Build(c.App, c.Size, apps.Shape{Nodes: cfg.Nodes, ThreadsPerNode: cfg.ThreadsPerNode, PageSize: cfg.PageSize})
			kt := &killTracer{kind: c.KillKind, node: c.KillVictim, seq: c.KillSeq}
			cl, err := svm.New(svm.Options{Config: cfg, Mode: c.Mode, LockAlgo: c.LockAlgo,
				Pages: w.Pages, Locks: w.Locks, HomeAssign: w.HomeAssign, Body: w.Body, Tracer: kt})
			if err != nil {
				t.Fatal(err)
			}
			kt.cl = cl
			for _, run := range []*svm.Cluster{sink, cl} {
				if err := run.Run(); err != nil {
					t.Fatal(err)
				}
			}
			want := Result{ExecNs: cl.ExecTime(), Proto: cl.ProtoStats(), Phase: cl.PhaseTimes()}
			for i := range cl.Nodes() {
				want.MsgsSent += cl.Network().Endpoint(i).Stats().MsgsSent
				want.BytesSent += cl.Network().Endpoint(i).Stats().BytesSent
			}
			switch {
			case !kt.done || w.Err() != nil:
				t.Fatalf("the tracer's kill fired: %v; its run's result check: %v", kt.done, w.Err())
			case got.ExecNs != want.ExecNs || got.MsgsSent != want.MsgsSent || got.BytesSent != want.BytesSent:
				t.Errorf("sink kill ran %d ns, %d msgs, %d bytes; tracer kill %d ns, %d msgs, %d bytes",
					got.ExecNs, got.MsgsSent, got.BytesSent, want.ExecNs, want.MsgsSent, want.BytesSent)
			case got.Proto != want.Proto:
				t.Errorf("protocol counters: sink kill %+v, tracer kill %+v", got.Proto, want.Proto)
			case got.Phase != want.Phase:
				t.Errorf("phase times: sink kill %+v, tracer kill %+v", got.Phase, want.Phase)
			case sink.Engine().Events() != cl.Engine().Events():
				t.Errorf("sink kill ran %d events, tracer kill %d", sink.Engine().Events(), cl.Engine().Events())
			}
		})
	}
}
