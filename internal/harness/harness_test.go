package harness

import (
	"bytes"
	"strings"
	"testing"

	"ftsvm/internal/apps"
	"ftsvm/internal/svm"
)

func TestBuildAllApps(t *testing.T) {
	s := apps.Shape{Nodes: 4, ThreadsPerNode: 1, PageSize: 4096}
	for _, app := range AppNames {
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
	for _, app := range append([]string{"counter", "kvserve"}, AppNames...) {
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
// kill it cannot perform is an error before anything is built, never a
// panic inside the base protocol or a cell that silently runs healthy.
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
