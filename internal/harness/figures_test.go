package harness

import (
	"bytes"
	"strings"
	"testing"

	"ftsvm/internal/svm"
)

// TestSixWayFigureRenders covers the Figure 8/10 rendering path.
func TestSixWayFigureRenders(t *testing.T) {
	var buf bytes.Buffer
	FigureBreakdown(&buf, SizeSmall, 4, 2, true)
	out := buf.String()
	if !strings.Contains(out, "Figure 10") || !strings.Contains(out, "ckpt") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	if strings.Contains(out, "ERROR") {
		t.Fatalf("figure contains errors:\n%s", out)
	}
}

// TestDiffAnalysisRenders covers the §5.3.1 analysis table.
func TestDiffAnalysisRenders(t *testing.T) {
	var buf bytes.Buffer
	DiffAnalysis(&buf, SizeSmall, 4)
	out := buf.String()
	if !strings.Contains(out, "home frac") || !strings.Contains(out, "waternsq") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	if strings.Contains(out, "ERROR") {
		t.Fatalf("analysis contains errors:\n%s", out)
	}
}

// TestScalingSummaryRenders covers the scaling sweep on a pair of tiny
// configurations.
func TestScalingSummaryRenders(t *testing.T) {
	var buf bytes.Buffer
	ScalingSummary(&buf, SizeSmall, []string{"volrend"})
	out := buf.String()
	if !strings.Contains(out, "Scaling") || strings.Contains(out, "ERROR") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

// TestKVStoreViaHarness exercises the §6 workload through Build/Run.
func TestKVStoreViaHarness(t *testing.T) {
	base, ext := RunPair("kvstore", SizeSmall, 4, 1)
	if base.Err != nil || ext.Err != nil {
		t.Fatalf("base=%v ext=%v", base.Err, ext.Err)
	}
	if Overhead(base, ext) <= 0 {
		t.Fatal("kvstore extended run not slower than base")
	}
}

// TestOverheadSummaryRenders covers the headline table (both thread
// counts) and checks the computed range line is well-formed.
func TestOverheadSummaryRenders(t *testing.T) {
	var buf bytes.Buffer
	failed := OverheadSummary(&buf, SizeSmall, 2)
	out := buf.String()
	if failed != 0 || strings.Contains(out, "ERROR") {
		t.Fatalf("summary reports %d failed cells:\n%s", failed, out)
	}
	for _, want := range []string{"2 nodes x 1 thread", "2 nodes x 2 thread", "range:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// No pair can run on one node: every row is an ERROR, each is
	// counted, and there is no range to print.
	buf.Reset()
	failed = OverheadSummary(&buf, SizeSmall, 1)
	out = buf.String()
	if want := 2 * len(AppNames); failed != want || strings.Count(out, "ERROR") != want {
		t.Fatalf("one-node summary reports %d failed cells, want %d:\n%s", failed, want, out)
	}
	if strings.Contains(out, "range:") {
		t.Fatalf("range line printed with no successful pair:\n%s", out)
	}
}

// TestRunErrorPaths drives every error branch of Run: unknown
// application, invalid option combination, and the degenerate one-node
// cluster the fault-tolerant protocol rejects (no distinct second home).
func TestRunErrorPaths(t *testing.T) {
	cases := []Config{
		{App: "nosuchapp", Size: SizeSmall, Mode: svm.ModeBase, Nodes: 4, ThreadsPerNode: 1},
		{App: "counter", Size: "bogus", Mode: svm.ModeFT, Nodes: 4, ThreadsPerNode: 1},
		{App: "fft", Size: SizeSmall, Mode: svm.ModeFT, LockAlgo: svm.LockQueue, Nodes: 4, ThreadsPerNode: 1},
		{App: "fft", Size: SizeSmall, Mode: svm.ModeFT, Nodes: 1, ThreadsPerNode: 1},
	}
	for _, c := range cases {
		if r := Run(c); r.Err == nil {
			t.Fatalf("config %+v: expected error", c)
		}
	}
}

// TestOverheadZeroBase guards the divide-by-zero branch.
func TestOverheadZeroBase(t *testing.T) {
	if ov := Overhead(Result{}, Result{ExecNs: 5}); ov != 0 {
		t.Fatalf("Overhead with zero base = %v, want 0", ov)
	}
}

// TestFigureBreakdownErrorRow covers the per-row error rendering: an app
// list entry that fails to build must print an ERROR row, not abort the
// whole figure. The error is provoked by temporarily shadowing AppNames.
func TestFigureBreakdownErrorRow(t *testing.T) {
	saved := AppNames
	AppNames = []string{"nosuchapp"}
	defer func() { AppNames = saved }()
	// Each renderer prints the ERROR rows and returns how many there
	// were, which is what `svm bench` turns into its exit status.
	var buf bytes.Buffer
	for _, tc := range []struct {
		name   string
		render func() int
		want   int
	}{
		{"FigureBreakdown", func() int { return FigureBreakdown(&buf, SizeSmall, 2, 1, false) }, 2},
		{"DiffAnalysis", func() int { return DiffAnalysis(&buf, SizeSmall, 2) }, 1},
		{"OverheadSummary", func() int { return OverheadSummary(&buf, SizeSmall, 2) }, 2},
		{"ScalingSummary", func() int { return ScalingSummary(&buf, SizeSmall, AppNames) }, 4},
	} {
		buf.Reset()
		failed := tc.render()
		if failed != tc.want || strings.Count(buf.String(), "ERROR") != tc.want {
			t.Fatalf("%s: %d failed cells reported, want %d:\n%s", tc.name, failed, tc.want, buf.String())
		}
	}
}
