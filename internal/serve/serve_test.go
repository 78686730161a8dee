package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"ftsvm/internal/model"
	"ftsvm/internal/svm"
)

func testSpec() Spec {
	sp := DefaultSpec()
	sp.Requests = 150
	return sp
}

// TestServeHealthy: an undisturbed cell completes every request, the
// whole run is the healthy phase, and the histogram is fully populated.
func TestServeHealthy(t *testing.T) {
	sp := testSpec()
	r := RunCell(sp)
	if r.Err != nil {
		t.Fatalf("RunCell: %v", r.Err)
	}
	wantOps := int64(sp.Nodes * sp.ThreadsPerNode * sp.Requests)
	if r.Completed != wantOps {
		t.Fatalf("completed %d requests, want %d", r.Completed, wantOps)
	}
	if r.Hist.Count() != wantOps {
		t.Fatalf("histogram holds %d samples, want %d", r.Hist.Count(), wantOps)
	}
	if r.Phases.HealthyNs != r.ExecNs {
		t.Fatalf("healthy phase %d != exec %d", r.Phases.HealthyNs, r.ExecNs)
	}
	if r.Hist.Percentile(0.5) <= 0 || r.Hist.Percentile(0.99) < r.Hist.Percentile(0.5) {
		t.Fatalf("implausible percentiles: p50=%d p99=%d", r.Hist.Percentile(0.5), r.Hist.Percentile(0.99))
	}
}

// TestServeKillPhases: a kill cell recovers, completes every request
// exactly once (the verify stage checks PUT sums), and its phase
// durations tile the run exactly.
func TestServeKillPhases(t *testing.T) {
	for _, det := range []model.DetectionMode{model.DetectOracle, model.DetectProbe} {
		sp := testSpec()
		sp.Detect = det
		sp.KillAtNs = 8_000_000
		r := RunCell(sp)
		if r.Err != nil {
			t.Fatalf("%s: RunCell: %v", det, r.Err)
		}
		m := r.Milestones
		if m.KillNs != sp.KillAtNs || m.Victim != sp.Victim {
			t.Fatalf("%s: milestones %+v, want kill at %d of node %d", det, m, sp.KillAtNs, sp.Victim)
		}
		if m.DetectNs <= m.KillNs || m.RecoverNs <= m.DetectNs {
			t.Fatalf("%s: milestones out of order: %+v", det, m)
		}
		ph := r.Phases
		sum := ph.HealthyNs + ph.UndetectedNs + ph.DetectingNs + ph.RecoveryNs + ph.RewarmNs + ph.RestoredNs
		if sum != r.ExecNs {
			t.Fatalf("%s: phases sum to %d, exec is %d (%+v)", det, sum, r.ExecNs, ph)
		}
		if ph.HealthyNs != m.KillNs || ph.RecoveryNs != m.RecoverNs-m.DetectNs {
			t.Fatalf("%s: phase/milestone mismatch: %+v vs %+v", det, ph, m)
		}
		if r.Hist.Percentile(0.999) < r.HealthyP99Ns {
			t.Fatalf("%s: failure-run p999 %d below healthy p99 %d — the stall should dominate the tail",
				det, r.Hist.Percentile(0.999), r.HealthyP99Ns)
		}
	}
}

// TestServeKillAfterRun: a kill scheduled past the end of the stream
// fires after every request completed, and no survivor ever learns of it.
// The cell passes on the availability invariant and is all healthy phase.
func TestServeKillAfterRun(t *testing.T) {
	sp := DefaultSpec()
	sp.Requests = 5
	sp.KillAtNs = 999_999_999_999
	r := RunCell(sp)
	if r.Err != nil {
		t.Fatalf("RunCell: %v", r.Err)
	}
	if want := int64(sp.Nodes * sp.ThreadsPerNode * sp.Requests); r.Completed != want {
		t.Fatalf("completed %d requests, want %d", r.Completed, want)
	}
	if m := r.Milestones; m.KillNs != sp.KillAtNs || m.RecoverNs != 0 {
		t.Fatalf("milestones %+v, want an unrecovered kill at %d", m, sp.KillAtNs)
	}
	if r.Phases.HealthyNs != r.ExecNs {
		t.Fatalf("healthy phase %d != exec %d", r.Phases.HealthyNs, r.ExecNs)
	}
}

// TestServeDeterminism: repeat runs of the same spec produce
// byte-identical cell reports — the property the golden file's serve/
// hashes rest on.
func TestServeDeterminism(t *testing.T) {
	specs := []Spec{testSpec(), testSpec(), testSpec()}
	specs[1].Detect = model.DetectProbe
	specs[1].KillAtNs = 8_000_000
	specs[2].Detect = model.DetectOracle
	specs[2].KillAtNs = 8_000_000
	specs[2].Chaos = model.Chaos{Enabled: true, Seed: 11, JitterNs: 3000, BurstStartNs: 6_000_000, BurstLenNs: 400_000, BurstSrc: -1, BurstDst: -1}
	for _, sp := range specs {
		a, b := RunCell(sp), RunCell(sp)
		if a.Err != nil || b.Err != nil {
			t.Fatalf("%s/%s: errs %v / %v", sp.Scenario, sp.Detect, a.Err, b.Err)
		}
		ja, _ := json.Marshal(a.Report())
		jb, _ := json.Marshal(b.Report())
		if !bytes.Equal(ja, jb) {
			t.Fatalf("%s/%s: repeat run diverged:\n  a: %s\n  b: %s", sp.Scenario, sp.Detect, ja, jb)
		}
	}
}

// TestServeSeedSensitivity: a different arrival seed produces a
// different request stream (guards against the streams being
// accidentally seed-independent).
func TestServeSeedSensitivity(t *testing.T) {
	a := RunCell(testSpec())
	sp := testSpec()
	sp.ArrivalSeed++
	b := RunCell(sp)
	if a.Err != nil || b.Err != nil {
		t.Fatalf("errs: %v / %v", a.Err, b.Err)
	}
	ja, _ := json.Marshal(a.Report().Hist)
	jb, _ := json.Marshal(b.Report().Hist)
	if bytes.Equal(ja, jb) {
		t.Fatalf("different arrival seeds produced identical histograms")
	}
}

// TestServeRunCells: the concurrent grid runner returns results in
// input order, identical to serial RunCell runs.
func TestServeRunCells(t *testing.T) {
	specs := []Spec{testSpec(), testSpec()}
	specs[0].Scenario = "a"
	specs[1].Scenario = "b"
	specs[1].KillAtNs = 8_000_000
	rs := RunCells(specs)
	for i, r := range rs {
		if r.Err != nil {
			t.Fatalf("cell %d: %v", i, r.Err)
		}
		if r.Spec.Scenario != specs[i].Scenario {
			t.Fatalf("cell %d out of order: got %q", i, r.Spec.Scenario)
		}
		want := RunCell(specs[i])
		ja, _ := json.Marshal(r.Report())
		jb, _ := json.Marshal(want.Report())
		if !bytes.Equal(ja, jb) {
			t.Fatalf("cell %d: concurrent run diverged from serial", i)
		}
	}
}

// TestServeOverflowReport: a keyspace wider than the table forces a
// bucket overflow, which must surface as a thread+op-identifying error
// instead of a misleading verification diff.
func TestServeOverflowReport(t *testing.T) {
	sp := testSpec()
	sp.Buckets = 4
	sp.SlotsPerBucket = 2
	sp.Keys = 64
	sp.ZipfS = 0 // uniform: hit the whole keyspace quickly
	r := RunCell(sp)
	if r.Err == nil {
		t.Fatalf("overflowing cell reported no error")
	}
	msg := r.Err.Error()
	if !strings.Contains(msg, "overflow") || !strings.Contains(msg, "thread ") {
		t.Fatalf("overflow error %q does not identify the thread and op", msg)
	}
	if strings.Contains(msg, "key count") {
		t.Fatalf("overflow misreported as a verification diff: %q", msg)
	}
}

// TestNewDriverValidation: malformed specs are rejected up front (NewDriver
// calls Spec.Validate).
func TestNewDriverValidation(t *testing.T) {
	bad := []func(*Spec){
		func(s *Spec) { s.Nodes = 1 },
		func(s *Spec) { s.Requests = 0 },
		func(s *Spec) { s.MeanGapNs = 0 },
		func(s *Spec) { s.ReadPct = 101 },
		func(s *Spec) { s.ZipfS = -1 },
		func(s *Spec) { s.KillAtNs = 1; s.Victim = 0 },
		func(s *Spec) { s.KillAtNs = 1; s.Victim = 4 },
		func(s *Spec) { s.KillAtNs = -7 },
		func(s *Spec) { s.ZipfS = math.NaN() },
		func(s *Spec) { s.ZipfS = math.Inf(1) },
		func(s *Spec) { s.ServiceNs = -1 },
		func(s *Spec) { s.RewarmFactor = math.NaN() },
		func(s *Spec) { s.RewarmFactor = 0 },
		func(s *Spec) { s.RewarmFactor = math.Inf(1) },
	}
	for i, mut := range bad {
		sp := testSpec()
		mut(&sp)
		if _, err := NewDriver(sp, 4096); err == nil {
			t.Fatalf("mutation %d accepted", i)
		}
	}
}

// Timeline unit tests against synthetic milestones and completion
// arrays — no simulation involved.

func TestTimelineNoFailure(t *testing.T) {
	ph, end := computeTimeline(1000, svm.PhaseTimes{}, nil, nil, 2)
	if ph != (Phases{HealthyNs: 1000}) || end != 0 {
		t.Fatalf("got %+v end=%d", ph, end)
	}
}

func TestTimelineUndetected(t *testing.T) {
	ph, _ := computeTimeline(1000, svm.PhaseTimes{KillNs: 400}, nil, nil, 2)
	want := Phases{HealthyNs: 400, UndetectedNs: 600}
	if ph != want {
		t.Fatalf("got %+v, want %+v", ph, want)
	}
}

func TestTimelineOracleNoSuspicion(t *testing.T) {
	// No suspicion time: the whole kill→detect window counts as
	// undetected and the detecting phase is empty.
	m := svm.PhaseTimes{KillNs: 400, DetectNs: 500, RecoverNs: 700}
	arrive := [][]int64{{100, 750}}
	done := [][]int64{{150, 790}} // post-recovery latency 40 <= 2*50
	ph, end := computeTimeline(1000, m, arrive, done, 2)
	want := Phases{HealthyNs: 400, UndetectedNs: 100, DetectingNs: 0, RecoveryNs: 200, RewarmNs: 90, RestoredNs: 210}
	if ph != want || end != 790 {
		t.Fatalf("got %+v end=%d, want %+v end=790", ph, end, want)
	}
}

func TestTimelineProbeSuspicion(t *testing.T) {
	m := svm.PhaseTimes{KillNs: 400, SuspectNs: 440, DetectNs: 500, RecoverNs: 700}
	ph, _ := computeTimeline(1000, m, [][]int64{{100}}, [][]int64{{150}}, 2)
	if ph.UndetectedNs != 40 || ph.DetectingNs != 60 {
		t.Fatalf("suspicion split wrong: %+v", ph)
	}
}

func TestTimelineRewarmNeverRecovers(t *testing.T) {
	// The single thread's post-recovery completions never get back under
	// the threshold: its re-warm extends to its last completion.
	m := svm.PhaseTimes{KillNs: 400, DetectNs: 500, RecoverNs: 700}
	arrive := [][]int64{{100, 300, 320}}
	done := [][]int64{{150, 750, 900}} // healthy p99 = 50, thresh = 100; post-recovery latencies 450, 580
	ph, end := computeTimeline(1000, m, arrive, done, 2)
	if end != 900 || ph.RewarmNs != 200 || ph.RestoredNs != 100 {
		t.Fatalf("got %+v end=%d", ph, end)
	}
}

func TestTimelineRewarmNoBaseline(t *testing.T) {
	// Nothing completed before the kill: re-warm is unmeasurable and
	// collapses to zero at the recovery point.
	m := svm.PhaseTimes{KillNs: 400, DetectNs: 500, RecoverNs: 700}
	arrive := [][]int64{{450}}
	done := [][]int64{{800}}
	ph, end := computeTimeline(1000, m, arrive, done, 2)
	if ph.RewarmNs != 0 || end != 700 || ph.RestoredNs != 300 {
		t.Fatalf("got %+v end=%d", ph, end)
	}
}

func TestTimelineDrainedThread(t *testing.T) {
	// A thread whose requests all completed before the failure adds
	// nothing to re-warm.
	m := svm.PhaseTimes{KillNs: 400, DetectNs: 500, RecoverNs: 700}
	arrive := [][]int64{{100}, {100, 750}}
	done := [][]int64{{150}, {160, 790}}
	ph, end := computeTimeline(1000, m, arrive, done, 2)
	if end != 790 || ph.RewarmNs != 90 {
		t.Fatalf("got %+v end=%d", ph, end)
	}
}

// FuzzServeDeterminism: over random loads, seeds, mixes, detection
// modes, and kill times, a cell run twice must produce byte-identical
// reports, and its phase durations must always tile the run exactly.
func FuzzServeDeterminism(f *testing.F) {
	f.Add(int64(1), uint64(7), int64(200_000), int64(0), 70, false)
	f.Add(int64(3), uint64(9), int64(120_000), int64(5_000_000), 30, true)
	f.Add(int64(5), uint64(1), int64(600_000), int64(20_000_000), 100, false)
	f.Fuzz(func(t *testing.T, seed int64, arrivalSeed uint64, gap, killAt int64, readPct int, probe bool) {
		sp := testSpec()
		sp.Requests = 60
		sp.Seed = 1 + (seed&0xff+256)%256
		sp.ArrivalSeed = arrivalSeed
		sp.MeanGapNs = 50_000 + (gap&0xfffff+0x100000)%0x100000 // 50us..1.1ms
		sp.ReadPct = ((readPct % 101) + 101) % 101
		if probe {
			sp.Detect = model.DetectProbe
		}
		if killAt != 0 {
			sp.KillAtNs = 1 + (killAt&0xffffff+0x1000000)%0x1000000 // up to ~16.8ms
			sp.Victim = 1 + int(arrivalSeed%uint64(sp.Nodes-1))
		}
		a := RunCell(sp)
		if a.Err != nil {
			t.Fatalf("RunCell: %v", a.Err)
		}
		b := RunCell(sp)
		if b.Err != nil {
			t.Fatalf("repeat RunCell: %v", b.Err)
		}
		ja, _ := json.Marshal(a.Report())
		jb, _ := json.Marshal(b.Report())
		if !bytes.Equal(ja, jb) {
			t.Fatalf("repeat run diverged:\n  a: %s\n  b: %s", ja, jb)
		}
		ph := a.Phases
		sum := ph.HealthyNs + ph.UndetectedNs + ph.DetectingNs + ph.RecoveryNs + ph.RewarmNs + ph.RestoredNs
		if sum != a.ExecNs {
			t.Fatalf("phases sum %d != exec %d (%+v, milestones %+v)", sum, a.ExecNs, ph, a.Milestones)
		}
	})
}
