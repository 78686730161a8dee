package serve

import "ftsvm/internal/obs"

// CellReport is the JSON form of one cell's result. Every field is an
// integer count or a virtual-time nanosecond value — nothing
// host-dependent — so two same-seed runs marshal to identical bytes; the
// root package's TestGolden pins a hash of them per serve/ cell.
type CellReport struct {
	Scenario string `json:"scenario"`
	Detect   string `json:"detect"`

	Completed int64 `json:"completed"`
	ExecNs    int64 `json:"exec_ns"`

	MeanNs int64 `json:"mean_ns"`
	P50Ns  int64 `json:"p50_ns"`
	P99Ns  int64 `json:"p99_ns"`
	P999Ns int64 `json:"p999_ns"`
	MaxNs  int64 `json:"max_ns"`

	KillNs       int64 `json:"kill_ns,omitempty"`
	SuspectNs    int64 `json:"suspect_ns,omitempty"`
	DetectNs     int64 `json:"detect_ns,omitempty"`
	RecoverNs    int64 `json:"recover_ns,omitempty"`
	RewarmEndNs  int64 `json:"rewarm_end_ns,omitempty"`
	HealthyP99Ns int64 `json:"healthy_p99_ns,omitempty"`

	Phases Phases `json:"phases"`

	Hist []obs.HistBucket `json:"hist"`
}

// Report converts the result to its JSON form.
func (r Result) Report() CellReport {
	cr := CellReport{
		Scenario:     r.Spec.Scenario,
		Detect:       r.Spec.Detect.String(),
		Completed:    r.Completed,
		ExecNs:       r.ExecNs,
		MeanNs:       r.Hist.Mean(),
		P50Ns:        r.Hist.Percentile(0.50),
		P99Ns:        r.Hist.Percentile(0.99),
		P999Ns:       r.Hist.Percentile(0.999),
		MaxNs:        r.Hist.Max(),
		KillNs:       r.Milestones.KillNs,
		SuspectNs:    r.Milestones.SuspectNs,
		DetectNs:     r.Milestones.DetectNs,
		RecoverNs:    r.Milestones.RecoverNs,
		RewarmEndNs:  r.RewarmEndNs,
		HealthyP99Ns: r.HealthyP99Ns,
		Phases:       r.Phases,
		Hist:         r.Hist.Buckets(),
	}
	return cr
}
