package svm

import "ftsvm/internal/model"

// Availability-phase milestones: KillNode, reportFailure and
// runRecovery stamp the virtual times of the failure lifecycle (kill,
// recovery.start, recovery.done) where each happens, and the probe
// detector's suspicion-streak start comes from vmmc. The open-loop
// serving layer (internal/serve) turns these into the per-phase
// availability timeline: healthy → undetected failure → probe
// detection → recovery → re-warm.

// PhaseTimes are the virtual times of the failure-lifecycle milestones
// of a run's first (and under the single-failure model, only) failure.
// A zero field means the milestone never happened.
type PhaseTimes struct {
	// KillNs is when the node fail-stopped (KillNode).
	KillNs int64
	// Victim is the failed node id (meaningful when KillNs > 0).
	Victim int
	// SuspectNs is when the probe detector's confirming miss streak
	// against the victim began — the earliest evidence of the failure.
	// Zero in oracle mode (the oracle has no suspicion window) and when
	// the failure was confirmed through a send error instead of probes.
	SuspectNs int64
	// DetectNs is when the failure was reported and the recovery barrier
	// opened (recovery.start).
	DetectNs int64
	// RecoverNs is when the recovery actions completed (recovery.done).
	RecoverNs int64
}

// PhaseTimes returns the recorded failure-lifecycle milestones. Call
// after Run; all times are virtual.
func (cl *Cluster) PhaseTimes() PhaseTimes {
	pt := cl.phase
	if pt.KillNs > 0 && cl.cfg.Detection == model.DetectProbe {
		pt.SuspectNs = cl.net.SuspicionNs(pt.Victim)
	}
	return pt
}
