package svm

// ProtoStats aggregates protocol event counts across the cluster. The
// paper's diff analysis (§5.3.1) reasons about exactly these quantities —
// in particular the fraction of diffed pages that are *home* pages, which
// the base protocol never diffs but the extended protocol ships twice.
type ProtoStats struct {
	// Page movement.
	ReadFaults    int64 // faults entering the read-fault handler
	RemoteFetches int64 // pages fetched from a remote home
	LocalFetches  int64 // FT primary homes copying committed -> working
	WriteFaults   int64 // twin creations (pages entering an interval)
	// TwinBytesCopied counts bytes the simulator actually copied into
	// twins: lazy partial twins snapshot only first-dirtied chunks, with
	// FullTwins every write fault copies a whole page.
	// (Host-side work; the modeled twin-copy charge is unchanged.)
	TwinBytesCopied int64

	// Diff propagation.
	PagesDiffed     int64 // page-diffs captured at commits
	HomePagesDiffed int64 // of those, pages whose primary home is the committer
	DiffMsgs        int64 // diff messages posted (batches count once)
	DiffBytes       int64 // wire bytes of diff payloads

	// Consistency actions.
	Invalidations int64
	Intervals     int64 // committed intervals
	DeferredWords int64 // sibling mid-CS words deferred at commits (SMP)

	// Synchronization.
	RemoteAcquires    int64 // lock acquisitions that went to a home
	IntraNodeHandoffs int64 // lock exchanges satisfied inside one SMP
	BarrierEpisodes   int64 // completed global barrier episodes

	// Failure handling.
	Recoveries      int64
	MigratedThreads int64
}

// add accumulates o into s, field by field.
func (s *ProtoStats) add(o *ProtoStats) {
	s.ReadFaults += o.ReadFaults
	s.RemoteFetches += o.RemoteFetches
	s.LocalFetches += o.LocalFetches
	s.WriteFaults += o.WriteFaults
	s.TwinBytesCopied += o.TwinBytesCopied
	s.PagesDiffed += o.PagesDiffed
	s.HomePagesDiffed += o.HomePagesDiffed
	s.DiffMsgs += o.DiffMsgs
	s.DiffBytes += o.DiffBytes
	s.Invalidations += o.Invalidations
	s.Intervals += o.Intervals
	s.DeferredWords += o.DeferredWords
	s.RemoteAcquires += o.RemoteAcquires
	s.IntraNodeHandoffs += o.IntraNodeHandoffs
	s.BarrierEpisodes += o.BarrierEpisodes
	s.Recoveries += o.Recoveries
	s.MigratedThreads += o.MigratedThreads
}

// ProtoStats returns a snapshot of the cluster's protocol counters,
// summed over the per-node shards. Every increment happens on the node
// where the counted event occurred (lane-local under the parallel
// engine); sums commute, so the aggregate is exact and deterministic.
func (cl *Cluster) ProtoStats() ProtoStats {
	var sum ProtoStats
	for _, n := range cl.nodes {
		sum.add(&n.stats)
	}
	return sum
}

// HomeDiffFraction returns the fraction of diffed pages that were the
// committer's own primary-home pages (the paper reports >99% for
// Water-SpatialFL, ~25% for Water-Nsquared, ~12% for RadixLocal).
func (s ProtoStats) HomeDiffFraction() float64 {
	if s.PagesDiffed == 0 {
		return 0
	}
	return float64(s.HomePagesDiffed) / float64(s.PagesDiffed)
}
