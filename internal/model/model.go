// Package model defines the cost model for the simulated SVM cluster: the
// latency, bandwidth, occupancy, and CPU parameters that the discrete-event
// simulation charges for every protocol and application action.
//
// Defaults are calibrated to the paper's testbed: 8 dual-processor 400 MHz
// Pentium-II nodes on a Myrinet SAN with VMMC (one-way latency ~8 µs,
// bandwidth ~100 MB/s limited by the PCI bus, 4 KB pages).
package model

import (
	"fmt"
	"math"

	"ftsvm/internal/mem"
)

// Config holds every tunable of the simulation. The zero value is not
// usable; start from Default and override fields.
type Config struct {
	// Cluster shape.
	Nodes          int // number of nodes (paper: 8)
	ThreadsPerNode int // compute threads per SMP node (paper: 1 or 2)

	// Shared-memory layout.
	PageSize int // bytes per shared page (paper: 4096)
	WordSize int // diff granularity in bytes (paper: 4-byte words)

	// Network (Myrinet + VMMC).
	LinkLatencyNs      int64   // one-way end-to-end small-message latency
	BandwidthNsPerByte float64 // inverse bandwidth of a link/DMA transfer
	NICPostOverheadNs  int64   // sender CPU+NIC occupancy to post one message
	NICDrainOverheadNs int64   // NIC occupancy per message while draining the post queue
	PostQueueDepth     int     // asynchronous send (post) queue depth; senders block when full

	// Local memory system.
	MemCopyNsPerByte     float64 // local page copy (twin creation, local fetch)
	DiffComputeNsPerByte float64 // word-compare cost of diff creation
	ReadAccessNs         int64   // charged per shared-memory read API call
	WriteAccessNs        int64   // charged per shared-memory write API call
	SMPContention        float64 // extra fractional cost per additional concurrently active thread on a node

	// Protocol processing.
	ProtoOpNs       int64 // generic protocol action (invalidate a page, handle a notice)
	PageFaultTrapNs int64 // entering/leaving the fault handler

	// Checkpointing (extended protocol only).
	CheckpointNsPerByte float64 // serialize + local staging of thread state
	MinCheckpointBytes  int     // floor for a checkpoint blob (paper stacks: 2-2.8 KB)
	ThreadSuspendNs     int64   // suspend+resume one sibling thread (point A)

	// Lock algorithm tuning.
	LockBackoffMinNs int64 // polling-lock retry backoff lower bound
	LockBackoffMaxNs int64 // polling-lock retry backoff upper bound

	// Failure detection.
	HeartbeatTimeoutNs int64         // spin period between liveness probes while waiting
	Detection          DetectionMode // how waiting processes decide a peer is dead
	ProbeTimeoutNs     int64         // probe-mode: wait this long for a probe ack before counting a miss
	ProbeMissLimit     int           // probe-mode: consecutive missed probes before a suspicion is confirmed
	// ProbeNeighbors bounds probe-mode liveness sweeps: each sweep probes
	// only this many live ring successors, rotating the window so full
	// coverage is reached over ceil((N-1)/ProbeNeighbors) sweeps instead of
	// sending O(N) probes per waiter per sweep. 0 (the default) probes every
	// node per sweep — the paper-scale behavior. Oracle mode ignores it.
	ProbeNeighbors int

	// Scale-out knobs (all zero-value = the paper's 8-node behavior).
	//
	// FanoutArity >= 2 turns the barrier master's release broadcast into a
	// k-ary spanning tree over the live membership: the master posts to its
	// k children, each interior node forwards to its own k children from NI
	// context on delivery. < 2 keeps the flat O(N) broadcast loop.
	FanoutArity int
	// VTCodec selects the wire encoding of vector timestamps (VTFull, the
	// default, models the flat 4-bytes-per-entry encoding; VTDelta models a
	// per-link delta encoding that ships only entries changed since the
	// last message on that sender->receiver link).
	VTCodec VTCodecMode
	// Directory selects the home-directory implementation (DirFlat, the
	// default, is the paper's fully materialized per-item map; DirHashed
	// computes placement from application-locality pins plus a compact
	// override table and rehomes in O(items-on-failed + log N)).
	Directory DirectoryMode

	// ReplicaDegree is the home-replication degree k: every shared page
	// and lock keeps k full copies on k distinct nodes, and the extended
	// protocol survives any k-1 overlapping fail-stops. 0 (the default)
	// means 2 — the paper's primary/secondary pair — and is bit-identical
	// to the seed by construction.
	ReplicaDegree int

	// Retransmission. 0 means derived per message: 4*LinkLatencyNs plus
	// twice the serialization time (size * BandwidthNsPerByte), so a lost
	// 4 KB diff is not declared missing before its DMA could have finished.
	RetxTimeoutNs int64

	// Network chaos (all zero / disabled by default).
	Chaos Chaos

	// Simulation.
	Seed int64
}

// DetectionMode selects how the cluster decides a peer has failed.
type DetectionMode int

const (
	// DetectOracle consults the network's ground truth directly (free,
	// instantaneous, never wrong). This is the seed behavior and keeps the
	// figure grid bit-identical.
	DetectOracle DetectionMode = iota
	// DetectProbe sends real probe messages through the simulated NIC:
	// probes pay post overhead, NIC occupancy, wire latency, and bytes, and
	// a node is declared dead only after ProbeMissLimit consecutive probes
	// go unacknowledged.
	DetectProbe
)

// String returns the flag spelling of the mode.
func (m DetectionMode) String() string {
	switch m {
	case DetectOracle:
		return "oracle"
	case DetectProbe:
		return "probe"
	}
	return fmt.Sprintf("DetectionMode(%d)", int(m))
}

// ParseDetection parses a -detect flag value.
func ParseDetection(s string) (DetectionMode, error) {
	switch s {
	case "oracle":
		return DetectOracle, nil
	case "probe":
		return DetectProbe, nil
	}
	return 0, fmt.Errorf("model: unknown detection mode %q (want oracle or probe)", s)
}

// VTCodecMode selects how vector timestamps are encoded on the wire.
type VTCodecMode int

const (
	// VTFull models the flat encoding: 4 bytes per vector element on every
	// message. This is the seed behavior and keeps legacy tiers
	// bit-identical.
	VTFull VTCodecMode = iota
	// VTDelta models a per-link delta encoding: each sender tracks the last
	// vector it shipped to each destination and encodes only the entries
	// that changed since, falling back to the full encoding when the delta
	// would be larger (dense change sets). Per-sender FIFO delivery and NIC
	// retransmission make the receiver's decode context exactly the
	// sender's link state, so the encoding is lossless.
	VTDelta
)

// String returns the name of the codec mode.
func (m VTCodecMode) String() string {
	switch m {
	case VTFull:
		return "full"
	case VTDelta:
		return "delta"
	}
	return fmt.Sprintf("VTCodecMode(%d)", int(m))
}

// DirectoryMode selects the home-directory implementation.
type DirectoryMode int

const (
	// DirFlat is the paper's flat home map: two materialized per-item
	// home arrays, rehoming by full scan. The seed behavior and the
	// default on every paper-grid tier (keeps the figure grid
	// bit-identical).
	DirFlat DirectoryMode = iota
	// DirHashed is the consistent-hashed directory for the large tiers:
	// placement computed from application-locality pins, only rehomed
	// items stored (epoch-tagged per-shard overrides), and a per-node
	// reverse index so rehoming walks only the failed node's items.
	DirHashed
)

// String returns the name of the directory mode.
func (m DirectoryMode) String() string {
	switch m {
	case DirFlat:
		return "flat"
	case DirHashed:
		return "hashed"
	}
	return fmt.Sprintf("DirectoryMode(%d)", int(m))
}

// Chaos configures the deterministic per-link fault layer of the simulated
// network. All injections replay identically for a given Seed; the zero
// value disables everything.
type Chaos struct {
	Enabled bool
	Seed    int64 // chaos RNG seed, independent of Config.Seed

	// JitterNs adds a uniform [0, JitterNs) delay to each message's wire
	// latency. Per-sender FIFO delivery is preserved (delivery times are
	// clamped monotone per sender), because protocol invariants such as
	// lock-grant replication ordering depend on it.
	JitterNs int64

	// Bandwidth degradation windows: every DegradePeriodNs, the DMA
	// bandwidth term of every NIC is multiplied by DegradeFactor for
	// DegradeLenNs.
	DegradePeriodNs int64
	DegradeLenNs    int64
	DegradeFactor   float64 // >= 1; 0 or 1 means no slowdown

	// Burst loss: packets put on the wire while a burst window is active
	// are dropped (and retransmitted by the NIC after the retransmission
	// timeout, head-of-line blocking the sender — so a burst is pure added
	// latency to upper layers, never silent loss). Windows start at
	// BurstStartNs and last BurstLenNs; if BurstPeriodNs > 0 they repeat
	// with that period, otherwise there is a single window.
	BurstStartNs  int64
	BurstLenNs    int64
	BurstPeriodNs int64
	BurstSrc      int // limit to this sender node (-1: any)
	BurstDst      int // limit to this destination node (-1: any)

	// Gray nodes: slow NICs. Both the per-message drain overhead and the
	// DMA time of the listed nodes are multiplied by GrayFactor.
	GrayNodes  []int
	GrayFactor float64 // >= 1; 0 or 1 means no slowdown
}

// DegradeActive reports whether a degradation window covers virtual time t.
func (ch *Chaos) DegradeActive(t int64) bool {
	if !ch.Enabled || ch.DegradeLenNs <= 0 || ch.DegradePeriodNs <= 0 || ch.DegradeFactor <= 1 {
		return false
	}
	return t%ch.DegradePeriodNs < ch.DegradeLenNs
}

// BurstActive reports whether a burst-loss window covers virtual time t for
// a packet from src to dst.
func (ch *Chaos) BurstActive(t int64, src, dst int) bool {
	if !ch.Enabled || ch.BurstLenNs <= 0 || t < ch.BurstStartNs {
		return false
	}
	if ch.BurstSrc >= 0 && src != ch.BurstSrc {
		return false
	}
	if ch.BurstDst >= 0 && dst != ch.BurstDst {
		return false
	}
	off := t - ch.BurstStartNs
	if ch.BurstPeriodNs > 0 {
		off %= ch.BurstPeriodNs
	}
	return off < ch.BurstLenNs
}

// Gray reports whether node i has a chaos-degraded (slow) NIC.
func (ch *Chaos) Gray(i int) bool {
	if !ch.Enabled || ch.GrayFactor <= 1 {
		return false
	}
	for _, g := range ch.GrayNodes {
		if g == i {
			return true
		}
	}
	return false
}

// Default returns the paper-calibrated configuration: 8 nodes, 1 thread per
// node, Myrinet/VMMC costs.
func Default() Config {
	return Config{
		Nodes:          8,
		ThreadsPerNode: 1,

		PageSize: 4096,
		WordSize: 4,

		LinkLatencyNs:      8_000, // 8 µs one-way (paper §5.1)
		BandwidthNsPerByte: 10.0,  // ~100 MB/s
		NICPostOverheadNs:  2_000,
		NICDrainOverheadNs: 500,
		PostQueueDepth:     64,

		MemCopyNsPerByte:     1.0, // ~1 GB/s local copy
		DiffComputeNsPerByte: 3.0, // word compare + run encoding on a 400 MHz CPU
		ReadAccessNs:         25,
		WriteAccessNs:        30,
		SMPContention:        0.20,

		ProtoOpNs:       400,
		PageFaultTrapNs: 2_000,

		CheckpointNsPerByte: 2.0,
		MinCheckpointBytes:  2048,
		ThreadSuspendNs:     5_000,

		LockBackoffMinNs: 5_000,
		LockBackoffMaxNs: 40_000,

		HeartbeatTimeoutNs: 2_000_000, // 2 ms
		Detection:          DetectOracle,
		ProbeTimeoutNs:     200_000, // 200 µs: >> probe RTT, << heartbeat period
		ProbeMissLimit:     2,

		RetxTimeoutNs: 0, // derived per message size

		Chaos: Chaos{BurstSrc: -1, BurstDst: -1},

		Seed: 1,
	}
}

// RetxTimeout returns the NIC retransmission timeout for a message of size
// bytes: RetxTimeoutNs if configured, otherwise derived from the round-trip
// latency plus twice the serialization time, so large diff messages are not
// declared lost while their DMA is still plausibly in progress.
func (c *Config) RetxTimeout(size int) int64 {
	if c.RetxTimeoutNs > 0 {
		return c.RetxTimeoutNs
	}
	return 4*c.LinkLatencyNs + 2*int64(float64(size)*c.BandwidthNsPerByte)
}

// TreeDepth returns the depth of the FanoutArity-ary broadcast tree over n
// members (root at depth 0), or 1 for the flat broadcast — every member is
// one hop from the master either way when no tree is configured.
func (c *Config) TreeDepth(n int) int {
	k := c.FanoutArity
	if k < 2 || n <= 1 {
		return 1
	}
	depth, width, covered := 0, 1, 1
	for covered < n {
		width *= k
		covered += width
		depth++
	}
	return depth
}

// BarrierWaitNs returns how long a barrier (or recovery-barrier) waiter
// sleeps before running a liveness sweep. The flat-broadcast value is the
// seed's exact constant; with tree fan-out the release travels
// TreeDepth hops — each paying post overhead, k drain slots, and wire
// latency — so the timeout grows with the tree depth instead of firing
// spurious probe storms at 64+ nodes.
func (c *Config) BarrierWaitNs() int64 {
	w := 4 * c.HeartbeatTimeoutNs
	if c.FanoutArity >= 2 {
		hop := c.LinkLatencyNs + c.NICPostOverheadNs + int64(c.FanoutArity)*c.NICDrainOverheadNs
		w += 2 * int64(c.TreeDepth(c.Nodes)) * hop
	}
	return w
}

// Validate reports the first structural problem with the configuration.
func (c *Config) Validate() error {
	if err := c.validateCosts(); err != nil {
		return err
	}
	switch {
	case c.Nodes < 1:
		return fmt.Errorf("model: Nodes = %d, need >= 1", c.Nodes)
	case c.ThreadsPerNode < 1:
		return fmt.Errorf("model: ThreadsPerNode = %d, need >= 1", c.ThreadsPerNode)
	case c.WordSize != 4 && c.WordSize != 8:
		return fmt.Errorf("model: WordSize = %d, need 4 or 8", c.WordSize)
	case c.PostQueueDepth < 1:
		return fmt.Errorf("model: PostQueueDepth = %d, need >= 1", c.PostQueueDepth)
	case c.HeartbeatTimeoutNs <= 0:
		return fmt.Errorf("model: HeartbeatTimeoutNs must be positive")
	case c.LockBackoffMaxNs < c.LockBackoffMinNs:
		return fmt.Errorf("model: lock backoff max < min")
	case c.Detection != DetectOracle && c.Detection != DetectProbe:
		return fmt.Errorf("model: unknown Detection mode %d", int(c.Detection))
	case c.FanoutArity < 0 || c.FanoutArity == 1:
		return fmt.Errorf("model: FanoutArity = %d, need 0 (flat) or >= 2", c.FanoutArity)
	case c.VTCodec != VTFull && c.VTCodec != VTDelta:
		return fmt.Errorf("model: unknown VTCodec mode %d", int(c.VTCodec))
	case c.Directory != DirFlat && c.Directory != DirHashed:
		return fmt.Errorf("model: unknown Directory mode %d", int(c.Directory))
	case c.ProbeNeighbors < 0:
		return fmt.Errorf("model: ProbeNeighbors = %d, need >= 0 (0: probe all)", c.ProbeNeighbors)
	case c.ReplicaDegree != 0 && (c.ReplicaDegree < 2 || c.ReplicaDegree > c.Nodes):
		return fmt.Errorf("model: ReplicaDegree = %d, need 0 (default 2) or 2..Nodes", c.ReplicaDegree)
	}
	if c.Detection == DetectProbe {
		if c.ProbeTimeoutNs <= 0 {
			return fmt.Errorf("model: probe detection needs ProbeTimeoutNs > 0")
		}
		if c.ProbeMissLimit < 1 {
			return fmt.Errorf("model: probe detection needs ProbeMissLimit >= 1")
		}
	}
	if ch := &c.Chaos; ch.Enabled {
		switch {
		case ch.DegradeLenNs > 0 && ch.DegradePeriodNs < ch.DegradeLenNs:
			return fmt.Errorf("model: Chaos degrade window longer than its period")
		case ch.DegradeLenNs > 0 && ch.DegradeFactor < 1:
			return fmt.Errorf("model: Chaos.DegradeFactor = %g, need >= 1", ch.DegradeFactor)
		case ch.BurstLenNs > 0 && ch.BurstPeriodNs > 0 && ch.BurstPeriodNs <= ch.BurstLenNs:
			return fmt.Errorf("model: Chaos burst window covers its whole period — the network would never heal")
		case ch.BurstSrc >= c.Nodes || ch.BurstDst >= c.Nodes:
			return fmt.Errorf("model: Chaos burst endpoint out of range")
		case len(ch.GrayNodes) > 0 && ch.GrayFactor < 1:
			return fmt.Errorf("model: Chaos.GrayFactor = %g, need >= 1", ch.GrayFactor)
		}
		for _, g := range ch.GrayNodes {
			if g < 0 || g >= c.Nodes {
				return fmt.Errorf("model: Chaos gray node %d out of range", g)
			}
		}
	}
	// Diff geometry: the word size must divide the page size, or the diff
	// engine would silently mis-handle the tail of every page.
	if err := mem.CheckGeometry(c.PageSize, c.WordSize); err != nil {
		return fmt.Errorf("model: %w", err)
	}
	return nil
}

// validateCosts rejects a cost the simulation cannot charge: a float64
// that is NaN, infinite or negative (a NaN or +Inf bandwidth converts to
// a garbage int64 occupancy; a negative copy cost runs time backwards),
// a negative duration, or a negative checkpoint floor. It checks the chaos
// fields whether or not chaos is enabled.
func (c *Config) validateCosts() error {
	ch := &c.Chaos
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"BandwidthNsPerByte", c.BandwidthNsPerByte},
		{"MemCopyNsPerByte", c.MemCopyNsPerByte},
		{"DiffComputeNsPerByte", c.DiffComputeNsPerByte},
		{"SMPContention", c.SMPContention},
		{"CheckpointNsPerByte", c.CheckpointNsPerByte},
		{"Chaos.DegradeFactor", ch.DegradeFactor},
		{"Chaos.GrayFactor", ch.GrayFactor},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
			return fmt.Errorf("model: %s = %g, need a finite value >= 0", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"LinkLatencyNs", c.LinkLatencyNs},
		{"NICPostOverheadNs", c.NICPostOverheadNs},
		{"NICDrainOverheadNs", c.NICDrainOverheadNs},
		{"ReadAccessNs", c.ReadAccessNs},
		{"WriteAccessNs", c.WriteAccessNs},
		{"ProtoOpNs", c.ProtoOpNs},
		{"PageFaultTrapNs", c.PageFaultTrapNs},
		{"ThreadSuspendNs", c.ThreadSuspendNs},
		{"LockBackoffMinNs", c.LockBackoffMinNs},
		{"ProbeTimeoutNs", c.ProbeTimeoutNs},
		{"RetxTimeoutNs", c.RetxTimeoutNs},
		{"Chaos.JitterNs", ch.JitterNs},
		{"Chaos.DegradePeriodNs", ch.DegradePeriodNs},
		{"Chaos.DegradeLenNs", ch.DegradeLenNs},
		{"Chaos.BurstStartNs", ch.BurstStartNs},
		{"Chaos.BurstLenNs", ch.BurstLenNs},
		{"Chaos.BurstPeriodNs", ch.BurstPeriodNs},
	} {
		if f.v < 0 {
			return fmt.Errorf("model: %s = %d, need >= 0", f.name, f.v)
		}
	}
	if c.MinCheckpointBytes < 0 {
		return fmt.Errorf("model: MinCheckpointBytes = %d, need >= 0", c.MinCheckpointBytes)
	}
	return nil
}

// Degree returns the effective home-replication degree: ReplicaDegree,
// or 2 (the paper's primary/secondary pair) when unset.
func (c *Config) Degree() int {
	if c.ReplicaDegree == 0 {
		return 2
	}
	return c.ReplicaDegree
}

// TransferNs returns the modeled wire time for a message of size bytes:
// latency plus size over bandwidth.
func (c *Config) TransferNs(size int) int64 {
	return c.LinkLatencyNs + int64(float64(size)*c.BandwidthNsPerByte)
}

// CopyNs returns the modeled local memory-copy time for size bytes.
func (c *Config) CopyNs(size int) int64 {
	return int64(float64(size) * c.MemCopyNsPerByte)
}

// DiffNs returns the modeled CPU time to compute a diff over size bytes.
func (c *Config) DiffNs(size int) int64 {
	return int64(float64(size) * c.DiffComputeNsPerByte)
}

// CheckpointNs returns the modeled CPU time to capture a checkpoint blob of
// size bytes (before transmission, which is charged separately).
func (c *Config) CheckpointNs(size int) int64 {
	if size < c.MinCheckpointBytes {
		size = c.MinCheckpointBytes
	}
	return int64(float64(size) * c.CheckpointNsPerByte)
}

// Contention scales a CPU cost by the SMP memory-bus contention factor for
// a node with active concurrently running threads.
func (c *Config) Contention(cost int64, active int) int64 {
	if active <= 1 {
		return cost
	}
	return int64(float64(cost) * (1 + c.SMPContention*float64(active-1)))
}
