// Package harness runs the paper's experiments: each SPLASH-2 workload
// under the base and extended protocols, on the paper's configurations
// (8 nodes with 1 or 2 compute threads per node), collecting the
// execution-time breakdowns of Figures 7-10 plus ablation sweeps.
package harness

import (
	"fmt"
	"io"
	"strings"

	"ftsvm/internal/apps"
	"ftsvm/internal/model"
	"ftsvm/internal/obs"
	"ftsvm/internal/par"
	"ftsvm/internal/serve"
	"ftsvm/internal/svm"
)

// AppNames lists the application suite in the paper's order.
var AppNames = []string{"fft", "lu", "waternsq", "watersp", "radix", "volrend"}

// Size selects problem scale.
type Size string

const (
	// SizeSmall is for tests: seconds of virtual time, milliseconds of
	// wall time.
	SizeSmall Size = "small"
	// SizeMedium is a quarter-scale run for quick experiments.
	SizeMedium Size = "medium"
	// SizePaper matches the paper's §5.1 problem sizes (FFT 1M points,
	// LU 1024x1024, Water 4096 molecules, Radix 4M keys, Volrend head-
	// scale).
	SizePaper Size = "paper"
)

// ParseSize maps a flag string to a Size.
func ParseSize(s string) (Size, error) {
	switch Size(s) {
	case SizeSmall, SizeMedium, SizePaper:
		return Size(s), nil
	}
	return "", fmt.Errorf("harness: unknown size %q (want small, medium, paper)", s)
}

// Build constructs the named workload at the given size for a cluster
// shape.
func Build(app string, size Size, s apps.Shape) (*apps.Workload, error) {
	if _, err := ParseSize(string(size)); err != nil {
		return nil, err
	}
	for _, b := range builders {
		if b.name == app {
			return b.build(size, s)
		}
	}
	return nil, fmt.Errorf("harness: unknown app %q", app)
}

// Apps lists every application Build knows.
func Apps() []string {
	names := make([]string, len(builders))
	for i, b := range builders {
		names[i] = b.name
	}
	return names
}

// bySize picks a problem parameter for a size ParseSize accepted.
func bySize(z Size, small, medium, paper int) int {
	switch z {
	case SizeSmall:
		return small
	case SizeMedium:
		return medium
	}
	return paper
}

// builders is every application Build knows: the paper's suite
// (AppNames, in its order), then the extensions and the micro-workloads
// written for failure-point sweeps.
var builders = []struct {
	name  string
	build func(z Size, s apps.Shape) (*apps.Workload, error)
}{
	{"fft", func(z Size, s apps.Shape) (*apps.Workload, error) {
		return apps.FFT(s, bySize(z, 4096, 65536, 1<<20)), nil
	}},
	{"lu", func(z Size, s apps.Shape) (*apps.Workload, error) {
		return apps.LU(s, bySize(z, 128, 512, 1024), 16), nil
	}},
	{"waternsq", func(z Size, s apps.Shape) (*apps.Workload, error) {
		return apps.WaterNsq(s, bySize(z, 256, 1024, 4096), 2), nil
	}},
	{"watersp", func(z Size, s apps.Shape) (*apps.Workload, error) {
		return apps.WaterSp(s, bySize(z, 256, 1024, 4096), 2), nil
	}},
	{"radix", func(z Size, s apps.Shape) (*apps.Workload, error) {
		return apps.Radix(s, bySize(z, 1<<16, 1<<20, 4<<20)), nil
	}},
	{"volrend", func(z Size, s apps.Shape) (*apps.Workload, error) {
		return apps.Volrend(s, bySize(z, 32, 64, 128), bySize(z, 64, 128, 256)), nil
	}},
	// Nearest-neighbour stencil extension (not in the paper's figures).
	{"ocean", func(z Size, s apps.Shape) (*apps.Workload, error) {
		return apps.Ocean(s, bySize(z, 64, 258, 514), 6), nil
	}},
	// The §6 "broader application domain" extension: a transactional
	// key-value server (not part of the paper's figures).
	{"kvstore", func(z Size, s apps.Shape) (*apps.Workload, error) {
		return apps.KVStore(s, bySize(z, 32, 128, 512), 32, bySize(z, 100, 1000, 5000)), nil
	}},
	// The open-loop serving workload (internal/serve), here for chaos and
	// ablation sweeps; `svm serve` owns its latency reporting.
	{"kvserve", func(z Size, s apps.Shape) (*apps.Workload, error) {
		sp := serve.DefaultSpec()
		sp.Nodes = s.Nodes
		sp.ThreadsPerNode = s.ThreadsPerNode
		sp.Requests = bySize(z, 100, 400, 2000)
		d, err := serve.NewDriver(sp, s.PageSize)
		if err != nil {
			return nil, err
		}
		return d.Workload(), nil
	}},
	// Micro workloads for exhaustive failure-point sweeps (svm fi): a
	// locked counter, a multi-writer page, a few-bucket KV store.
	{"counter", func(z Size, s apps.Shape) (*apps.Workload, error) {
		return apps.Counter(s, bySize(z, 6, 24, 96)), nil
	}},
	{"falseshare", func(z Size, s apps.Shape) (*apps.Workload, error) {
		return apps.FalseShare(s, bySize(z, 8, 32, 128)), nil
	}},
	{"kvmicro", func(z Size, s apps.Shape) (*apps.Workload, error) {
		return apps.KVStore(s, 4, 8, bySize(z, 4, 8, 16)), nil
	}},
}

// Tier names a cluster-scale preset. The paper's grid stops at 8 nodes;
// the larger tiers turn on the scale-out machinery (spanning-tree release
// broadcast, delta-encoded vector times, bounded rotating probe windows)
// that keeps per-node protocol cost sub-linear past it.
type Tier string

const (
	// TierPaper is the zero value: whatever the cell's Nodes field says,
	// with every scale-out knob off — the paper's behavior, bit-identical
	// to the seed.
	TierPaper Tier = ""
	// TierLarge is a 64-node cluster: arity-4 release tree (depth 3),
	// delta vector times, 3-neighbor rotating probes, and a lock backoff
	// window widened for 64-way contention.
	TierLarge Tier = "large"
	// TierHuge is a 256-node cluster: arity-8 release tree (depth 3),
	// delta vector times, 3-neighbor rotating probes, and a lock backoff
	// window widened for 256-way contention.
	TierHuge Tier = "huge"
	// TierXLarge is a 512-node cluster: the huge tier's knobs (arity-8
	// tree, now depth 4; delta vector times; rotating probes; scaled
	// backoff) plus the consistent-hashed home directory — at this size
	// the flat directory's full-scan rehoming and fully materialized
	// home arrays are the dominant recovery-path cost.
	TierXLarge Tier = "xlarge"
)

// ParseTier maps a flag string to a Tier.
func ParseTier(s string) (Tier, error) {
	switch s {
	case "", "paper":
		return TierPaper, nil
	case "large":
		return TierLarge, nil
	case "huge":
		return TierHuge, nil
	case "xlarge":
		return TierXLarge, nil
	}
	return TierPaper, fmt.Errorf("harness: unknown tier %q (want paper, large, huge, or xlarge)", s)
}

// Apply sets the tier's cluster shape and scale-out knobs on cfg. A cell
// that also sets Nodes explicitly overrides the tier's node count (e.g. a
// 64-node run with the huge tier's knobs).
func (t Tier) Apply(cfg *model.Config) error {
	switch t {
	case TierPaper:
	case TierLarge:
		cfg.Nodes = 64
		cfg.FanoutArity = 4
		cfg.VTCodec = model.VTDelta
		cfg.ProbeNeighbors = 3
		cfg.LockBackoffMaxNs = ScaledLockBackoffMaxNs(64)
	case TierHuge:
		cfg.Nodes = 256
		cfg.FanoutArity = 8
		cfg.VTCodec = model.VTDelta
		cfg.ProbeNeighbors = 3
		cfg.LockBackoffMaxNs = ScaledLockBackoffMaxNs(256)
	case TierXLarge:
		cfg.Nodes = 512
		cfg.FanoutArity = 8
		cfg.VTCodec = model.VTDelta
		cfg.ProbeNeighbors = 3
		cfg.LockBackoffMaxNs = ScaledLockBackoffMaxNs(512)
		cfg.Directory = model.DirHashed
	default:
		return fmt.Errorf("harness: unknown tier %q", string(t))
	}
	return nil
}

// ScaledLockBackoffMaxNs is the polling-lock backoff ceiling for an
// n-node cluster. The paper's 40 µs window (model.Default) is tuned for
// at most 7 contenders: each polling round costs the lock home ~4
// messages plus a reply whose vector timestamp grows with N, so once
// N-1 contenders re-poll faster than the home NIC can serve them the
// home's queue — and with it the virtual time per lock handoff —
// diverges; the paper-grid window live-locks a 64-way contended lock.
// Both the contender count and the per-round service time grow with N,
// so the window scales quadratically, keeping home occupancy per
// backoff window roughly constant as the cluster grows.
func ScaledLockBackoffMaxNs(nodes int) int64 {
	return 40_000 * int64(nodes) * int64(nodes) / 64
}

// Config is one experiment cell.
type Config struct {
	App  string
	Size Size
	Mode svm.Mode
	// Tier applies a scale preset before Nodes/Overrides; the zero value
	// is the paper grid (no scale-out knobs).
	Tier           Tier
	Nodes          int
	ThreadsPerNode int
	LockAlgo       svm.LockAlgo
	// AggregateDiffs enables the §6 batched diff propagation.
	AggregateDiffs bool
	// UnsafeSinglePhase collapses the two propagation phases (ablation:
	// the price of failure atomicity).
	UnsafeSinglePhase bool
	// SerialReleases serializes each node's lock releases, as the
	// extended protocol does, under the base protocol too (ablation: the
	// price of release serialization, §4.4).
	SerialReleases bool
	// FullTwins makes every write fault copy the whole page into its twin
	// and mark every chunk dirty (ablation: full-page twin copies and
	// full-page diff scans, the pre-tracking behavior). Protocol outputs
	// are identical either way; only host time moves.
	FullTwins bool
	// Detection selects the failure detector: the zero value is the free
	// oracle (seed behavior); model.DetectProbe pays for real probe/ack
	// traffic.
	Detection model.DetectionMode
	// Chaos, when non-nil, replaces the cost model's (disabled) chaos
	// block — usually one of ChaosScenarios.
	Chaos *model.Chaos
	// Overrides tweaks the cost model before the run (ablations).
	Overrides func(*model.Config)
	// Audit attaches the online invariant auditor (every invariant, after
	// every event). Auditing is a host-side check: virtual metrics are
	// unchanged, only wall time grows.
	Audit bool
	// Workers selects the simulation engine: <= 1 runs the serial engine
	// (the default), > 1 the conservative parallel engine with that many
	// lane workers. Virtual metrics are bit-identical either way.
	Workers int
	// KillKind, when non-empty, injects a node failure: KillVictim is
	// fail-stopped the first time it records this event kind (e.g.
	// "release.done") with sequence number KillSeq (its release count,
	// barrier epoch or lock id; 0 matches any). The kill comes from the
	// flight recorder's sink, as `svm fi`'s do. Requires Mode ==
	// svm.ModeFT, a known kind, a victim inside the cluster and KillSeq
	// >= 0, or Run returns an error; so does a kill the run never
	// reaches. Kill cells always run serially.
	KillKind   string
	KillVictim int
	KillSeq    int64
}

// Result is one experiment outcome.
type Result struct {
	Config
	ExecNs    int64
	Breakdown svm.Breakdown
	MsgsSent  int64
	BytesSent int64
	// PostStallNs is total sender time blocked on full post queues.
	PostStallNs int64
	// Checkpoints is the total number of thread-state checkpoints taken.
	Checkpoints int64
	// Proto carries the cluster's protocol event counters.
	Proto svm.ProtoStats
	// DirBytes is the resident footprint of the page + lock home
	// directories at the end of the run.
	DirBytes int64
	// Phase holds the failure-lifecycle milestones (virtual times; zero
	// fields when no failure happened).
	Phase svm.PhaseTimes
	// EngineWorkers is the number of engine workers the run actually used
	// (1 when Config.Workers <= 1 or the run fell back to serial);
	// SerialFallback is the reason for a fallback, "" otherwise.
	EngineWorkers  int
	SerialFallback string
	Err            error
}

// RunGrid executes the cells concurrently on up to GOMAXPROCS workers and
// returns the results in input order. Each simulation is deterministic and
// fully independent (own engine, own page pool, own workload instance), so
// the results are identical to running the cells serially — only the
// wall-clock time changes.
func RunGrid(cells []Config) []Result { return par.Map(cells, 0, Run, nil) }

// ModelConfig assembles the cell's cost-model configuration: defaults,
// then the tier preset, then the cell's explicit shape fields, then the
// ablation override hook. Shared by the benchmark runner and the failure
// explorer so a cell means the same cluster everywhere.
func (c Config) ModelConfig() (model.Config, error) {
	cfg := model.Default()
	if err := c.Tier.Apply(&cfg); err != nil {
		return cfg, err
	}
	if c.Nodes != 0 {
		cfg.Nodes = c.Nodes
	}
	if c.ThreadsPerNode != 0 {
		cfg.ThreadsPerNode = c.ThreadsPerNode
	}
	cfg.Detection = c.Detection
	if c.Chaos != nil {
		cfg.Chaos = *c.Chaos
	}
	if c.Overrides != nil {
		c.Overrides(&cfg)
	}
	return cfg, nil
}

// NewCluster builds c's workload and the cluster that runs it, without
// running it: the one place a cell becomes svm.Options. KillKind is
// Run's alone.
func NewCluster(c Config) (*svm.Cluster, *apps.Workload, error) {
	cfg, err := c.ModelConfig()
	if err != nil {
		return nil, nil, err
	}
	w, err := Build(c.App, c.Size, apps.Shape{Nodes: cfg.Nodes, ThreadsPerNode: cfg.ThreadsPerNode, PageSize: cfg.PageSize})
	if err != nil {
		return nil, nil, err
	}
	cl, err := svm.New(svm.Options{Config: cfg, Mode: c.Mode, LockAlgo: c.LockAlgo,
		Pages: w.Pages, Locks: w.Locks, HomeAssign: w.HomeAssign, Body: w.Body,
		SerialReleases: c.SerialReleases, AggregateDiffs: c.AggregateDiffs,
		UnsafeSinglePhase: c.UnsafeSinglePhase, FullTwins: c.FullTwins, Workers: c.Workers})
	return cl, w, err
}

// Run executes one experiment cell to a verified finish
// (svm.Cluster.Verify with the workload's self-check).
func Run(c Config) Result {
	var kind obs.Kind
	if c.KillKind != "" {
		cfg, err := c.ModelConfig()
		if err == nil {
			kind, err = c.checkKill(cfg.Nodes)
		}
		if err != nil {
			return Result{Config: c, Err: err}
		}
	}
	cl, w, err := NewCluster(c)
	if err != nil {
		return Result{Config: c, Err: err}
	}
	var fired *bool
	if c.KillKind != "" {
		fired = killOn(cl, kind, c.KillVictim, c.KillSeq)
	}
	if c.Audit {
		cl.EnableAuditor()
	}
	if err := cl.Run(); err != nil {
		return Result{Config: c, Err: err}
	}
	if fired != nil && !*fired {
		return Result{Config: c, Err: fmt.Errorf("harness: kill never fired: node %d did not record %s (KillSeq %d)", c.KillVictim, c.KillKind, c.KillSeq)}
	}
	if err := cl.Verify(w.Err); err != nil {
		return Result{Config: c, Err: err}
	}
	r := Result{
		Config:         c,
		ExecNs:         cl.ExecTime(),
		Breakdown:      cl.AvgBreakdown(),
		Proto:          cl.ProtoStats(),
		EngineWorkers:  cl.EngineWorkers(),
		SerialFallback: cl.SerialFallbackReason(),
	}
	tr := cl.Network().Totals()
	r.MsgsSent, r.BytesSent, r.PostStallNs = tr.MsgsSent, tr.BytesSent, tr.PostStallsNs
	r.Checkpoints = cl.CheckpointCount()
	r.DirBytes = cl.DirectoryBytes()
	r.Phase = cl.PhaseTimes()
	return r
}

// checkKill resolves the cell's KillKind, rejecting a failure injection
// the cell cannot perform: one into the base protocol, which does not
// survive it, or one that names a node, an event kind or an occurrence
// that does not exist and so would silently run healthy.
func (c Config) checkKill(nodes int) (obs.Kind, error) {
	kind, ok := obs.KindByName(c.KillKind)
	switch {
	case c.Mode != svm.ModeFT:
		return kind, fmt.Errorf("harness: KillKind %q needs the extended protocol, not %s", c.KillKind, c.Mode)
	case c.KillVictim < 0 || c.KillVictim >= nodes:
		return kind, fmt.Errorf("harness: KillVictim %d is not a node of a %d-node cluster", c.KillVictim, nodes)
	case c.KillSeq < 0:
		return kind, fmt.Errorf("harness: KillSeq %d is negative (0: any)", c.KillSeq)
	case !ok:
		return kind, fmt.Errorf("harness: unknown KillKind %q", c.KillKind)
	}
	return kind, nil
}

// killOn fail-stops node the first time it records kind with sequence
// number seq (0: any), from the flight recorder's sink as `svm fi` does,
// and reports whether it has. The recorder charges no virtual time and
// keeps no rings: the sink is all a kill needs.
func killOn(cl *svm.Cluster, kind obs.Kind, node int, seq int64) *bool {
	fired := new(bool)
	cl.EnableFlightRecorder(0).SetSink(func(e obs.Event) {
		if !*fired && e.Kind == kind && int(e.Node) == node && (seq == 0 || e.Seq == seq) {
			*fired = true
			cl.KillNode(node)
		}
	})
	return fired
}

// pairCells returns the base/extended cell pair for one configuration.
func pairCells(app string, size Size, nodes, tpn int) []Config {
	return []Config{
		{App: app, Size: size, Mode: svm.ModeBase, Nodes: nodes, ThreadsPerNode: tpn},
		{App: app, Size: size, Mode: svm.ModeFT, Nodes: nodes, ThreadsPerNode: tpn},
	}
}

// ms renders nanoseconds as milliseconds with one decimal.
func ms(ns int64) string { return fmt.Sprintf("%.1f", float64(ns)/1e6) }

// Overhead returns the extended-over-base execution overhead in percent.
func Overhead(base, ext Result) float64 {
	if base.ExecNs == 0 {
		return 0
	}
	return 100 * float64(ext.ExecNs-base.ExecNs) / float64(base.ExecNs)
}

// FigureBreakdown renders the paper's Figure 7/9 (4-component) or 8/10
// (6-component) table for the given thread count. Like the other
// renderers it returns the number of cells that ended in an ERROR row.
func FigureBreakdown(out io.Writer, size Size, nodes, tpn int, six bool) (failed int) {
	kind, cols := "Figure 7", "compute data lock barrier"
	switch {
	case six && tpn == 1:
		kind, cols = "Figure 8", "compute data sync diffs proto ckpt"
	case !six && tpn == 2:
		kind = "Figure 9"
	case six && tpn == 2:
		kind, cols = "Figure 10", "compute data sync diffs proto ckpt"
	}
	fmt.Fprintf(out, "%s: execution time breakdown (ms/thread), %d nodes x %d thread(s)/node, size=%s\n",
		kind, nodes, tpn, size)
	fmt.Fprintf(out, "%-14s %-9s %9s  %s\n", "app", "protocol", "total", columnHeader(cols))
	var cells []Config
	for _, app := range AppNames {
		cells = append(cells, pairCells(app, size, nodes, tpn)...)
	}
	results := RunGrid(cells)
	for i, app := range AppNames {
		base, ext := results[2*i], results[2*i+1]
		for _, r := range []Result{base, ext} {
			if r.Err != nil {
				failed++
				fmt.Fprintf(out, "%-14s %-9s ERROR: %v\n", app, r.Mode, r.Err)
				continue
			}
			fmt.Fprintf(out, "%-14s %-9s %9s  %s\n", app, r.Mode, ms(r.ExecNs), breakdownCells(r.Breakdown, six))
		}
		if base.Err == nil && ext.Err == nil {
			fmt.Fprintf(out, "%-14s overhead %+8.0f%%\n", app, Overhead(base, ext))
		}
	}
	return failed
}

func columnHeader(cols string) string {
	var b strings.Builder
	for _, c := range strings.Fields(cols) {
		fmt.Fprintf(&b, "%9s", c)
	}
	return b.String()
}

func breakdownCells(bd svm.Breakdown, six bool) string {
	var vals []int64
	if six {
		c, d, s, df, p, k := bd.SixWay()
		vals = []int64{c, d, s, df, p, k}
	} else {
		c, d, l, b := bd.FourWay()
		vals = []int64{c, d, l, b}
	}
	var b strings.Builder
	for _, v := range vals {
		fmt.Fprintf(&b, "%9s", ms(v))
	}
	return b.String()
}

// OverheadSummary prints the headline numbers (paper: 20-67% at 1 thread,
// 24-100% at 2 threads).
func OverheadSummary(out io.Writer, size Size, nodes int) (failed int) {
	for _, tpn := range []int{1, 2} {
		lo, hi := 1e18, -1e18
		fmt.Fprintf(out, "Overhead, %d nodes x %d thread(s)/node, size=%s\n", nodes, tpn, size)
		var cells []Config
		for _, app := range AppNames {
			cells = append(cells, pairCells(app, size, nodes, tpn)...)
		}
		results := RunGrid(cells)
		for i, app := range AppNames {
			base, ext := results[2*i], results[2*i+1]
			if base.Err != nil || ext.Err != nil {
				failed++
				fmt.Fprintf(out, "  %-12s ERROR base=%v ext=%v\n", app, base.Err, ext.Err)
				continue
			}
			ov := Overhead(base, ext)
			if ov < lo {
				lo = ov
			}
			if ov > hi {
				hi = ov
			}
			fmt.Fprintf(out, "  %-12s base %8s ms  extended %8s ms  overhead %+5.0f%%\n",
				app, ms(base.ExecNs), ms(ext.ExecNs), ov)
		}
		if lo <= hi { // some pair succeeded
			fmt.Fprintf(out, "  range: %+.0f%% .. %+.0f%%\n", lo, hi)
		}
	}
	return failed
}

// DiffAnalysis renders the §5.3.1 diff/checkpoint analysis table: how many
// pages each application diffs, the fraction landing on the committer's
// own home pages (the base protocol never diffs those; the extension ships
// them twice), and the checkpoint count.
func DiffAnalysis(out io.Writer, size Size, nodes int) (failed int) {
	fmt.Fprintf(out, "Diff analysis (extended protocol, %d nodes x 1 thread, size=%s)\n", nodes, size)
	fmt.Fprintf(out, "%-14s %12s %12s %10s %12s\n", "app", "pages diffed", "home pages", "home frac", "checkpoints")
	cells := make([]Config, len(AppNames))
	for i, app := range AppNames {
		cells[i] = Config{App: app, Size: size, Mode: svm.ModeFT, Nodes: nodes, ThreadsPerNode: 1}
	}
	for i, r := range RunGrid(cells) {
		app := AppNames[i]
		if r.Err != nil {
			failed++
			fmt.Fprintf(out, "%-14s ERROR: %v\n", app, r.Err)
			continue
		}
		st := r.Proto
		fmt.Fprintf(out, "%-14s %12d %12d %9.0f%% %12d\n",
			app, st.PagesDiffed, st.HomePagesDiffed, 100*st.HomeDiffFraction(), r.Checkpoints)
	}
	return failed
}

// ScalingSummary sweeps the cluster size: the paper evaluates only 8
// nodes, but the protocol's costs (dual-home diffs, replicated locks,
// backup checkpoints) shift with scale — at 2 nodes every page's two
// replicas cover the whole machine, while larger clusters localize the
// replication traffic.
func ScalingSummary(out io.Writer, size Size, apps []string) (failed int) {
	fmt.Fprintf(out, "Scaling: extended-protocol overhead vs cluster size (1 thread/node, size=%s)\n", size)
	fmt.Fprintf(out, "%-14s %8s %12s %12s %10s\n", "app", "nodes", "base ms", "extended ms", "overhead")
	nodeCounts := []int{2, 4, 8, 16}
	var cells []Config
	for _, app := range apps {
		for _, nodes := range nodeCounts {
			cells = append(cells, pairCells(app, size, nodes, 1)...)
		}
	}
	results := RunGrid(cells)
	for i, app := range apps {
		for j, nodes := range nodeCounts {
			k := 2 * (i*len(nodeCounts) + j)
			base, ext := results[k], results[k+1]
			if base.Err != nil || ext.Err != nil {
				failed++
				fmt.Fprintf(out, "%-14s %8d ERROR base=%v ext=%v\n", app, nodes, base.Err, ext.Err)
				continue
			}
			fmt.Fprintf(out, "%-14s %8d %12.1f %12.1f %+9.0f%%\n",
				app, nodes, float64(base.ExecNs)/1e6, float64(ext.ExecNs)/1e6, Overhead(base, ext))
		}
	}
	return failed
}
