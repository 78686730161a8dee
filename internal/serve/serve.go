// Package serve is the open-loop request-serving layer over the SVM
// key-value store: a deterministic arrival-process driver that injects
// Zipfian GET/PUT requests at a configurable rate in virtual time
// against an apps.KVTable bucket table, records every request's virtual
// latency into an obs.Histogram, and derives a per-phase availability
// timeline (healthy / undetected failure / probe detection / recovery /
// re-warm) from the cluster's failure-lifecycle milestones.
//
// Open loop means arrival times are fixed up front — a request's
// arrival does not wait for its predecessor's completion, exactly like
// clients that keep sending during an outage. A server stalled by a
// failure therefore accumulates a backlog, and the stall's cost shows
// up where production cares: in the latency tail (p99/p999), not just
// in aggregate wall time. Every input (arrival jitter, key choice,
// op mix) is drawn from seeded xorshift64* streams, so a cell's
// histogram and timeline are bit-identical across repeat runs at the
// same seed, which is what lets the golden file pin them.
package serve

import (
	"fmt"
	"math"
	"sort"

	"ftsvm/internal/apps"
	"ftsvm/internal/model"
	"ftsvm/internal/svm"
)

// Spec describes one serving cell: the cluster, the table, the arrival
// process, and the failure to inject.
type Spec struct {
	// Scenario labels the cell (usually a harness chaos-scenario name).
	Scenario string
	// Detect selects the failure detector (oracle or probe).
	Detect model.DetectionMode
	// Chaos is the network-fault profile for the run.
	Chaos model.Chaos

	Nodes          int
	ThreadsPerNode int

	// Table geometry. Keys is the number of distinct keys the request
	// stream draws from; keep Keys/Buckets at or below SlotsPerBucket or
	// hot buckets can overflow.
	Buckets        int
	SlotsPerBucket int
	Keys           int

	// ZipfS is the key-popularity skew exponent (0 = uniform).
	ZipfS float64
	// ReadPct is the GET percentage of the request mix (0-100).
	ReadPct int

	// Requests is the per-thread request count; MeanGapNs the mean
	// open-loop inter-arrival gap per serving thread (each gap is drawn
	// uniformly from [MeanGapNs/2, 3*MeanGapNs/2)); ServiceNs the
	// modeled CPU cost of parsing and executing one request on top of
	// the protocol's shared-memory costs.
	Requests  int
	MeanGapNs int64
	ServiceNs int64

	// Seed is the simulation-engine seed; ArrivalSeed seeds the arrival
	// and request streams (a separate knob so the same engine schedule
	// can serve different workload draws).
	Seed        int64
	ArrivalSeed uint64

	// KillAtNs, when > 0, fail-stops Victim at that virtual time.
	KillAtNs int64
	Victim   int

	// RewarmFactor defines the re-warm exit threshold: the first
	// post-recovery completion whose latency is back under
	// RewarmFactor x (pre-failure p99) ends a thread's re-warm phase.
	RewarmFactor float64
}

// DefaultSpec returns the standard serving cell: a 4-node store at
// moderate load (stable when healthy, near saturation only under the
// combined storm scenario), Zipf 0.99 popularity over 256 keys, 70%
// reads.
func DefaultSpec() Spec {
	return Spec{
		Scenario:       "none",
		Nodes:          4,
		ThreadsPerNode: 1,
		Buckets:        64,
		SlotsPerBucket: 32,
		Keys:           256,
		ZipfS:          0.99,
		ReadPct:        70,
		Requests:       400,
		MeanGapNs:      400_000,
		ServiceNs:      2_000,
		Seed:           1,
		ArrivalSeed:    7,
		Victim:         1,
		RewarmFactor:   2,
	}
}

// srvState is a serving thread's resumable state; the op index advances
// before each bucket-lock release, so a replay applies every request
// exactly once (see apps.RunStages).
type srvState struct {
	Phase   int
	Arrived bool
	Op      int
	OpStage int
}

// Driver holds one cell's precomputed request streams and collects
// completion times. Host-side state only: per-op completion slots are
// written by the thread bodies (replays overwrite — the surviving
// entry is the completion the client finally observed).
type Driver struct {
	spec Spec
	tb   *apps.KVTable
	w    *apps.Workload

	arrive [][]int64 // [thread][op] absolute virtual arrival time
	done   [][]int64 // [thread][op] virtual completion time (0: never)

	cdf []float64 // Zipf CDF over key ranks
}

// Validate reports the first problem with the spec.
func (sp *Spec) Validate() error {
	switch {
	case sp.Nodes < 2:
		return fmt.Errorf("serve: Nodes = %d, need >= 2", sp.Nodes)
	case sp.ThreadsPerNode < 1:
		return fmt.Errorf("serve: ThreadsPerNode = %d, need >= 1", sp.ThreadsPerNode)
	case sp.Buckets < 1 || sp.SlotsPerBucket < 1:
		return fmt.Errorf("serve: empty table geometry")
	case sp.Keys < 1:
		return fmt.Errorf("serve: Keys = %d, need >= 1", sp.Keys)
	case sp.Requests < 1:
		return fmt.Errorf("serve: Requests = %d, need >= 1", sp.Requests)
	case sp.MeanGapNs < 2:
		return fmt.Errorf("serve: MeanGapNs = %d, need >= 2", sp.MeanGapNs)
	case sp.ReadPct < 0 || sp.ReadPct > 100:
		return fmt.Errorf("serve: ReadPct = %d, need 0-100", sp.ReadPct)
	case math.IsNaN(sp.ZipfS) || math.IsInf(sp.ZipfS, 0) || sp.ZipfS < 0:
		return fmt.Errorf("serve: ZipfS = %g, need a finite value >= 0", sp.ZipfS)
	case sp.ServiceNs < 0:
		return fmt.Errorf("serve: ServiceNs = %d, need >= 0", sp.ServiceNs)
	case math.IsNaN(sp.RewarmFactor) || math.IsInf(sp.RewarmFactor, 0) || sp.RewarmFactor <= 0:
		return fmt.Errorf("serve: RewarmFactor = %g, need a finite value > 0", sp.RewarmFactor)
	case sp.KillAtNs < 0:
		return fmt.Errorf("serve: KillAtNs = %d, need >= 0 (0: no kill)", sp.KillAtNs)
	case sp.KillAtNs > 0 && (sp.Victim < 1 || sp.Victim >= sp.Nodes):
		// Node 0 hosts the verifying thread 0; the recovery protocol
		// handles any victim, but the standard cells keep thread 0 home.
		return fmt.Errorf("serve: Victim = %d, need 1..Nodes-1", sp.Victim)
	}
	return nil
}

// NewDriver validates sp and precomputes the arrival process and key
// distribution.
func NewDriver(sp Spec, pageSize int) (*Driver, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	shape := apps.Shape{Nodes: sp.Nodes, ThreadsPerNode: sp.ThreadsPerNode, PageSize: pageSize}
	d := &Driver{
		spec: sp,
		tb:   apps.NewKVTable(shape, sp.Buckets, sp.SlotsPerBucket),
		cdf:  zipfCDF(sp.Keys, sp.ZipfS),
	}

	// Precompute every thread's absolute arrival times: a fixed open-loop
	// schedule, independent of how the run unfolds.
	T := shape.Threads()
	d.arrive = make([][]int64, T)
	d.done = make([][]int64, T)
	for tid := 0; tid < T; tid++ {
		d.arrive[tid] = make([]int64, sp.Requests)
		d.done[tid] = make([]int64, sp.Requests)
		rng := apps.NewRand(sp.ArrivalSeed ^ (uint64(tid)+1)*0x9E3779B97F4A7C15)
		t := int64(0)
		for i := 0; i < sp.Requests; i++ {
			t += sp.MeanGapNs/2 + int64(rng.Next()%uint64(sp.MeanGapNs))
			d.arrive[tid][i] = t
		}
	}

	d.w = &apps.Workload{
		Name:       fmt.Sprintf("KVServe-%dx%d", sp.Buckets, sp.Requests),
		Pages:      d.tb.Pages,
		Locks:      sp.Buckets,
		HomeAssign: d.tb.HomeAssign,
	}
	d.w.Body = d.body
	return d, nil
}

// Workload returns the runnable workload (for svm.Options or
// harness.Build integration).
func (d *Driver) Workload() *apps.Workload { return d.w }

// zipfCDF returns the cumulative distribution over key ranks 1..n with
// weight 1/rank^s, normalized so the last entry is exactly 1.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	total := 0.0
	for r := 1; r <= n; r++ {
		total += 1 / math.Pow(float64(r), s)
		cdf[r-1] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return cdf
}

// opFor returns thread tid's request i: (key, delta, isGet).
// Deterministic and recomputable during replay — the same contract as
// KVStore's op streams.
func (d *Driver) opFor(tid, i int) (key, delta uint64, get bool) {
	sp := &d.spec
	rng := apps.NewRand(sp.ArrivalSeed*0x2545F4914F6CDD1D + uint64(tid)<<32 + uint64(i)*2654435761 + 1)
	rank := sort.SearchFloat64s(d.cdf, rng.Float())
	key = uint64(rank) + 1 // keys are nonzero
	get = rng.Next()%100 < uint64(sp.ReadPct)
	delta = rng.Next()%100 + 1
	return key, delta, get
}

// body is the serving loop: wait (idle) for the request's arrival time,
// execute it under the bucket lock, stamp the completion, release. The
// op index advances before the Release, so a post-failure replay
// re-executes exactly the requests whose effects were lost with the
// failed node — and their completion stamps are overwritten with the
// post-failover times the client actually experienced. A final
// barrier-separated stage verifies every PUT landed exactly once.
func (d *Driver) body(t *svm.Thread) {
	st := &srvState{OpStage: -1}
	t.Setup(st)
	tid := t.ID()
	sp := &d.spec

	serveStage := func(stage int) {
		if st.OpStage != stage {
			st.Op, st.OpStage = 0, stage
		}
		for st.Op < sp.Requests {
			i := st.Op
			t.IdleUntil(d.arrive[tid][i])
			key, delta, get := d.opFor(tid, i)
			b := d.tb.BucketOf(key)
			t.Acquire(b)
			slot := d.tb.FindSlot(t, b, key)
			if get {
				if slot >= 0 {
					_ = t.ReadU64(d.tb.SlotAddr(b, slot) + 8) // miss reads 0
				}
			} else {
				if slot < 0 {
					d.w.Fail(fmt.Errorf("KVServe: thread %d op %d: bucket %d overflow (key %d, %d slots)",
						tid, i, b, key, sp.SlotsPerBucket))
					st.Op = sp.Requests
					t.Release(b)
					return
				}
				d.tb.Add(t, b, slot, key, delta)
			}
			t.Compute(sp.ServiceNs)
			st.Op++
			// The reply leaves the server here: the request's effects are
			// applied and the op index has advanced, so a failure from the
			// Release onward never re-executes it. A failure before the
			// checkpoint inside Release replays the request on the backup
			// node and overwrites this stamp with the failover completion.
			d.done[tid][i] = t.Now()
			t.Release(b)
		}
	}

	verifyStage := func() {
		if tid != 0 || d.w.Err() != nil {
			return
		}
		want := map[uint64]uint64{}
		T := t.NThreads()
		for pt := 0; pt < T; pt++ {
			for i := 0; i < sp.Requests; i++ {
				key, delta, get := d.opFor(pt, i)
				if !get {
					want[key] += delta
				}
			}
		}
		if err := d.tb.Check(t, want); err != nil {
			d.w.Fail(fmt.Errorf("KVServe: %w", err))
		}
	}

	apps.RunStages(t, &st.Phase, &st.Arrived, 2, func(s int) {
		switch s {
		case 0:
			serveStage(s)
		case 1:
			verifyStage()
		}
	})
}
