// Package explore is the exhaustive protocol-step failure-point
// explorer: it runs a workload once recording every protocol-step
// boundary from the flight recorder, then re-executes the workload once
// per boundary with a fail-stop injected exactly there, driving
// recovery to completion under the online invariant auditor and a
// memory-consistency oracle (internal/oracle).
//
// A boundary is the k-th occurrence of an event kind on a node in the
// deterministic event stream: every vmmc message send and delivery,
// every release-pipeline transition (commit, phase 1, timestamp save,
// point-B checkpoint, phase 2, done), every lock grant, handoff and
// clear, every checkpoint encode, every barrier arrival and release
// broadcast. Recording charges no virtual time, so the injection run's
// pre-kill prefix is bit-identical to the recording run: the k-th
// occurrence in the recording IS the k-th occurrence when re-executed,
// and a boundary ID is an exact, reproducible coordinate for a failure.
package explore

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"ftsvm/internal/obs"
	"ftsvm/internal/oracle"
	"ftsvm/internal/svm"
)

// Boundary is one failure point: the Occ-th occurrence (1-based) of
// Kind on Node in the run's deterministic event stream. Injecting a
// failure at the boundary kills Node at the instant the event fires.
type Boundary struct {
	Kind obs.Kind
	Node int32
	Occ  int64
}

// ID renders the boundary's stable coordinate, e.g.
// "release.phase1@n2#3". The triple (app, ID, seed) reproduces a
// schedule exactly.
func (b Boundary) ID() string {
	return fmt.Sprintf("%s@n%d#%d", b.Kind, b.Node, b.Occ)
}

// ParseID is the inverse of ID.
func ParseID(s string) (Boundary, error) {
	at := strings.LastIndexByte(s, '@')
	sep := strings.LastIndexByte(s, '#')
	if at < 0 || sep < at || !strings.HasPrefix(s[at+1:], "n") {
		return Boundary{}, fmt.Errorf("explore: malformed boundary id %q (want kind@nN#occ)", s)
	}
	kind, ok := obs.KindByName(s[:at])
	if !ok {
		return Boundary{}, fmt.Errorf("explore: unknown event kind %q in boundary id %q", s[:at], s)
	}
	node, err := strconv.Atoi(s[at+2 : sep])
	if err != nil {
		return Boundary{}, fmt.Errorf("explore: bad node in boundary id %q: %v", s, err)
	}
	occ, err := strconv.ParseInt(s[sep+1:], 10, 64)
	if err != nil || occ < 1 {
		return Boundary{}, fmt.Errorf("explore: bad occurrence in boundary id %q", s)
	}
	return Boundary{Kind: kind, Node: int32(node), Occ: occ}, nil
}

// Instance is one fresh, runnable workload: the cluster plus the
// workload's own post-run self-check (result verification).
type Instance struct {
	Cluster *svm.Cluster
	Check   func() error
}

// Spec builds identical instances of one workload on demand. New must
// return a deterministic cluster (fixed seed in the model config): the
// explorer's whole premise is that two instances replay the same event
// stream until the injected kill.
type Spec struct {
	Name string
	New  func() (Instance, error)
	// RingSize is the per-node flight-recorder ring Replay keeps for its
	// caller's post-mortem dump (default 512). Every other run is sink
	// only: boundary counting, kills and the fingerprint all stream.
	RingSize int
}

func (sp Spec) ringSize() int {
	if sp.RingSize <= 0 {
		return 512
	}
	return sp.RingSize
}

// Trace is the outcome of a recording run: every boundary in stream
// order, the events the engine executed, and the run's fingerprint.
type Trace struct {
	Boundaries  []Boundary
	Events      int64
	TimeNs      int64
	Fingerprint string
}

// Budget returns the event budget injection runs derive from this
// recording: generous headroom for a recovery episode plus retries, yet
// a deterministic bound on livelock.
func (tr *Trace) Budget() int64 {
	return 40*tr.Events + 200_000
}

// Record executes the workload once, failure-free, enumerating every
// protocol-step boundary. The run must itself pass the auditor and the
// end-of-run check every injection run is held to (self-check, replica
// invariant, oracle): boundaries of a broken baseline mean nothing.
func Record(sp Spec) (*Trace, error) {
	x, err := instrument(sp, 0, true, true, 0)
	if err != nil {
		return nil, fmt.Errorf("explore: %w", err)
	}
	cl := x.Cluster
	var log oracle.Log
	cl.SetCommitSink(log.Commit)
	bs := getChunks()
	defer chunkPool.Put(bs)
	if err := x.run(func(e obs.Event) {
		occ, _ := x.next(e)
		bs.add(Boundary{Kind: e.Kind, Node: e.Node, Occ: occ})
	}); err != nil {
		return nil, fmt.Errorf("explore: %s baseline run: %w", sp.Name, err)
	}
	if !cl.Finished() {
		return nil, fmt.Errorf("explore: %s baseline run did not finish", sp.Name)
	}
	if err := x.verify(&log, false); err != nil {
		return nil, fmt.Errorf("explore: %s baseline check: %w", sp.Name, err)
	}
	return &Trace{
		Boundaries:  bs.sample(0),
		Events:      cl.Engine().Events(),
		TimeNs:      cl.ExecTime(),
		Fingerprint: fmt.Sprintf("%016x", hashMemory(x.h, cl)),
	}, nil
}

// execution is one instrumented run of a workload, the shape Record,
// Replay and DiscoverSeconds share: a fresh instance under the flight
// recorder and the wire trace whose sink passes each recorded event
// through next — numbered by its (kind, node) occurrence, then folded
// into the fingerprint — before it acts on it.
type execution struct {
	Instance
	rec       *obs.Recorder
	occ       occCounter
	hash      bool
	h         uint64
	injecting bool
}

// instrument builds a fresh instance of sp for one execution: keeping the
// last ring events of each node (0: a sink-only recorder), under the
// invariant auditor when audit, hashing events into the fingerprint when
// hash, and bounded to budget events when budget > 0.
func instrument(sp Spec, ring int, audit, hash bool, budget int64) (*execution, error) {
	inst, err := sp.New()
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", sp.Name, err)
	}
	cl := inst.Cluster
	x := &execution{Instance: inst, rec: cl.EnableFlightRecorder(ring),
		occ: newOccCounter(cl.Nodes()), hash: hash, h: fnvOffset64}
	cl.EnableWireTrace()
	if audit {
		cl.EnableAuditor()
	}
	if budget > 0 {
		cl.Engine().SetEventBudget(budget)
	}
	return x, nil
}

// next numbers e and folds it into the fingerprint, the first thing a
// sink does with every event. act is false for the events KillNode
// records while kill injects a failure: a sink must not act on those.
// (The sink calls next rather than next calling the sink: one indirect
// call per recorded event instead of two.)
func (x *execution) next(e obs.Event) (occ int64, act bool) {
	occ = x.occ.next(e.Kind, e.Node)
	if x.hash {
		x.h = hashEvent(x.h, e)
	}
	return occ, !x.injecting
}

// kill fail-stops node from inside the sink.
func (x *execution) kill(node int32) {
	x.injecting = true
	x.Cluster.KillNode(int(node))
	x.injecting = false
}

// run executes the instance to its end with sink attached, turning a
// panic into the run's error.
func (x *execution) run(sink func(obs.Event)) (err error) {
	x.rec.SetSink(sink)
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return x.Cluster.Run()
}

// occCounter numbers the occurrences of each (kind, node) in an event
// stream: a dense table, because the sink runs once per recorded event
// and a map lookup there was a visible share of a re-execution.
type occCounter struct {
	nodes int
	n     []int64 // indexed kind*nodes + node
}

func newOccCounter(nodes int) occCounter {
	// Kinds lists every kind but KNone (0), in declaration order, so the
	// largest kind value is its length.
	return occCounter{nodes: nodes, n: make([]int64, (len(obs.Kinds())+1)*nodes)}
}

// next counts one more occurrence of kind on node and returns its 1-based
// ordinal. An event outside the table cannot be given a coordinate, so it
// panics instead of miscounting.
func (c *occCounter) next(kind obs.Kind, node int32) int64 {
	i := int(kind)*c.nodes + int(node)
	if node < 0 || int(node) >= c.nodes || i >= len(c.n) {
		panic(fmt.Sprintf("explore: event %s on node %d is outside the %d-node occurrence table", kind, node, c.nodes))
	}
	c.n[i]++
	return c.n[i]
}

// Verdict is the outcome of one injection run.
type Verdict struct {
	Schedule []string `json:"schedule"`          // boundary IDs requested
	Injected []string `json:"injected"`          // kills actually delivered
	Refused  []string `json:"refused,omitempty"` // kills refused (single-failure model)
	Pass     bool     `json:"pass"`
	Err      string   `json:"err,omitempty"`
	Events   int64    `json:"events"`
	TimeNs   int64    `json:"time_ns"`
	// Recoveries counts completed recovery episodes. Zero with a kill
	// injected means the failure went undetected: the victim had no
	// remaining protocol obligations, so no survivor ever contacted it —
	// the run is then held to the availability invariant (committed state
	// intact on live homes) instead of the post-recovery replica
	// invariant.
	Recoveries int64 `json:"recoveries"`
	// Fingerprint hashes the run's full event stream and final committed
	// memory: two runs of the same schedule must produce equal values.
	Fingerprint string `json:"fingerprint"`
}

// Explore re-executes the workload with a fail-stop injected at b.
func Explore(sp Spec, b Boundary, budget int64) Verdict {
	return ExploreSchedule(sp, []Boundary{b}, budget)
}

// ExploreSchedule re-executes the workload injecting a kill at each
// scheduled boundary, in stream order. The protocol's failure model is
// k-1 overlapping failures at replication degree k (§4.1 generalized;
// the paper's k=2 tolerates exactly one): a kill is refused — recorded
// in Verdict.Refused, never injected — rather than silently explored as
// a schedule the protocol does not claim to survive, when its target is
// already dead, when k-1 failures are already unrecovered, or when the
// kill would leave fewer than k live nodes (no legal rehoming exists).
// Kills after a completed recovery are injected normally.
//
// The verdict passes when the run finishes within the event budget with
// every scheduled kill injected or refused, the invariant auditor stays
// silent, the surviving threads complete the workload, its self-check
// passes, the replica invariant holds, and the final committed memory
// equals the consistency oracle's causal replay of the commit log.
func ExploreSchedule(sp Spec, schedule []Boundary, budget int64) Verdict {
	v, _ := replay(sp, schedule, budget, 0)
	return v
}

// Replay is ExploreSchedule that also hands back the run's flight
// recorder (nil when the instance could not be built), whose rings hold
// each node's last sp.RingSize events for a post-mortem dump.
func Replay(sp Spec, schedule []Boundary, budget int64) (Verdict, *obs.Recorder) {
	return replay(sp, schedule, budget, sp.ringSize())
}

// replay is one injection run whose recorder keeps ring events per node.
func replay(sp Spec, schedule []Boundary, budget int64, ring int) (v Verdict, rec *obs.Recorder) {
	for _, b := range schedule {
		v.Schedule = append(v.Schedule, b.ID())
	}
	x, err := instrument(sp, ring, true, true, budget)
	if err != nil {
		v.Err = err.Error()
		return v, nil
	}
	cl := x.Cluster
	var log oracle.Log
	cl.SetCommitSink(log.Commit)

	pending := append([]Boundary(nil), schedule...)
	runErr := x.run(func(e obs.Event) {
		n, act := x.next(e)
		if !act {
			return
		}
		for i := 0; i < len(pending); i++ {
			b := pending[i]
			if b.Kind != e.Kind || b.Node != e.Node || b.Occ != n {
				continue
			}
			pending = append(pending[:i], pending[i+1:]...)
			i--
			switch {
			case cl.NodeDead(int(b.Node)) ||
				cl.UnrecoveredFailures() >= cl.Degree()-1 ||
				cl.LiveNodes()-1 < cl.Degree():
				// Target already gone, overlap budget exhausted (k-1
				// unrecovered failures at degree k), or too few survivors
				// to rehome: outside the failure model — refuse.
				v.Refused = append(v.Refused, b.ID())
			default:
				v.Injected = append(v.Injected, b.ID())
				x.kill(b.Node)
			}
		}
	})
	v.Events = cl.Engine().Events()
	v.TimeNs = cl.ExecTime()
	v.Recoveries = cl.ProtoStats().Recoveries
	v.Fingerprint = fmt.Sprintf("%016x", hashMemory(x.h, cl))

	switch {
	case runErr != nil:
		v.Err = runErr.Error()
	case len(pending) > 0:
		// A scheduled boundary never fired — for a single kill that means
		// the coordinate does not exist in this run (stale trace).
		ids := make([]string, len(pending))
		for i, b := range pending {
			ids[i] = b.ID()
		}
		v.Err = fmt.Sprintf("boundaries never fired: %s", strings.Join(ids, ","))
	case !cl.Finished():
		v.Err = "surviving threads did not finish"
	default:
		if err := x.verify(&log, v.Recoveries < int64(len(v.Injected))); err != nil {
			v.Err = err.Error()
		}
	}
	v.Pass = v.Err == ""
	return v, x.rec
}

// verify is the check every finished run ends in: the workload's
// self-check, the replica invariant, then the oracle's replay of log.
// After an undetected kill (the victim died after its last protocol
// obligation, so nothing probed it and nobody rehomed its pages) the
// availability invariant stands in for the replica invariant.
func (x *execution) verify(log *oracle.Log, undetected bool) error {
	if err := x.Check(); err != nil {
		return err
	}
	cl := x.Cluster
	holds := cl.VerifyReplicas
	if undetected {
		holds = cl.VerifyAvailability
	}
	if err := holds(); err != nil {
		return err
	}
	return checkOracle(cl, log)
}

// checkOracle replays the run's commit log up to the cluster's final
// consistency frontier and compares every page frame, read in place,
// against live memory (a live frame is the primary's own when nothing
// died).
func checkOracle(cl *svm.Cluster, log *oracle.Log) error {
	store := oracle.NewStore(cl.NumPages(), cl.PageSize(), cl.Nodes())
	if err := store.Replay(log.Records, cl.LiveVT()); err != nil {
		return err
	}
	return store.Check(func(p int) []byte { return cl.Frame(p, true) })
}

// The fingerprint is 64-bit FNV-1a (the hash/fnv New64a function) kept as
// a plain uint64: going through hash.Hash64 made each event's 21-byte
// buffer escape, one heap object per recorded event.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// hashEvent folds one recorded event into the determinism fingerprint, as
// 21 bytes: TimeNs and Seq (8 each, little-endian), Node (4) and Kind (1).
// TimeNs is included: equal fingerprints mean equal virtual schedules,
// not just equal event orders. Thread is excluded: node-level events
// carry -1 and per-thread attribution is already implied by the
// deterministic stream order. Stored verdicts depend on this layout.
func hashEvent(h uint64, e obs.Event) uint64 {
	h = hashLE(h, uint64(e.TimeNs), 8)
	h = hashLE(h, uint64(e.Seq), 8)
	h = hashLE(h, uint64(uint32(e.Node)), 4)
	return (h ^ uint64(e.Kind)) * fnvPrime64
}

// hashLE folds the low n bytes of v, least significant first.
func hashLE(h, v uint64, n int) uint64 {
	for i := 0; i < n; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime64
		v >>= 8
	}
	return h
}

// hashMemory folds the final authoritative memory image into the
// fingerprint, every frame read in place. A never-allocated frame is
// PageSize zero bytes, and folding a zero byte is a multiplication by the
// prime.
func hashMemory(h uint64, cl *svm.Cluster) uint64 {
	for p := 0; p < cl.NumPages(); p++ {
		if f := cl.Frame(p, false); f != nil {
			h = hashBytes(h, f)
		} else {
			for range cl.PageSize() {
				h *= fnvPrime64
			}
		}
	}
	return h
}

func hashBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}

// Sample selects up to n boundaries from bs with an even stride, always
// keeping the first and last — the cheap way to cap a sweep's cost while
// still spanning the whole run.
func Sample(bs []Boundary, n int) []Boundary {
	if n <= 0 || n >= len(bs) {
		return bs
	}
	return sampleAt(len(bs), n, func(i int) Boundary { return bs[i] })
}

// sampleAt is Sample over a list of total boundaries read through at, for
// 0 < n <= total: with n == total it keeps every boundary.
func sampleAt(total, n int, at func(int) Boundary) []Boundary {
	out := make([]Boundary, 0, n)
	if n == 1 {
		return append(out, at(0))
	}
	step := float64(total-1) / float64(n-1)
	last := -1
	for i := 0; i < n; i++ {
		j := int(float64(i)*step + 0.5)
		if j >= total {
			j = total - 1
		}
		if j == last {
			continue
		}
		last = j
		out = append(out, at(j))
	}
	return out
}

// chunkLen is the number of boundaries in one chunk: 64 KB.
const chunkLen = 4096

// chunks is a boundary list kept in fixed-size chunks. A run enumerates
// tens of thousands of boundaries: a recording keeps them all and a pair
// discovery a handful, so the list is never copied into a doubling slice,
// and an emptied list reuses its chunks for the next run.
type chunks struct {
	c [][]Boundary
	n int
}

// chunkPool keeps boundary lists, with their chunks, between runs.
var chunkPool = sync.Pool{New: func() any { return new(chunks) }}

// getChunks returns an empty list from chunkPool; put it back when done.
func getChunks() *chunks {
	l := chunkPool.Get().(*chunks)
	l.n = 0
	return l
}

func (l *chunks) add(b Boundary) {
	if l.n == len(l.c)*chunkLen {
		l.c = append(l.c, make([]Boundary, chunkLen))
	}
	l.c[l.n/chunkLen][l.n%chunkLen] = b
	l.n++
}

func (l *chunks) at(i int) Boundary { return l.c[i/chunkLen][i%chunkLen] }

// sample is Sample over the list, into a new slice of exactly the kept
// boundaries (n <= 0: all of them).
func (l *chunks) sample(n int) []Boundary {
	if n <= 0 || n > l.n {
		n = l.n
	}
	return sampleAt(l.n, n, l.at)
}

// FilterKinds keeps only boundaries of the named kinds (dotted names).
func FilterKinds(bs []Boundary, kinds []string) ([]Boundary, error) {
	want := map[obs.Kind]bool{}
	for _, name := range kinds {
		k, ok := obs.KindByName(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("explore: unknown event kind %q", name)
		}
		want[k] = true
	}
	var out []Boundary
	for _, b := range bs {
		if want[b.Kind] {
			out = append(out, b)
		}
	}
	return out, nil
}

// KindHistogram counts boundaries per kind, rendered sorted by count
// then name — the sweep summary line.
func KindHistogram(bs []Boundary) string {
	counts := map[obs.Kind]int{}
	for _, b := range bs {
		counts[b.Kind]++
	}
	type kc struct {
		name string
		n    int
	}
	var ks []kc
	for k, n := range counts {
		ks = append(ks, kc{k.String(), n})
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].n != ks[j].n {
			return ks[i].n > ks[j].n
		}
		return ks[i].name < ks[j].name
	})
	parts := make([]string, len(ks))
	for i, k := range ks {
		parts[i] = fmt.Sprintf("%s:%d", k.name, k.n)
	}
	return strings.Join(parts, " ")
}
