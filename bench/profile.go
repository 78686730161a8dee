package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// profiler gathers 100 Hz CPU-profile samples over several sessions, one
// per cell: the collections forced between cells stay out of the profile
// exactly as they stay out of the timers. (Stopping a session waits for
// the runtime's profile writer, ~0.1 s, also outside the timers.)
type profiler struct {
	buf     bytes.Buffer
	on      bool
	samples []profSample
	err     error // first failure; the P metrics are then absent
}

func (pr *profiler) start() {
	pr.buf.Reset()
	err := pprof.StartCPUProfile(&pr.buf)
	if pr.on = err == nil; !pr.on && pr.err == nil {
		pr.err = fmt.Errorf("CPU profile: %w", err)
	}
}

func (pr *profiler) stop() {
	if !pr.on {
		return
	}
	pprof.StopCPUProfile()
	pr.on = false
	samples, err := parseProfile(pr.buf.Bytes())
	if err != nil && pr.err == nil {
		pr.err = err
	}
	pr.samples = append(pr.samples, samples...)
}

// The CPU profile is read with the ~150 lines below instead of
// `go tool pprof`, so the fold needs neither the toolchain at run time
// nor a dependency: a profile is gzip-compressed protobuf whose samples
// name locations, whose locations name functions (several when calls
// were inlined, innermost first), and whose functions name strings.

// profSample is one stack of the profile, innermost frame first.
type profSample struct {
	funcs []string
	count int64
}

// pbField is one decoded protobuf field: v for varint and fixed wire
// types, data for length-delimited ones.
type pbField struct {
	num  int
	v    uint64
	data []byte
}

// pbFields splits a protobuf message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad field key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			f.v, n = uvarint(b)
			if n <= 0 {
				return nil, errors.New("bad varint")
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if key&7 == 5 {
				size = 4
			}
			if len(b) < size {
				return nil, errors.New("truncated fixed field")
			}
			for i := size - 1; i >= 0; i-- {
				f.v = f.v<<8 | uint64(b[i])
			}
			b = b[size:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errors.New("truncated bytes field")
			}
			f.data = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return nil, fmt.Errorf("unsupported wire type %d", key&7)
		}
		out = append(out, f)
	}
	return out, nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// pbInts reads a repeated integer field, packed or not.
func pbInts(f pbField, into []uint64) ([]uint64, error) {
	if f.data == nil {
		return append(into, f.v), nil
	}
	for b := f.data; len(b) > 0; {
		v, n := uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		into = append(into, v)
		b = b[n:]
	}
	return into, nil
}

// parseProfile decodes a pprof CPU profile into stacks of function names.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var strs []string
	funcName := map[uint64]uint64{} // function id -> string index
	locFuncs := map[uint64][]uint64{}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var samples []rawSample
	for _, f := range top {
		switch f.num {
		case 2: // Sample: location_id = 1, value = 2
			fs, err := pbFields(f.data)
			if err != nil {
				return nil, fmt.Errorf("profile sample: %w", err)
			}
			var s rawSample
			var vals []uint64
			for _, g := range fs {
				switch g.num {
				case 1:
					if s.locs, err = pbInts(g, s.locs); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = pbInts(g, vals); err != nil {
						return nil, err
					}
				}
			}
			if len(vals) > 0 {
				s.count = int64(vals[0]) // value 0 of a CPU profile is the sample count
			}
			samples = append(samples, s)
		case 4: // Location: id = 1, line = 4 { function_id = 1 }
			fs, err := pbFields(f.data)
			if err != nil {
				return nil, fmt.Errorf("profile location: %w", err)
			}
			var id uint64
			var fns []uint64
			for _, g := range fs {
				switch g.num {
				case 1:
					id = g.v
				case 4:
					ls, err := pbFields(g.data)
					if err != nil {
						return nil, fmt.Errorf("profile line: %w", err)
					}
					for _, l := range ls {
						if l.num == 1 {
							fns = append(fns, l.v)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function: id = 1, name = 2
			fs, err := pbFields(f.data)
			if err != nil {
				return nil, fmt.Errorf("profile function: %w", err)
			}
			var id, name uint64
			for _, g := range fs {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = g.v
				}
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(f.data))
		}
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					ps.funcs = append(ps.funcs, strs[idx])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// foldResult is a profile folded to layers: every sample lands in
// exactly one of layer[...], sched, gc or other, so those sum to total.
// switches and audit are sub-counts of sim and svm time.
type foldResult struct {
	total    int64
	layer    map[string]int64
	sched    int64
	gc       int64
	other    int64
	switches int64 // innermost repo frame is the sim process hand-off
	audit    int64 // an svm.(*auditor) frame is on the stack
}

const repoPrefix = "ftsvm/internal/"

// foldProfile bills each sample to the layer of the innermost
// ftsvm/internal/<layer> frame on its stack, so memmove under mem.Apply
// is mem and channel operations under sim are sim. The bench's own frames
// and the harness/model packages are the harness layer. Samples with no
// repository frame are the Go runtime working for everyone: scheduler,
// collector, or other.
func foldProfile(samples []profSample) foldResult {
	r := foldResult{layer: map[string]int64{}}
	for _, s := range samples {
		r.total += s.count
		layer, fn := "", ""
		for _, f := range s.funcs {
			if strings.Contains(f, "svm.(*auditor).") {
				r.audit += s.count
				break
			}
		}
		for _, f := range s.funcs {
			if rest, ok := strings.CutPrefix(f, repoPrefix); ok {
				if dot := strings.IndexByte(rest, '.'); dot > 0 {
					layer, fn = rest[:dot], f
					break
				}
			}
		}
		if layer == "" {
			for _, f := range s.funcs {
				if strings.HasPrefix(f, "main.") {
					layer = "harness"
					break
				}
			}
		}
		switch {
		case layer == "":
			switch runtimeBucket(s.funcs) {
			case "gc":
				r.gc += s.count
			case "sched":
				r.sched += s.count
			default:
				r.other += s.count
			}
			continue
		case !isLayer(layer):
			layer = "harness" // harness, model, and any package without a row of its own
		}
		r.layer[layer] += s.count
		if layer == "sim" && isSwitchFrame(fn) {
			r.switches += s.count
		}
	}
	return r
}

func isLayer(name string) bool {
	for _, l := range layers {
		if l == name {
			return true
		}
	}
	return false
}

// isSwitchFrame reports whether fn is the sim process hand-off: the
// park/dispatch channel ping-pong and the goroutine entry/exit around a
// process body.
func isSwitchFrame(fn string) bool {
	fn = strings.TrimPrefix(fn, repoPrefix+"sim.")
	return fn == "(*Proc).park" || fn == "(*Engine).dispatch" || strings.HasPrefix(fn, "(*Engine).SpawnOn.func")
}

var gcFrames = []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.markroot", "runtime.scanobject"}

var schedFrames = []string{"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.mcall",
	"runtime.goexit0", "runtime.gosched", "runtime.gopreempt_m", "runtime.mstart", "runtime.sysmon",
	"runtime.stopm", "runtime.startm", "runtime.wakep", "runtime.resetspinning", "runtime.execute"}

// runtimeBucket classifies a stack with no repository frame.
func runtimeBucket(funcs []string) string {
	for _, set := range []struct {
		bucket   string
		prefixes []string
	}{{"gc", gcFrames}, {"sched", schedFrames}} {
		for _, f := range funcs {
			for _, p := range set.prefixes {
				if strings.HasPrefix(f, p) {
					return set.bucket
				}
			}
		}
	}
	return "other"
}

// emit reports the fold as percentage shares.
func (r foldResult) emit(m *metrics) {
	if r.total == 0 {
		for _, d := range catalog {
			if d.Src == 'P' {
				m.miss(d.Name, "CPU profile holds no samples")
			}
		}
		return
	}
	pct := func(n int64) float64 { return 100 * float64(n) / float64(r.total) }
	for _, l := range layers {
		m.set(l+".cpu_share", pct(r.layer[l]))
	}
	m.set("sim.switch_share", pct(r.switches))
	m.set("svm.audit_share", pct(r.audit))
	m.set("runtime.sched_share", pct(r.sched))
	m.set("runtime.gc_share", pct(r.gc))
	m.set("runtime.other_share", pct(r.other))
}
