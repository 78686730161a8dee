package main

import (
	"math/rand"
	"time"

	"ftsvm/internal/checkpoint"
	"ftsvm/internal/mem"
	"ftsvm/internal/model"
	"ftsvm/internal/obs"
	"ftsvm/internal/oracle"
	"ftsvm/internal/proto"
	"ftsvm/internal/sim"
	"ftsvm/internal/vmmc"
)

// Micro-probes: the unit cost of each layer's hot operation, timed from
// outside through its public constructors, on inputs drawn from the
// run's seed. They are the fixed points the layer shares move against:
// sim.callback_ns against sim.switch_ns is the gap a cheaper process
// switch would close.

// perOp calls fn with growing n until one call lasts at least floor, and
// returns that call's nanoseconds per operation. fn times its own
// critical region and returns that, so construction is outside the
// result (but inside the floor: a probe that rebuilds a 512-node
// directory per operation would otherwise run for half a minute).
func perOp(floor time.Duration, fn func(n int) time.Duration) float64 {
	n := 1
	for {
		t0 := time.Now()
		d := fn(n)
		whole := time.Since(t0)
		if whole >= floor || n >= 1<<30 {
			return float64(d.Nanoseconds()) / float64(n)
		}
		// Aim 20% past the target; grow at least 2x, at most 100x.
		next := int(1.2 * float64(n) * float64(floor) / float64(whole))
		n = max(2*n, min(next, 100*n))
	}
}

// check aborts the running probe, which is then reported as absent.
func check(err error) {
	if err != nil {
		panic(probeError{err})
	}
}

type probeError struct{ error }

// timed measures fn once.
func timed(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// timedRun measures one run of a probe's engine.
func timedRun(eng *sim.Engine) time.Duration {
	var err error
	d := timed(func() { err = eng.Run() })
	check(err)
	return d
}

const probeNodes, probeItems = 512, 8192

func runProbes(o *options, m *metrics) {
	floor := 200 * time.Millisecond
	if o.quick {
		floor = 2 * time.Millisecond
	}
	rng := rand.New(rand.NewSource(o.seed))
	probe := func(name string, per float64, fn func(n int) time.Duration) {
		defer func() {
			if r := recover(); r != nil {
				pe, ok := r.(probeError)
				if !ok {
					panic(r)
				}
				m.miss(name, pe.Error())
			}
		}()
		m.set(name, perOp(floor, fn)/per)
	}
	ns := func(name string, fn func(n int) time.Duration) { probe(name, 1, fn) }
	us := func(name string, fn func(n int) time.Duration) { probe(name, 1e3, fn) }

	// sim: a callback event; a full process hand-off (park in one process,
	// resume of the other); an event against 64k pending ones.
	ns("sim.callback_ns", func(n int) time.Duration {
		eng := sim.New(o.seed)
		left := n
		var tick func()
		tick = func() {
			if left--; left > 0 {
				eng.At(1, tick)
			}
		}
		eng.At(1, tick)
		return timedRun(eng)
	})
	ns("sim.switch_ns", func(n int) time.Duration {
		eng := sim.New(o.seed)
		var g sim.Gate
		turn := 0
		player := func(me int) func(*sim.Proc) {
			return func(p *sim.Proc) {
				for i := 0; i < (n+1)/2; i++ {
					for turn != me {
						g.Wait(p)
					}
					turn = 1 - me
					g.Broadcast()
				}
			}
		}
		eng.Spawn("ping", player(0))
		eng.Spawn("pong", player(1))
		return timedRun(eng)
	})
	ns("sim.event_ns_64k_pending", func(n int) time.Duration {
		eng := sim.New(o.seed)
		left := n
		delays := make([]int64, 1024)
		for i := range delays {
			delays[i] = 1 + rng.Int63n(1<<20)
		}
		k := 0
		var tick func()
		tick = func() {
			if left--; left <= 0 {
				eng.Stop()
				return
			}
			k++
			eng.At(delays[k%len(delays)], tick)
		}
		for i := 0; i < 1<<16; i++ {
			eng.At(delays[i%len(delays)], tick)
		}
		return timedRun(eng)
	})

	// vmmc: a one-way deposit and a request/reply through the NIC model.
	network := func() (*sim.Engine, *vmmc.Network) {
		eng := sim.New(o.seed)
		cfg := model.Default()
		cfg.Nodes = 2
		net := vmmc.New(eng, &cfg)
		net.Endpoint(0).SetHandler(func(d *vmmc.Delivery) {})
		return eng, net
	}
	ns("vmmc.post_ns", func(n int) time.Duration {
		eng, net := network()
		net.Endpoint(1).SetHandler(func(d *vmmc.Delivery) {})
		var err error // a panic inside a sim process would not reach the probe as a probeError
		eng.Spawn("sender", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				net.Endpoint(0).Post(p, 1, 128, i)
			}
			err = net.Endpoint(0).Fence(p)
		})
		d := timedRun(eng)
		check(err)
		return d
	})
	ns("vmmc.request_ns", func(n int) time.Duration {
		eng, net := network()
		net.Endpoint(1).SetHandler(func(d *vmmc.Delivery) { d.Reply("pong", 4096) })
		var err error
		eng.Spawn("client", func(p *sim.Proc) {
			for i := 0; i < n && err == nil; i++ {
				_, err = net.Endpoint(0).Request(p, 1, 64, "ping")
			}
		})
		d := timedRun(eng)
		check(err)
		return d
	})

	// mem: diffing a 4 KB page with 2% and 50% of its words changed, and
	// applying the dense diff.
	page := func(perMille int) (twin, cur []byte) {
		twin = make([]byte, 4096)
		rng.Read(twin)
		cur = append([]byte(nil), twin...)
		for w := 0; w < len(cur)/8; w++ {
			if rng.Intn(1000) < perMille {
				cur[w*8] ^= 0xff
			}
		}
		return
	}
	diff := func(perMille int) func(n int) time.Duration {
		return func(n int) time.Duration {
			twin, cur := page(perMille)
			return timed(func() {
				for i := 0; i < n; i++ {
					mem.Compute(twin, cur, 8)
				}
			})
		}
	}
	ns("mem.diff_sparse_ns", diff(20))
	ns("mem.diff_dense_ns", diff(500))
	ns("mem.apply_ns", func(n int) time.Duration {
		twin, cur := page(500)
		d := mem.Diff{Runs: mem.Compute(twin, cur, 8)}
		return timed(func() {
			for i := 0; i < n; i++ {
				d.Apply(twin)
			}
		})
	})

	// proto: 512-wide vector times and both home directories.
	vector := func() proto.VectorTime {
		v := proto.NewVector(probeNodes)
		for i := range v {
			v[i] = int32(rng.Intn(1000))
		}
		return v
	}
	ns("proto.vt_merge_ns_512", func(n int) time.Duration {
		a, b := vector(), vector()
		return timed(func() {
			for i := 0; i < n; i++ {
				a.Merge(b)
			}
		})
	})
	ns("proto.vt_delta_ns_512", func(n int) time.Duration {
		prev := vector()
		cur := prev.Clone()
		for i := 0; i < 8; i++ {
			cur[rng.Intn(len(cur))]++
		}
		var buf []byte
		return timed(func() {
			for i := 0; i < n; i++ {
				buf = proto.AppendDelta(buf[:0], prev, cur)
				_, _, err := proto.DecodeDelta(prev, buf)
				check(err)
			}
		})
	})
	assign := func(item int) proto.NodeID { return item * probeNodes / probeItems }
	dirs := []struct {
		suffix string
		build  func() proto.Directory
	}{
		{"", func() proto.Directory { return proto.NewHashedDir(probeItems, probeNodes, o.seed, assign) }},
		{"_flat", func() proto.Directory { return proto.NewHomeMap(probeItems, probeNodes, assign) }},
	}
	items := make([]int, 4096)
	for i := range items {
		items[i] = rng.Intn(probeItems)
	}
	for _, dir := range dirs {
		suffix, build := dir.suffix, dir.build
		ns("proto.lookup"+suffix+"_ns", func(n int) time.Duration {
			d := build()
			d.Rehome(probeNodes / 2) // look up through a directory that has lived through a failure
			return timed(func() {
				for i := 0; i < n; i++ {
					d.Secondary(items[i%len(items)])
				}
			})
		})
		us("proto.rehome"+suffix+"_us_512", func(n int) time.Duration {
			var total time.Duration
			for i := 0; i < n; i++ {
				d := build()
				total += timed(func() { d.Rehome(probeNodes / 2) })
			}
			return total
		})
	}

	// checkpoint: encoding a thread state of the applications' shape.
	us("checkpoint.encode_us", func(n int) time.Duration {
		state := struct {
			Phase, Iter int
			Arrived     bool
			Scratch     []float64
		}{Phase: 3, Iter: 17, Arrived: true, Scratch: make([]float64, 256)}
		for i := range state.Scratch {
			state.Scratch[i] = rng.Float64()
		}
		return timed(func() {
			for i := 0; i < n; i++ {
				_, err := checkpoint.Encode(&state)
				check(err)
			}
		})
	})

	// obs: a flight-recorder event and a latency-histogram sample.
	ns("obs.record_ns", func(n int) time.Duration {
		rec := obs.NewRecorder(8, 512, nil)
		return timed(func() {
			for i := 0; i < n; i++ {
				rec.Record(obs.Event{TimeNs: int64(i) + 1, Seq: int64(i), Node: int32(i & 7), Kind: obs.KKill})
			}
		})
	})
	ns("obs.hist_record_ns", func(n int) time.Duration {
		h := obs.NewHistogram()
		vals := make([]int64, 1024)
		for i := range vals {
			vals[i] = rng.Int63n(50_000_000)
		}
		return timed(func() {
			for i := 0; i < n; i++ {
				h.Record(vals[i%len(vals)])
			}
		})
	})

	// oracle: causal replay of a 256-commit log (a sweep re-execution's
	// order of magnitude; replay is quadratic in the log), per commit. Node
	// j%8 commits its next interval having seen everything before it, each
	// commit one sparse page diff.
	const commits = 256
	probe("oracle.replay_us_per_commit", 1e3*commits, func(n int) time.Duration {
		const nodes, pages = 8, 64
		var log oracle.Log
		vt := proto.NewVector(nodes)
		twin, cur := page(20)
		runs := mem.Compute(twin, cur, 8)
		for j := 0; j < commits; j++ {
			node := j % nodes
			vt[node]++
			log.Commit(node, vt[node], vt, []*mem.Diff{{Page: rng.Intn(pages), Runs: runs}})
		}
		var total time.Duration
		for i := 0; i < n; i++ {
			store := oracle.NewStore(pages, 4096, nodes)
			total += timed(func() { check(store.Replay(log.Records, nil)) })
		}
		return total
	})
}
