package svm

import (
	"fmt"
	"testing"

	"ftsvm/internal/model"
)

// TestParallelPoolLaneSafety is the pooled-object lane audit, meant to
// run under -race: a write-heavy multi-writer workload on the parallel
// engine drives every pooled path concurrently across lanes — DiffBuf
// through the release diff scans (mem's sync.Pool is goroutine-safe and
// buffers never outlive the release that got them), wireEvt and
// Delivery through vmmc's per-endpoint free lists (strictly lane-local:
// got and put only on the owning endpoint's lane; a reply's outcome
// event is created on the destination lane and handed to the source
// lane only through the commit-ordered op release). The workload's
// exactness checks make sure no pooled buffer was recycled while a
// concurrent lane still referenced it.
func TestParallelPoolLaneSafety(t *testing.T) {
	const pages, iters, nodes = 4, 8, 4
	for _, mode := range []Mode{ModeBase, ModeFT} {
		for _, workers := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/w%d", mode, workers), func(t *testing.T) {
				cfg := model.Default()
				cfg.Nodes = nodes
				cl, err := New(Options{
					Config: cfg, Mode: mode, Pages: pages, Locks: 1,
					Body:    multiWriterBody(pages, iters, cfg.PageSize),
					Workers: workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := cl.Run(); err != nil {
					t.Fatal(err)
				}
				if err := cl.Verify(nil); err != nil {
					t.Fatal(err)
				}
				if r := cl.SerialFallbackReason(); r != "" {
					t.Fatalf("fell back to serial (%s) — pools not exercised across lanes", r)
				}
				for p := 0; p < pages; p++ {
					if got := cl.PeekU64(p * cfg.PageSize); got != nodes*iters {
						t.Fatalf("page %d shared word = %d, want %d", p, got, nodes*iters)
					}
					for id := 0; id < nodes; id++ {
						slot := p*cfg.PageSize + 64 + id*8
						if got := cl.PeekU64(slot); got != iters {
							t.Fatalf("page %d slot for t%d = %d, want %d", p, id, got, iters)
						}
					}
				}
			})
		}
	}
}

// TestParallelMatchesSerialCluster pins cluster-level bit-identity on
// the lock-heavy counter workload: virtual execution time, protocol
// counters, and the metrics snapshot must not depend on the worker
// count. (internal/harness's FuzzParallelDeterminism covers the full
// app suite; this is the fast in-package regression.)
func TestParallelMatchesSerialCluster(t *testing.T) {
	run := func(workers int) (int64, string, string) {
		cfg := model.Default()
		cfg.Nodes = 4
		cl, err := New(Options{
			Config: cfg, Mode: ModeFT, Pages: 8, Locks: 1,
			Body: counterBody(10), Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Run(); err != nil {
			t.Fatal(err)
		}
		checkCounter(t, cl, 4*10)
		var metrics string
		for _, c := range cl.Metrics().Sorted() {
			metrics += fmt.Sprintf("%s=%d\n", c.Name, c.Value)
		}
		return cl.ExecTime(), fmt.Sprintf("%+v", cl.ProtoStats()), metrics
	}
	execS, protoS, metS := run(1)
	for _, workers := range []int{2, 4} {
		execP, protoP, metP := run(workers)
		if execP != execS {
			t.Errorf("workers=%d: ExecTime %d != serial %d", workers, execP, execS)
		}
		if protoP != protoS {
			t.Errorf("workers=%d: proto stats diverge:\n%s\n%s", workers, protoP, protoS)
		}
		if metP != metS {
			t.Errorf("workers=%d: metrics diverge", workers)
		}
	}
}

// nopTracer is TestSerialFallbackReasons' tracer; it goes with Tracer.
type nopTracer struct{}

func (nopTracer) Event(TraceEvent) {}

// TestSerialFallbackReasons pins the serial-only feature matrix: every
// feature that observes or mutates global event order must refuse the
// parallel engine with a stated reason, and a plain run must not.
func TestSerialFallbackReasons(t *testing.T) {
	build := func(mut func(*Options), cfgMut func(*model.Config)) *Cluster {
		cfg := model.Default()
		cfg.Nodes = 2
		if cfgMut != nil {
			cfgMut(&cfg)
		}
		opt := Options{
			Config: cfg, Mode: ModeFT, Pages: 2, Locks: 1,
			Body: counterBody(1), Workers: 2,
		}
		if mut != nil {
			mut(&opt)
		}
		cl, err := New(opt)
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	cl := build(nil, nil)
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if r := cl.SerialFallbackReason(); r != "" {
		t.Fatalf("plain run fell back: %s", r)
	}
	cases := []struct {
		name string
		mut  func(*Options)
		cfg  func(*model.Config)
	}{
		{"tracer", func(o *Options) { o.Tracer = nopTracer{} }, nil},
		{"probe detection", nil, func(c *model.Config) { c.Detection = model.DetectProbe }},
		{"chaos", nil, func(c *model.Config) {
			c.Chaos.Enabled = true
			c.Chaos.JitterNs = 500
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl := build(tc.mut, tc.cfg)
			if err := cl.Run(); err != nil {
				t.Fatal(err)
			}
			if r := cl.SerialFallbackReason(); r == "" {
				t.Fatalf("%s: expected serial fallback, got parallel run", tc.name)
			}
			if got := cl.EngineWorkers(); got != 1 {
				t.Fatalf("%s: EngineWorkers = %d after fallback, want 1", tc.name, got)
			}
		})
	}
}
