package vmmc

import (
	"errors"
	"strings"
	"testing"

	"ftsvm/internal/model"
	"ftsvm/internal/sim"
)

// TestFenceJoinsAllDeadDestinations is the multi-failure regression: a
// fence that hit two dead peers must report both, not just the first, so
// recovery learns every failed destination.
func TestFenceJoinsAllDeadDestinations(t *testing.T) {
	eng, net, _ := testNet(4)
	net.Kill(1)
	net.Kill(2)
	var ferr error
	eng.Spawn("sender", func(p *sim.Proc) {
		net.Endpoint(0).Post(p, 1, 100, "a")
		net.Endpoint(0).Post(p, 2, 100, "b")
		net.Endpoint(0).Post(p, 3, 100, "c")
		ferr = net.Endpoint(0).Fence(p)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(ferr, ErrNodeDead) {
		t.Fatalf("Fence error = %v, want ErrNodeDead", ferr)
	}
	msg := ferr.Error()
	if !strings.Contains(msg, "node 1") || !strings.Contains(msg, "node 2") {
		t.Fatalf("Fence error names %q, want both node 1 and node 2", msg)
	}
	if strings.Contains(msg, "node 3") {
		t.Fatalf("Fence error %q blames the live node 3", msg)
	}
}

// TestFenceDeduplicatesPerDestination: many posts to one dead peer still
// produce one error entry for it.
func TestFenceDeduplicatesPerDestination(t *testing.T) {
	eng, net, _ := testNet(2)
	net.Kill(1)
	var ferr error
	eng.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			net.Endpoint(0).Post(p, 1, 64, i)
		}
		ferr = net.Endpoint(0).Fence(p)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(ferr, ErrNodeDead) {
		t.Fatalf("Fence error = %v, want ErrNodeDead", ferr)
	}
	if n := strings.Count(ferr.Error(), "node 1"); n != 1 {
		t.Fatalf("dead node 1 reported %d times in %q, want once", n, ferr)
	}
}

// TestRetxTimeoutHonorsConfig: the retransmission of a dropped packet
// waits the timeout the config derives for its size.
func TestRetxTimeoutHonorsConfig(t *testing.T) {
	cfg := model.Default()
	cfg.Nodes = 2
	eng := sim.New(1)
	net := New(eng, &cfg)
	net.SetDropEveryNth(1) // first transmission always lost
	var at int64
	net.Endpoint(1).SetHandler(func(d *Delivery) { at = eng.Now() })
	net.Endpoint(0).SetHandler(func(d *Delivery) {})
	eng.Spawn("sender", func(p *sim.Proc) {
		net.Endpoint(0).Post(p, 1, 64, "x")
		net.Endpoint(0).Fence(p)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if want := cfg.RetxTimeout(64); at < want {
		t.Fatalf("retransmission delivered at %d, want >= %d", at, want)
	}
}

// TestRetxTimeoutDerivedScalesWithSize: a large message's retransmission
// timeout includes its serialization time, so it is not declared lost
// while its DMA could still be in progress.
func TestRetxTimeoutDerivedScalesWithSize(t *testing.T) {
	cfg := model.Default()
	small, large := cfg.RetxTimeout(64), cfg.RetxTimeout(64<<10)
	if small <= 4*cfg.LinkLatencyNs-1 {
		t.Fatalf("RetxTimeout(64) = %d, want >= round-trip-based floor", small)
	}
	wantDelta := 2 * int64(float64(64<<10-64)*cfg.BandwidthNsPerByte)
	if large-small != wantDelta {
		t.Fatalf("RetxTimeout delta = %d, want serialization-derived %d", large-small, wantDelta)
	}
}

// TestRetxBytesCounted: retransmitted wire volume is visible separately
// from first-transmission Stats.
func TestRetxBytesCounted(t *testing.T) {
	cfg := model.Default()
	cfg.Nodes = 2
	eng := sim.New(1)
	net := New(eng, &cfg)
	net.SetDropEveryNth(2)
	net.Endpoint(1).SetHandler(func(d *Delivery) {})
	net.Endpoint(0).SetHandler(func(d *Delivery) {})
	eng.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			net.Endpoint(0).Post(p, 1, 64, i)
		}
		net.Endpoint(0).Fence(p)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if net.Retransmits != 5 {
		t.Fatalf("Retransmits = %d, want 5", net.Retransmits)
	}
	want := net.Retransmits * int64(64+MsgHeaderBytes)
	if net.RetxBytes != want {
		t.Fatalf("RetxBytes = %d, want %d", net.RetxBytes, want)
	}
	// First transmissions only in Stats: 10 messages, counted once each.
	if s := net.Endpoint(0).Stats(); s.BytesSent != int64(10*(64+MsgHeaderBytes)) {
		t.Fatalf("BytesSent = %d, want first transmissions only", s.BytesSent)
	}
}

// probeNet builds a network in probe-detection mode.
func probeNet(nodes int) (*sim.Engine, *Network, *model.Config) {
	cfg := model.Default()
	cfg.Nodes = nodes
	cfg.Detection = model.DetectProbe
	eng := sim.New(cfg.Seed)
	net := New(eng, &cfg)
	for i := 0; i < nodes; i++ {
		net.Endpoint(i).SetHandler(func(d *Delivery) {
			if d.NeedsReply() {
				d.Reply("ack", 8)
			}
		})
	}
	return eng, net, &cfg
}

// TestProbeDetectionConfirmsDeadNode: a peer that dies while holding a
// call is detected by real probe traffic — the probes are paid for on the
// wire, acks stop when the node dies, and the suspicion is confirmed only
// after ProbeMissLimit consecutive misses.
func TestProbeDetectionConfirmsDeadNode(t *testing.T) {
	eng, net, cfg := probeNet(2)
	net.Endpoint(1).SetHandler(func(d *Delivery) { /* hold the call forever */ })
	const killAt = 5_000_000
	eng.At(killAt, func() { net.Kill(1) })
	var rerr error
	var elapsed int64
	eng.Spawn("caller", func(p *sim.Proc) {
		t0 := p.Now()
		_, rerr = net.Endpoint(0).Request(p, 1, 16, "q")
		elapsed = p.Now() - t0
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(rerr, ErrNodeDead) {
		t.Fatalf("err = %v, want ErrNodeDead", rerr)
	}
	if !net.ConfirmedDead(1) {
		t.Fatal("failure not confirmed by the detector")
	}
	if net.ProbeAcks == 0 {
		t.Fatal("no probe acks while the peer was alive")
	}
	if net.ProbesSent < net.ProbeAcks+int64(cfg.ProbeMissLimit) {
		t.Fatalf("ProbesSent = %d, want >= acks (%d) + miss limit (%d)",
			net.ProbesSent, net.ProbeAcks, cfg.ProbeMissLimit)
	}
	// Probe traffic is real: it appears in the endpoint's wire stats.
	if s := net.Endpoint(0).Stats(); s.MsgsSent != 1+net.ProbesSent {
		t.Fatalf("MsgsSent = %d, want request + %d probes", s.MsgsSent, net.ProbesSent)
	}
	// Confirmation needs ProbeMissLimit missed rounds after the kill, each
	// a heartbeat period apart — strictly slower than the oracle, bounded
	// by a few heartbeat periods.
	minNs := int64(cfg.ProbeMissLimit) * cfg.ProbeTimeoutNs
	maxNs := killAt + int64(cfg.ProbeMissLimit+2)*(cfg.HeartbeatTimeoutNs+cfg.ProbeTimeoutNs)
	if elapsed < minNs || elapsed > maxNs {
		t.Fatalf("detection took %d ns, want within [%d, %d]", elapsed, minNs, maxNs)
	}
}

// TestProbeFalseSuspicionVetoed: a burst that swallows enough consecutive
// probes drives the miss count to the limit while the peer is alive. The
// detector must veto the confirmation (counting the near-miss), and the
// stalled request must still complete once the network heals — fail-stop
// is never violated by a slow or lossy network.
func TestProbeFalseSuspicionVetoed(t *testing.T) {
	cfg := model.Default()
	cfg.Nodes = 2
	cfg.Detection = model.DetectProbe
	// One-shot full loss for 10 ms from the start: several heartbeat+probe
	// rounds all miss.
	cfg.Chaos = model.Chaos{Enabled: true, Seed: 7,
		BurstStartNs: 0, BurstLenNs: 10_000_000, BurstSrc: -1, BurstDst: -1}
	eng := sim.New(cfg.Seed)
	net := New(eng, &cfg)
	net.Endpoint(1).SetHandler(func(d *Delivery) { d.Reply("pong", 8) })
	net.Endpoint(0).SetHandler(func(d *Delivery) {})
	var got any
	var rerr error
	eng.Spawn("caller", func(p *sim.Proc) {
		got, rerr = net.Endpoint(0).Request(p, 1, 16, "ping")
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if rerr != nil {
		t.Fatalf("request failed despite live peer: %v", rerr)
	}
	if got != "pong" {
		t.Fatalf("got %v, want pong", got)
	}
	if net.FalseSuspicions == 0 {
		t.Fatal("miss streak never reached the limit — burst did not stress the detector")
	}
	if net.ConfirmedDead(1) {
		t.Fatal("live node confirmed dead: fail-stop assumption violated")
	}
}

// TestJitterPreservesFIFO: heavy latency jitter must not reorder one
// sender's messages — per-sender FIFO is part of the VMMC contract and
// protocol invariants depend on it.
func TestJitterPreservesFIFO(t *testing.T) {
	cfg := model.Default()
	cfg.Nodes = 2
	cfg.Chaos = model.Chaos{Enabled: true, Seed: 3, JitterNs: 500_000,
		BurstSrc: -1, BurstDst: -1} // jitter >> per-message drain spacing
	eng := sim.New(cfg.Seed)
	net := New(eng, &cfg)
	var got []int
	net.Endpoint(1).SetHandler(func(d *Delivery) { got = append(got, d.Payload.(int)) })
	net.Endpoint(0).SetHandler(func(d *Delivery) {})
	eng.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			net.Endpoint(0).Post(p, 1, 50, i)
		}
		net.Endpoint(0).Fence(p)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Fatalf("delivered %d messages, want 50", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("jitter reordered deliveries: %v", got)
		}
	}
}

// TestChaosDeterministic: the same chaos configuration replays the same
// event sequence — identical final virtual time and identical counters.
func TestChaosDeterministic(t *testing.T) {
	run := func() (int64, int64, Stats) {
		cfg := model.Default()
		cfg.Nodes = 3
		cfg.Detection = model.DetectProbe
		cfg.Chaos = model.Chaos{Enabled: true, Seed: 21, JitterNs: 30_000,
			DegradePeriodNs: 500_000, DegradeLenNs: 100_000, DegradeFactor: 4,
			BurstStartNs: 200_000, BurstLenNs: 80_000, BurstPeriodNs: 900_000,
			BurstSrc: -1, BurstDst: -1, GrayNodes: []int{2}, GrayFactor: 5}
		eng := sim.New(cfg.Seed)
		net := New(eng, &cfg)
		for i := 0; i < 3; i++ {
			net.Endpoint(i).SetHandler(func(d *Delivery) {
				if d.NeedsReply() {
					d.Reply("r", 8)
				}
			})
		}
		eng.Spawn("caller", func(p *sim.Proc) {
			for i := 0; i < 20; i++ {
				net.Endpoint(0).Post(p, 1+i%2, 400, i)
				if _, err := net.Endpoint(0).Request(p, 1+i%2, 64, i); err != nil {
					t.Errorf("request %d: %v", i, err)
				}
			}
			net.Endpoint(0).Fence(p)
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return eng.Now(), net.RetxBytes, net.Endpoint(0).Stats()
	}
	t1, rb1, s1 := run()
	t2, rb2, s2 := run()
	if t1 != t2 || rb1 != rb2 || s1 != s2 {
		t.Fatalf("chaos replay diverged: now %d vs %d, retxBytes %d vs %d, stats %+v vs %+v",
			t1, t2, rb1, rb2, s1, s2)
	}
}

// TestGrayNodeSlowsItsNIC: a gray node's sends take measurably longer.
func TestGrayNodeSlowsItsNIC(t *testing.T) {
	deliveryAt := func(gray bool) int64 {
		cfg := model.Default()
		cfg.Nodes = 2
		if gray {
			cfg.Chaos = model.Chaos{Enabled: true, GrayNodes: []int{0}, GrayFactor: 8,
				BurstSrc: -1, BurstDst: -1}
		}
		eng := sim.New(1)
		net := New(eng, &cfg)
		var at int64
		net.Endpoint(1).SetHandler(func(d *Delivery) { at = eng.Now() })
		net.Endpoint(0).SetHandler(func(d *Delivery) {})
		eng.Spawn("sender", func(p *sim.Proc) {
			net.Endpoint(0).Post(p, 1, 4000, "page")
			net.Endpoint(0).Fence(p)
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return at
	}
	fast, slow := deliveryAt(false), deliveryAt(true)
	if slow <= 4*fast {
		t.Fatalf("gray NIC delivered at %d vs %d healthy — want a clear slowdown", slow, fast)
	}
}

// TestDegradeWindowSlowsBandwidth: inside a degradation window the DMA
// term grows by the configured factor.
func TestDegradeWindowSlowsBandwidth(t *testing.T) {
	deliveryAt := func(degrade bool) int64 {
		cfg := model.Default()
		cfg.Nodes = 2
		if degrade {
			// The window covers the whole (short) run.
			cfg.Chaos = model.Chaos{Enabled: true,
				DegradePeriodNs: 1 << 40, DegradeLenNs: 1 << 40, DegradeFactor: 10,
				BurstSrc: -1, BurstDst: -1}
		}
		eng := sim.New(1)
		net := New(eng, &cfg)
		var at int64
		net.Endpoint(1).SetHandler(func(d *Delivery) { at = eng.Now() })
		net.Endpoint(0).SetHandler(func(d *Delivery) {})
		eng.Spawn("sender", func(p *sim.Proc) {
			net.Endpoint(0).Post(p, 1, 4000, "page")
			net.Endpoint(0).Fence(p)
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return at
	}
	fast, slow := deliveryAt(false), deliveryAt(true)
	if slow <= 2*fast {
		t.Fatalf("degraded window delivered at %d vs %d healthy — want a clear slowdown", slow, fast)
	}
}

// TestOracleModeSendsNoProbes: the default detection mode must not emit
// any probe traffic (bit-compatibility with the seed's figure grid).
func TestOracleModeSendsNoProbes(t *testing.T) {
	eng, net, _ := testNet(2)
	eng.At(1_000_000, func() { net.Kill(1) })
	eng.Spawn("caller", func(p *sim.Proc) {
		net.Endpoint(0).Post(p, 1, 64, "x")
		net.Endpoint(0).Fence(p)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if net.ProbesSent != 0 || net.ProbeAcks != 0 {
		t.Fatalf("oracle mode sent %d probes / %d acks, want none", net.ProbesSent, net.ProbeAcks)
	}
}
