package vmmc

import (
	"errors"
	"testing"

	"ftsvm/internal/model"
	"ftsvm/internal/sim"
)

func testNet(nodes int) (*sim.Engine, *Network, *model.Config) {
	cfg := model.Default()
	cfg.Nodes = nodes
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

func TestPostDelivers(t *testing.T) {
	cfg := model.Default()
	cfg.Nodes = 2
	eng := sim.New(1)
	net := New(eng, &cfg)
	var got []any
	var at int64
	net.Endpoint(1).SetHandler(func(d *Delivery) {
		got = append(got, d.Payload)
		at = eng.Now()
	})
	net.Endpoint(0).SetHandler(func(d *Delivery) {})
	eng.Spawn("sender", func(p *sim.Proc) {
		net.Endpoint(0).Post(p, 1, 100, "hello")
		if err := net.Endpoint(0).Fence(p); err != nil {
			t.Errorf("Fence: %v", err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "hello" {
		t.Fatalf("got %v", got)
	}
	// Delivery time = drain overhead + (100+header)/bandwidth + latency.
	wantMin := cfg.NICDrainOverheadNs + int64(float64(100+MsgHeaderBytes)*cfg.BandwidthNsPerByte) + cfg.LinkLatencyNs
	if at < wantMin {
		t.Fatalf("delivered at %d, want >= %d", at, wantMin)
	}
}

func TestFIFOPerSender(t *testing.T) {
	eng, net, _ := testNet(2)
	var got []int
	net.Endpoint(1).SetHandler(func(d *Delivery) { got = append(got, d.Payload.(int)) })
	eng.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			net.Endpoint(0).Post(p, 1, 50, i)
		}
		net.Endpoint(0).Fence(p)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("received %d messages", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order: %v", got)
		}
	}
}

func TestRequestReply(t *testing.T) {
	eng, net, _ := testNet(2)
	net.Endpoint(1).SetHandler(func(d *Delivery) {
		if !d.NeedsReply() {
			t.Error("request delivery did not need reply")
		}
		d.Reply(d.Payload.(int)*2, 8)
	})
	var got any
	eng.Spawn("caller", func(p *sim.Proc) {
		v, err := net.Endpoint(0).Request(p, 1, 16, 21)
		if err != nil {
			t.Errorf("Request: %v", err)
		}
		got = v
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("got %v, want 42", got)
	}
}

func TestDeferredReply(t *testing.T) {
	eng, net, _ := testNet(2)
	var pending *Delivery
	net.Endpoint(1).SetHandler(func(d *Delivery) { pending = d })
	eng.At(1_000_000, func() { pending.Reply("late", 8) })
	var got any
	eng.Spawn("caller", func(p *sim.Proc) {
		got, _ = net.Endpoint(0).Request(p, 1, 16, "q")
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "late" {
		t.Fatalf("got %v", got)
	}
}

func TestPostQueueBackPressure(t *testing.T) {
	cfg := model.Default()
	cfg.Nodes = 2
	cfg.PostQueueDepth = 4
	eng := sim.New(1)
	net := New(eng, &cfg)
	net.Endpoint(1).SetHandler(func(d *Delivery) {})
	net.Endpoint(0).SetHandler(func(d *Delivery) {})
	var postDone int64
	eng.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 32; i++ {
			net.Endpoint(0).Post(p, 1, 4000, i) // large messages, slow drain
		}
		postDone = p.Now()
		net.Endpoint(0).Fence(p)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if postDone == 0 {
		t.Fatal("sender never finished posting")
	}
	// With depth 4 and 32 slow messages the sender must have stalled.
	if st := net.Endpoint(0).Stats().PostStallsNs; st <= 0 {
		t.Fatalf("PostStallsNs = %d, want > 0", st)
	}
}

func TestFenceErrorOnDeadDestination(t *testing.T) {
	eng, net, _ := testNet(2)
	net.Kill(1)
	var ferr error
	eng.Spawn("sender", func(p *sim.Proc) {
		net.Endpoint(0).Post(p, 1, 100, "x")
		ferr = net.Endpoint(0).Fence(p)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(ferr, ErrNodeDead) {
		t.Fatalf("Fence error = %v, want ErrNodeDead", ferr)
	}
}

func TestFenceErrorConsumed(t *testing.T) {
	eng, net, _ := testNet(2)
	net.Kill(1)
	var e1, e2 error
	eng.Spawn("sender", func(p *sim.Proc) {
		net.Endpoint(0).Post(p, 1, 100, "x")
		e1 = net.Endpoint(0).Fence(p)
		e2 = net.Endpoint(0).Fence(p)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(e1, ErrNodeDead) || e2 != nil {
		t.Fatalf("e1=%v e2=%v, want error then nil", e1, e2)
	}
}

func TestRequestToDeadNodeErrors(t *testing.T) {
	eng, net, cfg := testNet(2)
	net.Kill(1)
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
	if elapsed > 10*cfg.HeartbeatTimeoutNs {
		t.Fatalf("detection took %d ns, want prompt", elapsed)
	}
}

func TestRequestWhenNodeDiesMidWait(t *testing.T) {
	eng, net, _ := testNet(2)
	// Node 1 never replies, then dies.
	net.Endpoint(1).SetHandler(func(d *Delivery) { /* hold the call forever */ })
	eng.At(5_000_000, func() { net.Kill(1) })
	var rerr error
	eng.Spawn("caller", func(p *sim.Proc) {
		_, rerr = net.Endpoint(0).Request(p, 1, 16, "q")
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(rerr, ErrNodeDead) {
		t.Fatalf("err = %v, want ErrNodeDead", rerr)
	}
}

func TestKillDropsQueuedMessagesButDeliversWireMessages(t *testing.T) {
	cfg := model.Default()
	cfg.Nodes = 2
	cfg.PostQueueDepth = 64
	eng := sim.New(1)
	net := New(eng, &cfg)
	received := 0
	net.Endpoint(1).SetHandler(func(d *Delivery) { received++ })
	net.Endpoint(0).SetHandler(func(d *Delivery) {})
	eng.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			net.Endpoint(0).Post(p, 1, 4000, i)
		}
		// Die immediately after posting: only messages the NIC already
		// drained make it out.
		net.Kill(0)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if received >= 10 {
		t.Fatalf("all %d messages delivered despite sender death", received)
	}
}

func TestAliveOracle(t *testing.T) {
	_, net, _ := testNet(3)
	if !net.Alive(2) {
		t.Fatal("fresh node reported dead")
	}
	net.Kill(2)
	if net.Alive(2) {
		t.Fatal("killed node reported alive")
	}
	net.Kill(2) // idempotent
}

func TestStatsCounts(t *testing.T) {
	eng, net, _ := testNet(2)
	eng.Spawn("sender", func(p *sim.Proc) {
		net.Endpoint(0).Post(p, 1, 100, "a")
		net.Endpoint(0).Post(p, 1, 200, "b")
		net.Endpoint(0).Fence(p)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	s := net.Endpoint(0).Stats()
	if s.MsgsSent != 2 {
		t.Fatalf("MsgsSent = %d", s.MsgsSent)
	}
	if s.BytesSent != int64(300+2*MsgHeaderBytes) {
		t.Fatalf("BytesSent = %d", s.BytesSent)
	}
	if net.Endpoint(1).Stats().MsgsReceived != 2 {
		t.Fatalf("MsgsReceived = %d", net.Endpoint(1).Stats().MsgsReceived)
	}
}

func TestPostSystemBypassesDepthLimit(t *testing.T) {
	cfg := model.Default()
	cfg.Nodes = 2
	cfg.PostQueueDepth = 1
	eng := sim.New(1)
	net := New(eng, &cfg)
	received := 0
	net.Endpoint(1).SetHandler(func(d *Delivery) { received++ })
	net.Endpoint(0).SetHandler(func(d *Delivery) {})
	// Enqueue many system messages from engine context: must not block.
	eng.At(0, func() {
		for i := 0; i < 20; i++ {
			net.Endpoint(0).PostSystem(1, 64, i)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if received != 20 {
		t.Fatalf("received %d system messages, want 20", received)
	}
}

func TestRequestAbort(t *testing.T) {
	cfg := model.Default()
	cfg.Nodes = 2
	eng := sim.New(1)
	net := New(eng, &cfg)
	// Node 1 never replies.
	net.Endpoint(1).SetHandler(func(d *Delivery) {})
	net.Endpoint(0).SetHandler(func(d *Delivery) {})
	aborted := false
	eng.Spawn("caller", func(p *sim.Proc) {
		stop := false
		eng.At(3*cfg.HeartbeatTimeoutNs, func() { stop = true })
		_, err := net.Endpoint(0).RequestAbort(p, 1, 16, "q", func() bool { return stop })
		aborted = errors.Is(err, ErrAborted)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !aborted {
		t.Fatal("RequestAbort did not return ErrAborted")
	}
}

func TestInFlightTracking(t *testing.T) {
	eng, net, _ := testNet(2)
	var during, after int
	eng.Spawn("sender", func(p *sim.Proc) {
		net.Endpoint(0).Post(p, 1, 100, "x")
		during = net.Endpoint(0).InFlight()
		net.Endpoint(0).Fence(p)
		after = net.Endpoint(0).InFlight()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if during != 1 || after != 0 {
		t.Fatalf("InFlight during=%d after=%d", during, after)
	}
}

func TestEndpointID(t *testing.T) {
	_, net, _ := testNet(3)
	for i := 0; i < 3; i++ {
		if net.Endpoint(i).ID() != i {
			t.Fatalf("endpoint %d reports ID %d", i, net.Endpoint(i).ID())
		}
	}
}

// TestRetransmissionMasksTransientErrors drops every 3rd packet: the FIFO
// order and exactly-once delivery must survive, with only latency added
// (VMMC's reliability contract).
func TestRetransmissionMasksTransientErrors(t *testing.T) {
	cfg := model.Default()
	cfg.Nodes = 2
	eng := sim.New(1)
	net := New(eng, &cfg)
	net.SetDropEveryNth(3)
	var got []int
	net.Endpoint(1).SetHandler(func(d *Delivery) { got = append(got, d.Payload.(int)) })
	net.Endpoint(0).SetHandler(func(d *Delivery) {})
	eng.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 30; i++ {
			net.Endpoint(0).Post(p, 1, 64, i)
		}
		if err := net.Endpoint(0).Fence(p); err != nil {
			t.Errorf("Fence: %v", err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 30 {
		t.Fatalf("delivered %d messages, want 30 (exactly once)", len(got))
	}
	if net.Retransmits == 0 {
		t.Fatal("no retransmissions recorded")
	}
	seen := map[int]bool{}
	for _, v := range got {
		if seen[v] {
			t.Fatalf("duplicate delivery of %d", v)
		}
		seen[v] = true
	}
}

// TestRequestsSurviveDrops runs request/reply traffic over a lossy link.
func TestRequestsSurviveDrops(t *testing.T) {
	cfg := model.Default()
	cfg.Nodes = 2
	eng := sim.New(1)
	net := New(eng, &cfg)
	net.SetDropEveryNth(2) // every other packet lost once
	net.Endpoint(1).SetHandler(func(d *Delivery) { d.Reply(d.Payload.(int)+1, 8) })
	net.Endpoint(0).SetHandler(func(d *Delivery) {})
	sum := 0
	eng.Spawn("caller", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			v, err := net.Endpoint(0).Request(p, 1, 16, i)
			if err != nil {
				t.Errorf("Request %d: %v", i, err)
				return
			}
			sum += v.(int)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if sum != 55 {
		t.Fatalf("sum = %d, want 55", sum)
	}
}

// TestDropEveryPacketOnce is the retransmission-livelock regression: with
// dropNth=1, every packet's *first* transmission is dropped. Before
// retransmissions were exempted from the drop counter, the retransmitted
// copy re-entered the same counter, was dropped again, and the simulation
// spun forever without advancing any payload. Now each message is dropped
// exactly once and delivered on its retransmission.
func TestDropEveryPacketOnce(t *testing.T) {
	cfg := model.Default()
	cfg.Nodes = 2
	eng := sim.New(1)
	net := New(eng, &cfg)
	net.SetDropEveryNth(1)
	var got []int
	net.Endpoint(1).SetHandler(func(d *Delivery) { got = append(got, d.Payload.(int)) })
	net.Endpoint(0).SetHandler(func(d *Delivery) {})
	eng.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			net.Endpoint(0).Post(p, 1, 64, i)
		}
		if err := net.Endpoint(0).Fence(p); err != nil {
			t.Errorf("Fence: %v", err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("delivered %d messages, want 10", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order or duplicated: %v", got)
		}
	}
	if net.Retransmits != 10 {
		t.Fatalf("Retransmits = %d, want exactly 10 (each packet dropped once)", net.Retransmits)
	}
}

// TestRoundTripLeavesPoolsLevel: a request/reply round trip crosses the
// wire three times (request delivery, acknowledgement, reply delivery), so
// without the spare event a request carries, every round moves one pooled
// event from the home to the requester: the home allocates two objects per
// reply and the requester's pool grows for the life of the cluster. After
// 10 000 round trips both pools are still a handful of events and a round
// trip (request, inline reply, ack, outcome) allocates nothing.
func TestRoundTripLeavesPoolsLevel(t *testing.T) {
	eng, net, _ := testNet(2)
	client, home := net.Endpoint(0), net.Endpoint(1)
	allocs := -1.0
	eng.Spawn("client", func(p *sim.Proc) {
		roundTrip := func() {
			if v, err := client.Request(p, 1, 64, "ping"); err != nil || v != "ack" {
				t.Errorf("round trip: %v, %v", v, err)
			}
		}
		for i := 0; i < 10_000; i++ {
			roundTrip()
		}
		allocs = testing.AllocsPerRun(1000, roundTrip)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	const level = 8
	if c, h := len(client.evtFree), len(home.evtFree); c > level || h > level {
		t.Errorf("after 11 000 round trips the pools hold %d (requester) and %d (home) events, want at most %d each", c, h, level)
	}
	if allocs != 0 {
		t.Errorf("a steady-state round trip allocates %.1f objects, want 0", allocs)
	}
}

// TestAbandonedCallNeverReused covers the three ways a request ends without
// its reply — a timeout into a dead-node verdict, the abort predicate, a
// destination dead before delivery. Each leaves its pendingCall out of the
// free list, so the next request gets a fresh one, and a reply that turns
// up late resolves only the call nobody waits on.
func TestAbandonedCallNeverReused(t *testing.T) {
	eng, net, cfg := testNet(4)
	ep := net.Endpoint(0)
	// Node 1 holds every request; node 2 answers; node 3 is dead already.
	var held []*Delivery
	net.Endpoint(1).SetHandler(func(d *Delivery) { held = append(held, d) })
	net.Kill(3)
	eng.Spawn("caller", func(p *sim.Proc) {
		fresh := func(after string) {
			t.Helper()
			if len(ep.callFree) != 0 {
				t.Fatalf("%s: the abandoned call went back on the free list", after)
			}
			v, err := ep.Request(p, 2, 16, "q")
			if err != nil || v != "ack" {
				t.Fatalf("%s: next request: %v, %v", after, v, err)
			}
			for _, d := range held {
				if d.call == ep.callFree[0] {
					t.Fatalf("%s: next request reused a call the home still holds", after)
				}
			}
			ep.callFree = nil
		}

		stop := false
		eng.At(3*cfg.HeartbeatTimeoutNs, func() { stop = true })
		if _, err := ep.RequestAbort(p, 1, 16, "q", func() bool { return stop }); !errors.Is(err, ErrAborted) {
			t.Fatalf("abort: err = %v", err)
		}
		fresh("abort")

		// The aborted request's reply turns up while another request to the
		// same home is outstanding: it must not complete that one.
		eng.At(cfg.HeartbeatTimeoutNs/2, func() { held[0].Reply("late", 8) })
		eng.At(cfg.HeartbeatTimeoutNs, func() { held[1].Reply("mine", 8) })
		if v, err := ep.Request(p, 1, 16, "q"); err != nil || v != "mine" {
			t.Fatalf("request behind a late reply: %v, %v", v, err)
		}
		ep.callFree = nil

		if _, err := ep.Request(p, 3, 16, "q"); !errors.Is(err, ErrNodeDead) {
			t.Fatalf("dead before delivery: err = %v", err)
		}
		fresh("dead before delivery")

		eng.At(cfg.HeartbeatTimeoutNs/2, func() { net.Kill(1) })
		if _, err := ep.Request(p, 1, 16, "q"); !errors.Is(err, ErrNodeDead) {
			t.Fatalf("timeout into a dead-node verdict: err = %v", err)
		}
		fresh("timeout")
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}
