package model

import (
	"math"
	"testing"
)

func TestDefaultValidates(t *testing.T) {
	cfg := Default()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero nodes", func(c *Config) { c.Nodes = 0 }},
		{"zero threads", func(c *Config) { c.ThreadsPerNode = 0 }},
		{"bad word size", func(c *Config) { c.WordSize = 3 }},
		{"page not multiple", func(c *Config) { c.PageSize = 4097 }},
		{"zero post queue", func(c *Config) { c.PostQueueDepth = 0 }},
		{"negative latency", func(c *Config) { c.LinkLatencyNs = -1 }},
		{"zero heartbeat", func(c *Config) { c.HeartbeatTimeoutNs = 0 }},
		{"backoff inverted", func(c *Config) { c.LockBackoffMaxNs = c.LockBackoffMinNs - 1 }},
		// Each of these once validated and ran to a wrong virtual time.
		{"NaN bandwidth", func(c *Config) { c.BandwidthNsPerByte = math.NaN() }},
		{"infinite bandwidth", func(c *Config) { c.BandwidthNsPerByte = math.Inf(1) }},
		{"negative drain overhead", func(c *Config) { c.NICDrainOverheadNs = -100_000 }},
		{"negative copy cost", func(c *Config) { c.MemCopyNsPerByte = -5 }},
		{"NaN diff cost", func(c *Config) { c.DiffComputeNsPerByte = math.NaN() }},
		{"-Inf checkpoint cost", func(c *Config) { c.CheckpointNsPerByte = math.Inf(-1) }},
		{"NaN contention", func(c *Config) { c.SMPContention = math.NaN() }},
		{"NaN degrade factor", func(c *Config) { c.Chaos.DegradeFactor = math.NaN() }},
		{"infinite gray factor", func(c *Config) { c.Chaos.GrayFactor = math.Inf(1) }},
		{"negative gray factor", func(c *Config) { c.Chaos.GrayFactor = -2 }},
		{"negative post overhead", func(c *Config) { c.NICPostOverheadNs = -1 }},
		{"negative read cost", func(c *Config) { c.ReadAccessNs = -1 }},
		{"negative write cost", func(c *Config) { c.WriteAccessNs = -1 }},
		{"negative protocol op", func(c *Config) { c.ProtoOpNs = -1 }},
		{"negative fault trap", func(c *Config) { c.PageFaultTrapNs = -1 }},
		{"negative suspend", func(c *Config) { c.ThreadSuspendNs = -1 }},
		{"negative backoff", func(c *Config) { c.LockBackoffMinNs, c.LockBackoffMaxNs = -10, -1 }},
		{"negative jitter, chaos off", func(c *Config) { c.Chaos.JitterNs = -1 }},
		{"negative burst start", func(c *Config) { c.Chaos.BurstStartNs = -1 }},
		{"negative checkpoint floor", func(c *Config) { c.MinCheckpointBytes = -1 }},
	}
	for _, c := range cases {
		cfg := Default()
		c.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// FuzzValidate drives arbitrary values through every kind of field
// Validate checks; it must answer, never panic.
func FuzzValidate(f *testing.F) {
	f.Add(8, 1, 4096, 4, int64(8000), 10.0, int64(500), 1.0, 3.0, 2048, 0, 0, true, 1.0, 1.0, 0, -1)
	f.Add(0, 0, 0, 0, int64(-1), math.NaN(), int64(-1), math.Inf(1), -1.0, -1, 1, 1, true, math.NaN(), -1.0, 99, 99)
	f.Fuzz(func(t *testing.T, nodes, tpn, page, word int, lat int64, bw float64, drain int64,
		copyNs, diffNs float64, minCkpt, degree, fanout int, chaos bool, degrade, gray float64, grayNode, burstSrc int) {
		c := Default()
		c.Nodes, c.ThreadsPerNode, c.PageSize, c.WordSize = nodes, tpn, page, word
		c.LinkLatencyNs, c.BandwidthNsPerByte, c.NICDrainOverheadNs = lat, bw, drain
		c.MemCopyNsPerByte, c.DiffComputeNsPerByte, c.MinCheckpointBytes = copyNs, diffNs, minCkpt
		c.ReplicaDegree, c.FanoutArity = degree, fanout
		c.Chaos = Chaos{Enabled: chaos, DegradeFactor: degrade, DegradeLenNs: 1, DegradePeriodNs: 2,
			GrayFactor: gray, GrayNodes: []int{grayNode}, BurstSrc: burstSrc, BurstDst: -1}
		if err := c.Validate(); err == nil {
			for _, v := range []float64{bw, copyNs, diffNs, degrade, gray} {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Fatalf("cost %g accepted", v)
				}
			}
		}
	})
}

func TestTransferNs(t *testing.T) {
	cfg := Default()
	got := cfg.TransferNs(4096)
	want := cfg.LinkLatencyNs + int64(4096*cfg.BandwidthNsPerByte)
	if got != want {
		t.Fatalf("TransferNs = %d, want %d", got, want)
	}
}

func TestCheckpointNsFloor(t *testing.T) {
	cfg := Default()
	small := cfg.CheckpointNs(10)
	floor := cfg.CheckpointNs(cfg.MinCheckpointBytes)
	if small != floor {
		t.Fatalf("floor not applied: %d vs %d", small, floor)
	}
	if cfg.CheckpointNs(2*cfg.MinCheckpointBytes) <= floor {
		t.Fatal("checkpoint cost not increasing with size")
	}
}

func TestContention(t *testing.T) {
	cfg := Default()
	if cfg.Contention(1000, 1) != 1000 {
		t.Fatal("single thread must be uncontended")
	}
	two := cfg.Contention(1000, 2)
	if two <= 1000 {
		t.Fatalf("two active threads should cost more: %d", two)
	}
	if cfg.Contention(1000, 3) <= two {
		t.Fatal("contention should grow with active threads")
	}
}

func TestTreeDepth(t *testing.T) {
	cfg := Default()
	cfg.FanoutArity = 4
	for _, c := range []struct{ n, want int }{
		{1, 1}, {2, 1}, {5, 1}, {6, 2}, {21, 2}, {22, 3}, {64, 3}, {256, 4},
	} {
		if got := cfg.TreeDepth(c.n); got != c.want {
			t.Errorf("TreeDepth(%d) arity 4 = %d, want %d", c.n, got, c.want)
		}
	}
	cfg.FanoutArity = 0
	if got := cfg.TreeDepth(64); got != 1 {
		t.Errorf("flat TreeDepth(64) = %d, want 1", got)
	}
}

func TestBarrierWaitScalesWithDepth(t *testing.T) {
	flat := Default()
	if flat.BarrierWaitNs() != 4*flat.HeartbeatTimeoutNs {
		t.Fatal("flat barrier wait must stay the legacy 4x heartbeat")
	}
	small := Default()
	small.Nodes = 8
	small.FanoutArity = 2
	big := Default()
	big.Nodes = 256
	big.FanoutArity = 2
	if small.BarrierWaitNs() <= flat.BarrierWaitNs() {
		t.Fatal("tree barrier wait must cover relay hops beyond the flat timeout")
	}
	if big.BarrierWaitNs() <= small.BarrierWaitNs() {
		t.Fatal("barrier wait must grow with tree depth")
	}
}
