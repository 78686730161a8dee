package ftsvm

import (
	"testing"

	"ftsvm/internal/harness"
	"ftsvm/internal/svm"
)

// TestReleaseVariantsPinned pins the release and lock paths that no
// golden cell takes: aggregated diffs, the single-phase ablation,
// serialized base releases, and the queue and NIC locks. Each cell's
// virtual execution time, message count and wire bytes are literals; a
// rewrite of the release pipeline or the lock rounds that claims to move
// nothing must leave every one of them in place.
func TestReleaseVariantsPinned(t *testing.T) {
	primeGob(t)
	base := harness.Config{App: "waternsq", Size: harness.SizeSmall, Mode: svm.ModeBase, Nodes: 4, ThreadsPerNode: 1}
	ext := base
	ext.Mode = svm.ModeFT
	cells := []struct {
		name                string
		cfg                 harness.Config
		execNs, msgs, bytes int64
	}{
		{"base/aggregate", with(base, func(c *harness.Config) { c.AggregateDiffs = true }), 62684733, 11246, 5401948},
		{"extended/aggregate", with(ext, func(c *harness.Config) { c.AggregateDiffs = true }), 85786003, 17098, 6592248},
		{"extended/single-phase", with(ext, func(c *harness.Config) { c.UnsafeSinglePhase = true }), 79160172, 17266, 6577304},
		{"base/serial/2t", with(base, func(c *harness.Config) { c.SerialReleases, c.ThreadsPerNode = true, 2 }), 72975870, 14212, 5673364},
		{"base/queue", with(base, func(c *harness.Config) { c.LockAlgo = svm.LockQueue }), 62806597, 10102, 5328472},
		{"base/nic", with(base, func(c *harness.Config) { c.LockAlgo = svm.LockNIC }), 60570527, 10052, 5339664},
		{"extended/nic", with(ext, func(c *harness.Config) { c.LockAlgo = svm.LockNIC }), 93128122, 17250, 6574696},
	}
	for _, c := range cells {
		r := harness.Run(c.cfg)
		if r.Err != nil {
			t.Fatalf("%s: %v", c.name, r.Err)
		}
		if r.ExecNs != c.execNs || r.MsgsSent != c.msgs || r.BytesSent != c.bytes {
			t.Errorf("%s: exec_ns %d msgs %d bytes %d, want %d %d %d",
				c.name, r.ExecNs, r.MsgsSent, r.BytesSent, c.execNs, c.msgs, c.bytes)
		}
	}
}

func with(c harness.Config, set func(*harness.Config)) harness.Config {
	set(&c)
	return c
}
