package harness

import (
	"testing"

	"ftsvm/internal/model"
	"ftsvm/internal/svm"
)

func TestParseTier(t *testing.T) {
	for s, want := range map[string]Tier{
		"": TierPaper, "paper": TierPaper, "large": TierLarge, "huge": TierHuge,
		"xlarge": TierXLarge,
	} {
		got, err := ParseTier(s)
		if err != nil || got != want {
			t.Fatalf("ParseTier(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseTier("gigantic"); err == nil {
		t.Fatal("ParseTier should reject unknown tiers")
	}
}

// TestTierApply pins the scale presets: the tiers are the product's
// contract for "what turns on past the paper grid", so a silent change
// to any knob (including the contention-scaled lock backoff that keeps
// a 64-way polling lock from live-locking) should fail loudly here.
func TestTierApply(t *testing.T) {
	cases := []struct {
		tier   Tier
		nodes  int
		arity  int
		probes int
	}{
		{TierLarge, 64, 4, 3},
		{TierHuge, 256, 8, 3},
		{TierXLarge, 512, 8, 3},
	}
	for _, c := range cases {
		cfg := model.Default()
		if err := c.tier.Apply(&cfg); err != nil {
			t.Fatalf("%s: %v", c.tier, err)
		}
		if cfg.Nodes != c.nodes || cfg.FanoutArity != c.arity || cfg.ProbeNeighbors != c.probes {
			t.Fatalf("%s: got nodes=%d arity=%d probes=%d", c.tier, cfg.Nodes, cfg.FanoutArity, cfg.ProbeNeighbors)
		}
		if cfg.VTCodec != model.VTDelta {
			t.Fatalf("%s: vector times should be delta-encoded", c.tier)
		}
		if want := ScaledLockBackoffMaxNs(c.nodes); cfg.LockBackoffMaxNs != want {
			t.Fatalf("%s: lock backoff %d, want %d", c.tier, cfg.LockBackoffMaxNs, want)
		}
		wantDir := model.DirFlat
		if c.tier == TierXLarge {
			wantDir = model.DirHashed
		}
		if cfg.Directory != wantDir {
			t.Fatalf("%s: directory %v, want %v", c.tier, cfg.Directory, wantDir)
		}
	}
	cfg := model.Default()
	if err := TierPaper.Apply(&cfg); err != nil {
		t.Fatal(err)
	}
	def := model.Default()
	if cfg.Nodes != def.Nodes || cfg.FanoutArity != def.FanoutArity ||
		cfg.VTCodec != def.VTCodec || cfg.ProbeNeighbors != def.ProbeNeighbors ||
		cfg.LockBackoffMaxNs != def.LockBackoffMaxNs {
		t.Fatal("the paper tier must not touch the scale knobs")
	}
}

// TestLargeTierMicroWorkloads is the 64-node smoke from the scaling
// milestone's acceptance bar: both micro workloads, both protocols, the
// full large-tier preset (release tree, delta vector times, scaled lock
// backoff), every run held to the online invariant auditor. Before the
// backoff fix the counter cells live-lock here rather than fail.
func TestLargeTierMicroWorkloads(t *testing.T) {
	var cells []Config
	for _, app := range []string{"counter", "falseshare"} {
		for _, mode := range []svm.Mode{svm.ModeBase, svm.ModeFT} {
			cells = append(cells, Config{
				App: app, Size: SizeSmall, Mode: mode,
				Tier: TierLarge, ThreadsPerNode: 1, Audit: true,
			})
		}
	}
	for i, r := range RunGrid(cells) {
		if r.Err != nil {
			t.Errorf("%s/%s large tier: %v", cells[i].App, cells[i].Mode, r.Err)
		}
	}
}

// TestXLargeTierMicroWorkloads is the 512-node smoke: both micro
// workloads under the full xlarge preset (arity-8 tree, delta vector
// times, hashed home directory), held to the online auditor at every
// event — the 512-way polling lock emits tens of millions of probe
// events, which the auditor affords because a boundary costs only what
// the event wrote, not O(nodes x pages). FT-mode cells also take a
// mid-run failure, exercising the hashed rehoming path (override table
// + reverse-index walk) at full tier scale.
func TestXLargeTierMicroWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("512-node cells take seconds each")
	}
	var cells []Config
	for _, app := range []string{"counter", "falseshare"} {
		for _, mode := range []svm.Mode{svm.ModeBase, svm.ModeFT} {
			c := Config{
				App: app, Size: SizeSmall, Mode: mode,
				Tier: TierXLarge, ThreadsPerNode: 1, Audit: true,
			}
			if mode == svm.ModeFT {
				c.KillKind, c.KillVictim, c.KillSeq = "release.done", 256, 2
			}
			cells = append(cells, c)
		}
	}
	for i, r := range RunGrid(cells) {
		if r.Err != nil {
			t.Errorf("%s/%s xlarge tier: %v", cells[i].App, cells[i].Mode, r.Err)
			continue
		}
		if cells[i].KillKind != "" && r.Phase.KillNs == 0 {
			t.Errorf("%s/%s xlarge tier: kill never fired", cells[i].App, cells[i].Mode)
		}
	}
}
