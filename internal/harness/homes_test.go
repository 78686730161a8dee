package harness

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"ftsvm/internal/apps"
)

// TestPageHomesPinned pins every workload's page count and page homes at
// small 4x1 and medium 8x2. The homes are HomeAssign(p) for every page p,
// hashed in page order (FNV-1a over one little-endian uint32 per page);
// "block" stands for a nil HomeAssign, the cluster's block default.
// TestGolden sees a moved home only through the virtual times it moves;
// this test fails on any moved home.
func TestPageHomesPinned(t *testing.T) {
	want := map[string]string{
		"fft/small/n4t1":         "pages=32 homes=7e0e52687d64e1a5",
		"lu/small/n4t1":          "pages=32 homes=4286748b83db31a5",
		"waternsq/small/n4t1":    "pages=82 homes=fe78a33313d83566",
		"watersp/small/n4t1":     "pages=82 homes=fe78a33313d83566",
		"radix/small/n4t1":       "pages=131 homes=5f6a2f7e4344fe95",
		"volrend/small/n4t1":     "pages=41 homes=dcd8c73009071ea6",
		"ocean/small/n4t1":       "pages=9 homes=60c99fed4b9eeb95",
		"kvstore/small/n4t1":     "pages=32 homes=40f6050e178ae525",
		"kvserve/small/n4t1":     "pages=64 homes=b6f6ad0a1177a725",
		"counter/small/n4t1":     "pages=4 homes=block",
		"falseshare/small/n4t1":  "pages=4 homes=block",
		"kvmicro/small/n4t1":     "pages=4 homes=30d77e22c5da0365",
		"fft/medium/n8t2":        "pages=512 homes=6b2198d8c8dfeb25",
		"lu/medium/n8t2":         "pages=512 homes=ae417c764087eb25",
		"waternsq/medium/n8t2":   "pages=757 homes=511f887097cb4695",
		"watersp/medium/n8t2":    "pages=757 homes=1b0f464b6eea6e27",
		"radix/medium/n8t2":      "pages=2051 homes=4a35e398c4cd8495",
		"volrend/medium/n8t2":    "pages=289 homes=40357ac446a036c2",
		"ocean/medium/n8t2":      "pages=132 homes=a535e2cc6aacd531",
		"kvstore/medium/n8t2":    "pages=128 homes=adbe88f18c0e3525",
		"kvserve/medium/n8t2":    "pages=64 homes=9c7404447f862c25",
		"counter/medium/n8t2":    "pages=8 homes=block",
		"falseshare/medium/n8t2": "pages=8 homes=block",
		"kvmicro/medium/n8t2":    "pages=4 homes=092004b8ac45d6d5",
	}
	for _, sh := range []struct {
		size  Size
		shape apps.Shape
	}{
		{SizeSmall, apps.Shape{Nodes: 4, ThreadsPerNode: 1, PageSize: 4096}},
		{SizeMedium, apps.Shape{Nodes: 8, ThreadsPerNode: 2, PageSize: 4096}},
	} {
		for _, app := range Apps() {
			key := fmt.Sprintf("%s/%s/n%dt%d", app, sh.size, sh.shape.Nodes, sh.shape.ThreadsPerNode)
			w, err := Build(app, sh.size, sh.shape)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if got := fmt.Sprintf("pages=%d homes=%s", w.Pages, homesDigest(w)); got != want[key] {
				t.Errorf("%s: %s, want %s", key, got, want[key])
			}
		}
	}
}

// homesDigest hashes a workload's page homes in page order.
func homesDigest(w *apps.Workload) string {
	if w.HomeAssign == nil {
		return "block"
	}
	h := fnv.New64a()
	var b [4]byte
	for p := 0; p < w.Pages; p++ {
		binary.LittleEndian.PutUint32(b[:], uint32(w.HomeAssign(p)))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
