package apps

import (
	"regexp"
	"strings"
	"testing"

	"ftsvm/internal/model"
	"ftsvm/internal/svm"
)

// TestKVBucketOfInRange is the regression test for the bucketOf integer
// fix: the old formula converted the raw 64-bit product to int before
// reducing (int(key*2654435761) % buckets), which goes negative — an
// out-of-range slice index — whenever the product's top bit is set:
// always a risk on 32-bit int, and reachable on 64-bit too for large
// keys (key = 1<<59 makes the product ≡ 17<<59 mod 2^64 ≥ 2^63). The
// fixed BucketOf reduces in uint64 first, so the index is in range for
// every key.
func TestKVBucketOfInRange(t *testing.T) {
	s := testShape()
	for _, buckets := range []int{2, 7, 32, 512} {
		tb := NewKVTable(s, buckets, 4)
		keys := []uint64{0, 1, 2, 511, 512, 8191, 8192,
			1 << 40, 1 << 59, 1 << 62, ^uint64(0)}
		for _, k := range keys {
			if idx := tb.BucketOf(k); idx < 0 || idx >= buckets {
				t.Fatalf("BucketOf(%d) with %d buckets = %d, out of range", k, buckets, idx)
			}
		}
	}
}

// TestKVBucketOfMatchesLegacyAssignment pins the "no metric shift"
// half of the fix: for every key the existing workloads can generate
// (key spaces top out at buckets*slots/2 = 8192 at paper size), the
// fixed reduction produces the same bucket the old formula did on
// 64-bit platforms, so recorded virtual metrics are unchanged.
func TestKVBucketOfMatchesLegacyAssignment(t *testing.T) {
	s := testShape()
	for _, buckets := range []int{7, 32, 512} {
		tb := NewKVTable(s, buckets, 4)
		for key := uint64(1); key <= 8192; key++ {
			legacy := int(key*2654435761) % buckets
			if got := tb.BucketOf(key); got != legacy {
				t.Fatalf("BucketOf(%d) with %d buckets = %d, legacy 64-bit gave %d",
					key, buckets, got, legacy)
			}
		}
	}
}

// TestKVStoreOverflowReport is the regression test for the
// overflow-reporting fix: a key space crowding more distinct keys into
// a bucket than it has slots must fail with an error naming the thread
// and op index of the truncation point (the root cause), not only the
// bucket — and must not bury it under verifyStage's key-count fallout.
func TestKVStoreOverflowReport(t *testing.T) {
	s := Shape{Nodes: 2, ThreadsPerNode: 1, PageSize: 4096}
	// 2 buckets x 1 slot but 8 distinct keys: some bucket sees a second
	// distinct key within a few ops and the stream must truncate.
	w := KVStoreKeys(s, 2, 1, 8, 8)
	cfg := model.Default()
	cfg.Nodes = s.Nodes
	cfg.ThreadsPerNode = s.ThreadsPerNode
	cfg.PageSize = s.PageSize
	cl, err := svm.New(svm.Options{
		Config: cfg, Mode: svm.ModeFT,
		Pages: w.Pages, Locks: w.Locks, HomeAssign: w.HomeAssign, Body: w.Body,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	verr := w.Err()
	if verr == nil {
		t.Fatal("expected a bucket-overflow failure, got success")
	}
	msg := verr.Error()
	if ok, _ := regexp.MatchString(`thread \d+ op \d+: bucket \d+ overflow`, msg); !ok {
		t.Fatalf("overflow error does not identify thread and op: %q", msg)
	}
	if strings.Contains(msg, "key count") {
		t.Fatalf("overflow buried under verify fallout: %q", msg)
	}
}

// TestKVPlaceBucketsHomes: the placement helper assigns every page of a
// multi-page bucket run to the bucket's round-robin home.
func TestKVPlaceBucketsHomes(t *testing.T) {
	s := testShape() // 4 nodes x 1 thread
	// 384 slots x 16 B = 6 KB per bucket: each run spans 2 pages.
	tb := NewKVTable(s, 3, 384)
	if tb.Pages != 6 {
		t.Fatalf("pages = %d, want 6", tb.Pages)
	}
	for p := 0; p < tb.Pages; p++ {
		wantNode := s.NodeOfThread((p / 2) % s.Threads())
		if got := tb.HomeAssign(p); got != wantNode {
			t.Fatalf("page %d home = %d, want %d", p, got, wantNode)
		}
	}
}

// TestKVPlaceBucketsAliasPanic is the regression test for the
// page-home aliasing fix: two buckets sharing a page must panic with an
// attributable message instead of silently letting the last-placed
// bucket win the page's home.
func TestKVPlaceBucketsAliasPanic(t *testing.T) {
	s := testShape()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("overlapping bucket runs did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "share page") {
			t.Fatalf("unexpected panic payload: %v", r)
		}
	}()
	// Bucket 1 starts mid-page inside bucket 0's run.
	l := newLayout(4096)
	l.alloc(2 * 4096)
	kvPlaceBuckets(s, l, 4096, []int{0, 2048})
}
