package explore_test

import (
	"fmt"
	"testing"

	"ftsvm/internal/explore"
	"ftsvm/internal/harness"
	"ftsvm/internal/model"
	"ftsvm/internal/svm"
)

// twinSpec is `svm fi -app app -nodes nodes -threads 2`'s cluster, with
// whole-page twins when full.
func twinSpec(app string, nodes int, full bool) explore.Spec {
	return harness.ExploreSpec(harness.Config{
		App: app, Size: harness.SizeSmall, Nodes: nodes, ThreadsPerNode: 2,
		LockAlgo: svm.LockPolling, FullTwins: full,
		Overrides: func(cfg *model.Config) { cfg.Seed = 1 },
	})
}

// TestFetchMergeKeepsTwinMask replays the first failing boundaries of the
// two-thread volrend sweeps, under lazy partial twins and under FullTwins.
// A node holding a dirty page stashes it, with its mask, when a write
// notice invalidates it; a sibling's read fault then fetches the page and
// merges the stash back (finishFetch). The merge used to charge its diff
// cost between reading the stash and consuming it: during that yield a
// sibling's interval commit diffed and dropped the stash, and the merge
// went on to install a twin with no mask, which the auditor reported as
// `twin/dirty-mask mismatch (twin=true mask=false)`. Both twin modes must
// now pass the full verdict.
func TestFetchMergeKeepsTwinMask(t *testing.T) {
	cases := []struct {
		nodes int
		id    string
	}{
		{4, "msg.send@n1#1"},
		{8, "lock.release@n7#8"},
	}
	for _, tc := range cases {
		for _, full := range []bool{false, true} {
			t.Run(fmt.Sprintf("volrend/%dx2/%s/fulltwins=%v", tc.nodes, tc.id, full), func(t *testing.T) {
				sp := twinSpec("volrend", tc.nodes, full)
				tr, err := explore.Record(sp)
				if err != nil {
					t.Fatal(err)
				}
				b, err := explore.ParseID(tc.id)
				if err != nil {
					t.Fatal(err)
				}
				v := explore.Explore(sp, b, tr.Budget())
				if !v.Pass {
					t.Fatalf("%s: %s", tc.id, v.Err)
				}
				if len(v.Injected) != 1 {
					t.Fatalf("injected = %v, want the kill at %s", v.Injected, tc.id)
				}
			})
		}
	}
}
