package explore

import (
	"slices"
	"testing"

	"ftsvm/internal/obs"
)

// TestChunksSampleEqualsSample: sampling a chunked list keeps exactly the
// boundaries Sample keeps from the same list as one slice — at every size
// around the chunk edges, and after a reset reuses the chunks of a longer
// list — so pair schedules do not depend on how seconds are stored.
func TestChunksSampleEqualsSample(t *testing.T) {
	var l chunks
	for _, total := range []int{3*chunkLen + 7, 0, 1, 5, chunkLen - 1, chunkLen, chunkLen + 1} {
		l.n = 0
		flat := make([]Boundary, total)
		for i := range flat {
			flat[i] = Boundary{Kind: obs.KMsgSend, Node: int32(i % 6), Occ: int64(i + 1)}
			l.add(flat[i])
		}
		for _, n := range []int{0, 1, 2, 4, 40, total - 1, total, total + 1} {
			if got, want := l.sample(n), Sample(flat, n); !slices.Equal(got, want) {
				t.Fatalf("%d boundaries, sample %d: chunked kept %d, Sample %d (first difference among %v / %v)",
					total, n, len(got), len(want), got[:min(len(got), 4)], want[:min(len(want), 4)])
			}
		}
	}
	if len(l.c) != 4 {
		t.Fatalf("%d chunks after the lists shrank, want the first list's 4 reused", len(l.c))
	}
}
