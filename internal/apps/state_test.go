package apps

import (
	"testing"

	"ftsvm/internal/checkpoint"
)

// TestStateEncodeAllocFree: every application's resumable state encodes
// into a buffer with room without allocating, so none of them falls back
// to a new gob encoder per checkpoint.
func TestStateEncodeAllocFree(t *testing.T) {
	for _, state := range []any{
		&fftState{Phase: 2, Arrived: true},
		&kvState{Phase: 1, Op: 7, OpStage: -1},
		&luState{Phase: 3},
		&microState{Iter: 5},
		&oceanState{Phase: 4, Pending: 0.25},
		&radixState{Phase: 2, Bucket: 3, BucketStage: -1},
		&volrendState{Phase: 1, CurTile: 9, HaveTile: true, Stealing: 2},
		&waterState{Phase: 2, FlushM: 11, FlushStage: -1, EnergyStage: -1},
	} {
		buf, err := checkpoint.AppendEncode(nil, state)
		if err != nil {
			t.Fatalf("%T: %v", state, err)
		}
		if got := testing.AllocsPerRun(50, func() { buf, _ = checkpoint.AppendEncode(buf[:0], state) }); got != 0 {
			t.Errorf("%T: AppendEncode into a buffer with room allocates %v objects, want 0", state, got)
		}
	}
}
