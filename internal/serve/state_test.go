package serve

import (
	"testing"

	"ftsvm/internal/checkpoint"
)

// TestStateEncodeAllocFree: the serving thread's resumable state encodes
// into a buffer with room without allocating, so it does not fall back to
// a new gob encoder per checkpoint.
func TestStateEncodeAllocFree(t *testing.T) {
	state := &srvState{Phase: 1, Arrived: true, Op: 42, OpStage: -1}
	buf, err := checkpoint.AppendEncode(nil, state)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(50, func() { buf, _ = checkpoint.AppendEncode(buf[:0], state) }); got != 0 {
		t.Errorf("AppendEncode into a buffer with room allocates %v objects, want 0", got)
	}
}
