package svm

import (
	"fmt"

	"ftsvm/internal/checkpoint"
	"ftsvm/internal/obs"
)

// suspendSiblings models point A's sibling suspension (§4.4: updates of
// all threads within a node must appear atomic, so every sibling's state
// is captured when the releasing thread commits the interval). The paper
// suspends threads preemptively through the OS — a few microseconds each —
// and copies their stacks in place. In the cooperative simulation a
// sibling's resumable state struct is consistent at any scheduling point,
// so the capture itself is instantaneous and only the suspend/resume cost
// is charged.
func (t *Thread) suspendSiblings() {
	if c := t.liveSiblings(); c > 0 {
		t.charge(CompCheckpoint, int64(c)*t.cl.cfg.ThreadSuspendNs)
	}
}

func (t *Thread) liveSiblings() int {
	c := 0
	for _, s := range t.node.threads {
		if s != t && !s.dead && !s.finished {
			c++
		}
	}
	return c
}

// checkpointSiblings saves the state of every other live thread on the
// node to the backup node (checkpoint point A). The releasing thread pays
// the serialization and transmission cost.
func (t *Thread) checkpointSiblings() {
	for _, s := range t.node.threads {
		if s == t || s.dead || s.finished {
			continue
		}
		if s.locksHeld > 0 {
			// The sibling is inside a critical section. Its words since
			// acquiring are deferred from this interval (splitDeferred),
			// so a point-A snapshot here could pair a progress field
			// advanced just before its Release with words that will never
			// commit (roll-forward would then skip the lost update). Its
			// last point-B checkpoint is the one consistent with what is
			// actually committed; keep that.
			continue
		}
		t.saveThreadState(s)
	}
	t.cl.trace(obs.KCkptA, t.node.id, t.id, t.node.releaseSeq+1)
}

// checkpointSelf saves the releasing thread's own state (checkpoint point
// B, taken when phase 1 completes: the release is then conceptually done).
func (t *Thread) checkpointSelf() {
	t.saveThreadState(t)
}

// encodeSnapshot serializes the thread's registered resumable state into
// buf, reusing its storage. The snapshot is empty (nil Blob) if the thread
// never called Setup. Its VT is the node's shared vector-time snapshot (see
// vtSnapshot).
func (s *Thread) encodeSnapshot(buf []byte) (checkpoint.Snapshot, int) {
	if s.state == nil {
		return checkpoint.Snapshot{}, 0
	}
	blob, err := checkpoint.AppendEncode(buf[:0], s.state)
	if err != nil {
		panic(fmt.Sprintf("svm: checkpoint thread %d: %v", s.id, err))
	}
	s.ckptSeq++
	// BarSeq records the thread's pre-arrival barrier count, even when
	// the snapshot is taken inside a barrier call (point B of episode
	// barSeq+1). The workload contract (internal/apps) is that replay
	// re-executes the suspended sync CALL — apps.RunStages guards stage
	// bodies with an Arrived flag, and the micro workloads guard work
	// with a half-step counter — so the restored thread's first replayed
	// Barrier is numbered barSeq+1, exactly the open episode: it arrives
	// there if the re-formed episode still needs it, or falls through if
	// the cluster completed it. Recording barSeq+1 instead would assume
	// the call is NOT replayed, skewing every later arrival of a
	// replayed thread one episode ahead of its work and shipping its
	// intervals one sync point late.
	return checkpoint.Snapshot{Seq: s.ckptSeq, VT: s.node.vtSnapshot(), BarSeq: s.barSeq, Blob: blob}, len(blob)
}

// ckptScratch is a thread's storage for the checkpoints it deposits with
// saveThreadState — its own at a release with no updates, its siblings' at
// point A: the blob and the envelopes carrying it to the backups. It
// belongs to the sending thread, not the one checkpointed, because a
// sibling blocked in its own release can have its own deposit in flight.
// A deposit ends with a fence that returned nil: every copy has landed and
// each backup's store has copied the blob (checkpoint.Store.Put), so the
// next deposit reuses both. A fence that returned an error leaves them to
// whatever may still hold them, and the thread starts over with new ones,
// as it does with an abandoned fetch envelope.
type ckptScratch struct {
	blob []byte
	msgs []ckptMsg // one per backup
}

// poison overwrites the blob and the envelopes of a deposit that has
// landed (see poisonScratch). An envelope's vector time is the node's
// shared snapshot, so the envelope drops it rather than overwrite it.
func (c *ckptScratch) poison() {
	for i := range c.blob {
		c.blob[i] = 0xDB
	}
	for i := range c.msgs {
		c.msgs[i] = ckptMsg{ThreadID: -1, HomeNode: -1, Snap: checkpoint.Snapshot{Seq: -1, BarSeq: -1, Blob: c.blob}}
	}
}

// saveThreadState serializes a thread's registered state and deposits it
// in the backup node's double-buffered store.
func (t *Thread) saveThreadState(s *Thread) {
	cfg := t.cl.cfg
	snap, sz := s.encodeSnapshot(t.ckpt.blob)
	if snap.Blob == nil {
		return // thread never registered resumable state
	}
	t.ckpt.blob = snap.Blob
	t.node.ckptCount++
	t.charge(CompCheckpoint, cfg.CheckpointNs(sz))
	// One copy at each of the k-1 backups, so any k-1 overlapping
	// failures leave a surviving one (mirrors saveTimestamp).
	var scratch [backupScratch]int
	for {
		backups := t.cl.backupsOf(t.node.id, t.cl.Degree()-1, scratch[:0])
		t.charge(CompCheckpoint, int64(len(backups))*cfg.NICPostOverheadNs)
		t0 := t.beginWait()
		if len(t.ckpt.msgs) < len(backups) {
			t.ckpt.msgs = make([]ckptMsg, len(backups))
		}
		for i, backup := range backups {
			m := &t.ckpt.msgs[i]
			*m = ckptMsg{ThreadID: s.id, HomeNode: t.node.id, Snap: snap}
			t.node.ep.Post(t.proc, backup, t.node.msgWire(backup, m), m)
		}
		if t.fenced(CompCheckpoint, t0, "checkpoint deposit") {
			if poisonScratch {
				t.ckpt.poison()
			}
			return
		}
		// A backup died: resend to the new backup set from new storage,
		// since what was posted may still be held.
		t.ckpt = ckptScratch{}
	}
}
