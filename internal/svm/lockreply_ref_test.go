package svm

import (
	"slices"
	"testing"

	"ftsvm/internal/model"
	"ftsvm/internal/proto"
)

// refLockReadReply is the lock-read reply as it was built before it shrank
// to what the acquirer reads: every holder's id and an unconditional clone
// of the stored timestamp, sized and delta-costed by msgWire like any other
// vector-carrying message. The reply that replaced it must decide, size and
// charge exactly as this one did.
type refLockReadReply struct {
	Holders []int
	VT      proto.VectorTime
}

func (m *refLockReadReply) wireBytes() int { return 8 + 4*len(m.Holders) + vecWire(len(m.VT)) }

func (m *refLockReadReply) vectorTimes() (_, _ proto.VectorTime) { return m.VT, nil }

func refReadReply(lh *lockHome) *refLockReadReply {
	var holders []int
	for i, set := range lh.vec {
		if set {
			holders = append(holders, i)
		}
	}
	return &refLockReadReply{Holders: holders, VT: lh.vt.Clone()}
}

// TestLockReadReplyMatchesReference: for every holder set of a 6-node lock
// vector and every reader, under both vector-time codecs, the reply agrees
// with the reference on the grant decision, the holder count, the bytes
// charged and the (home, reader) link context left behind.
func TestLockReadReplyMatchesReference(t *testing.T) {
	const nodes, home, lock = 6, 2, 0
	for _, codec := range []model.VTCodecMode{model.VTFull, model.VTDelta} {
		build := func() (*node, *lockHome) {
			cfg := model.Default()
			cfg.Nodes = nodes
			cfg.VTCodec = codec
			cl, err := New(Options{Config: cfg, Mode: ModeFT, Pages: 8, Locks: 1, Body: counterBody(1)})
			if err != nil {
				t.Fatal(err)
			}
			n := cl.nodes[home]
			n.initLockHome(lock)
			return n, n.lockHomesState[lock]
		}
		n, lh := build()
		refN, refLH := build()
		// One envelope serves every read, as a node's does for one lock, so
		// each fill must overwrite everything the previous one set.
		req := &lockRead{Lock: lock, Reply: &lockReadReply{VT: proto.NewVector(nodes)}}
		for set := 0; set < 1<<nodes; set++ {
			for reader := 0; reader < nodes; reader++ {
				// The stored timestamp moves between reads, as releases
				// move it, so successive deltas on a link differ.
				lh.vt[(set+reader)%nodes] += int32(1 + set%3)
				copy(refLH.vt, lh.vt)
				for i := range lh.vec {
					lh.vec[i] = set&(1<<i) != 0
					refLH.vec[i] = lh.vec[i]
				}

				rep, size := n.serveLockRead(reader, req)
				if rep != req.Reply {
					t.Fatal("the home answered outside the reader's envelope")
				}
				ref := refReadReply(refLH)
				refSize := refN.msgWire(reader, ref)

				refSole := len(ref.Holders) == 1 && ref.Holders[0] == reader
				if rep.Sole != refSole || rep.Count != len(ref.Holders) {
					t.Fatalf("codec %v set %06b reader %d: sole=%v count=%d, reference sole=%v holders=%v",
						codec, set, reader, rep.Sole, rep.Count, refSole, ref.Holders)
				}
				if rep.Sole && !slices.Equal(rep.VT, ref.VT) {
					t.Fatalf("codec %v set %06b reader %d: granted with VT %v, reference %v", codec, set, reader, rep.VT, ref.VT)
				}
				if rep.wireBytes() != ref.wireBytes() {
					t.Fatalf("codec %v set %06b reader %d: wireBytes %d, reference %d", codec, set, reader, rep.wireBytes(), ref.wireBytes())
				}
				if size != refSize {
					t.Fatalf("codec %v set %06b reader %d: charged %d bytes, reference %d", codec, set, reader, size, refSize)
				}
				if codec == model.VTDelta && reader != home && !slices.Equal(n.vtLink[reader], refN.vtLink[reader]) {
					t.Fatalf("codec %v set %06b reader %d: link context %v, reference %v", codec, set, reader, n.vtLink[reader], refN.vtLink[reader])
				}
			}
		}
		if codec == model.VTDelta && len(n.vtLink) == 0 {
			t.Fatal("delta codec never touched a link context: the comparison was vacuous")
		}
	}
}
