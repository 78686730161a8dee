package svm

import (
	"ftsvm/internal/model"
	"ftsvm/internal/proto"
)

// Per-link delta wire accounting for vector timestamps (model.VTDelta).
//
// The payloads on the simulated wire are Go pointers — sizes are modeled,
// not marshaled — so the codec here is pure accounting: msgWire re-costs
// each vector a message carries against the sender's per-destination link
// context, exactly mirroring what proto.AppendDelta would emit (the real
// codec is exercised by the proto fuzz harness). Soundness rests on two
// vmmc properties: per-sender FIFO delivery (arrival times are clamped
// monotone per sender) and NIC retransmission masking losses — together
// they guarantee the receiver decodes every message on a link in send
// order, so "last vector shipped on this link" is shared context. A
// sender's death simply truncates its links; survivors never decode
// another message from it.

// wireMsg is any protocol message with a modeled flat wire size.
type wireMsg interface{ wireBytes() int }

// vtCarrier is a message whose flat size includes vecWire-encoded vector
// timestamps that the delta codec can re-cost per link.
type vtCarrier interface {
	wireMsg
	// vectorTimes returns the vectors the flat encoding charges vecWire
	// for, in a fixed order (both link ends advance identically); a
	// message with one vector returns nil second.
	vectorTimes() (first, second proto.VectorTime)
}

func (m *fetchReq) vectorTimes() (_, _ proto.VectorTime)        { return m.Need, nil }
func (m *fetchReply) vectorTimes() (_, _ proto.VectorTime)      { return m.Ver, nil }
func (m *saveTSMsg) vectorTimes() (_, _ proto.VectorTime)       { return m.TS, m.Snap.VT }
func (m *ckptMsg) vectorTimes() (_, _ proto.VectorTime)         { return m.Snap.VT, nil }
func (m *lockRelease) vectorTimes() (_, _ proto.VectorTime)     { return m.VT, nil }
func (m *nicTestSetReply) vectorTimes() (_, _ proto.VectorTime) { return m.VT, nil }
func (m *qlGrant) vectorTimes() (_, _ proto.VectorTime)         { return m.VT, nil }
func (m *barArrive) vectorTimes() (_, _ proto.VectorTime)       { return m.VT, nil }
func (m *barRelease) vectorTimes() (_, _ proto.VectorTime)      { return m.VT, nil }
func (m *savedReply) vectorTimes() (_, _ proto.VectorTime)      { return m.TS, nil }

// msgWire returns the modeled wire size of m as sent from this node to
// dst. Under the full codec (the default) it is exactly m.wireBytes().
// Under the delta codec every vector the message carries is re-costed
// against the (this node, dst) link context, which advances to the sent
// values — so the caller must invoke msgWire exactly once per message
// actually handed to the NIC.
func (n *node) msgWire(dst int, m wireMsg) int {
	sz := m.wireBytes()
	if vc, ok := m.(vtCarrier); ok {
		first, second := vc.vectorTimes()
		sz += n.recost(dst, first)
		sz += n.recost(dst, second)
	}
	return sz
}

// recost returns what the delta codec adds to (usually: takes off) a flat
// size for one vector sent to dst, advancing the link context; zero under
// the full codec, for a self-send and for an absent vector.
func (n *node) recost(dst int, vt proto.VectorTime) int {
	if vt == nil || n.cl.cfg.VTCodec != model.VTDelta || dst == n.id {
		return 0
	}
	return n.deltaWire(dst, vt) - vecWire(len(vt))
}

// deltaWire costs one vector against the link context to dst and advances
// the context. The context starts at the zero vector — the shared initial
// state of every node.
func (n *node) deltaWire(dst int, vt proto.VectorTime) int {
	if n.vtLink == nil {
		n.vtLink = make([]proto.VectorTime, len(n.cl.nodes))
	}
	last := n.vtLink[dst]
	if last == nil {
		last = proto.NewVector(len(vt))
		n.vtLink[dst] = last
	}
	sz := proto.DeltaWireBytes(last, vt)
	copy(last, vt)
	return sz
}
