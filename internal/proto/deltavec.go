package proto

import (
	"encoding/binary"
	"fmt"
)

// Delta wire codec for vector timestamps.
//
// Vector times dominate message volume at scale: every interval, fetch
// reply, lock release, and barrier message carries an O(N) vector at 4
// bytes per element, so at 256 nodes a single barrier arrival ships a
// kilobyte of mostly-unchanged counters. The delta codec exploits the
// network's per-sender FIFO delivery and NIC-level retransmission: the
// receiver has decoded every earlier message on the (sender, receiver)
// link in order, so both ends share the last vector shipped on that link
// and the sender only needs to encode the entries that changed since.
// Dense change sets (a barrier release merging every member's entry) fall
// back to the full encoding, so a delta message is never larger than
// full + 1 tag byte.
//
// The codec is link-level, not field-level: consecutive messages on one
// link may carry different vector quantities (a node's own time, a page
// version, a lock release time). Correctness does not care — each message
// is encoded against whatever the link shipped last, and both ends
// advance the context identically — while compression benefits from the
// quantities being causally related and therefore close.
//
// Wire format (DeltaWireBytes must match AppendDelta's output exactly;
// the fuzz harness holds them together):
//
//	tag 0x00 (full):   1 tag + 4 count + 4 bytes per element
//	tag 0x01 (sparse): 1 tag + 4 count + (4 index + 4 value) per change

const (
	deltaTagFull   = 0x00
	deltaTagSparse = 0x01
)

// deltaChanged counts the entries where cur differs from prev. Link
// contexts change in a few entries per message, so it ORs the XORs of
// eight entries at a time and counts inside a block only when that is
// non-zero.
func deltaChanged(prev, cur VectorTime) int {
	prev = prev[:len(cur)]
	c, i := 0, 0
	for ; i+8 <= len(cur); i += 8 {
		p, q := prev[i:i+8:i+8], cur[i:i+8:i+8]
		d0, d1, d2, d3 := p[0]^q[0], p[1]^q[1], p[2]^q[2], p[3]^q[3]
		d4, d5, d6, d7 := p[4]^q[4], p[5]^q[5], p[6]^q[6], p[7]^q[7]
		if d0|d1|d2|d3|d4|d5|d6|d7 != 0 {
			c += nz(d0) + nz(d1) + nz(d2) + nz(d3) + nz(d4) + nz(d5) + nz(d6) + nz(d7)
		}
	}
	for ; i < len(cur); i++ {
		if prev[i] != cur[i] {
			c++
		}
	}
	return c
}

// nz is 1 for a non-zero d and 0 otherwise (a flag set, not a branch).
func nz(d int32) int {
	if d != 0 {
		return 1
	}
	return 0
}

// DeltaWireBytes returns the encoded size of cur relative to prev: the
// cheaper of the sparse and full encodings. prev and cur must have equal
// length.
func DeltaWireBytes(prev, cur VectorTime) int {
	full := 5 + 4*len(cur)
	sparse := 5 + 8*deltaChanged(prev, cur)
	if sparse < full {
		return sparse
	}
	return full
}

// AppendDelta appends the wire encoding of cur relative to prev to buf
// and returns the extended slice. prev and cur must have equal length.
func AppendDelta(buf []byte, prev, cur VectorTime) []byte {
	if len(prev) != len(cur) {
		panic(fmt.Sprintf("proto: delta-encoding vectors of different lengths (%d vs %d)", len(prev), len(cur)))
	}
	changed := deltaChanged(prev, cur)
	if 8*changed >= 4*len(cur) {
		buf = append(buf, deltaTagFull)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(cur)))
		for _, x := range cur {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(x))
		}
		return buf
	}
	buf = append(buf, deltaTagSparse)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(changed))
	for i, x := range cur {
		if prev[i] != x {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(i))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(x))
		}
	}
	return buf
}

// DecodeDelta decodes one vector encoded by AppendDelta against the same
// prev context, returning the decoded vector (a fresh slice) and the
// remaining bytes.
func DecodeDelta(prev VectorTime, data []byte) (VectorTime, []byte, error) {
	if len(data) < 5 {
		return nil, nil, fmt.Errorf("proto: delta vector truncated (%d bytes)", len(data))
	}
	tag := data[0]
	count := int(binary.LittleEndian.Uint32(data[1:5]))
	data = data[5:]
	switch tag {
	case deltaTagFull:
		if count != len(prev) {
			return nil, nil, fmt.Errorf("proto: full vector length %d, link context has %d", count, len(prev))
		}
		if len(data) < 4*count {
			return nil, nil, fmt.Errorf("proto: full vector truncated")
		}
		out := NewVector(count)
		for i := range out {
			out[i] = int32(binary.LittleEndian.Uint32(data[4*i:]))
		}
		return out, data[4*count:], nil
	case deltaTagSparse:
		if len(data) < 8*count {
			return nil, nil, fmt.Errorf("proto: sparse vector truncated")
		}
		out := prev.Clone()
		for i := 0; i < count; i++ {
			idx := int(binary.LittleEndian.Uint32(data[8*i:]))
			if idx >= len(out) {
				return nil, nil, fmt.Errorf("proto: sparse vector index %d out of range %d", idx, len(out))
			}
			out[idx] = int32(binary.LittleEndian.Uint32(data[8*i+4:]))
		}
		return out, data[8*count:], nil
	}
	return nil, nil, fmt.Errorf("proto: unknown delta vector tag %#x", tag)
}
