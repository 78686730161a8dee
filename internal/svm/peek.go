package svm

import (
	"encoding/binary"
	"fmt"
)

// Frame returns page pid's authoritative frame in place, or nil when that
// frame was never allocated (it reads as zeros): the primary home's
// committed copy in the extended protocol, the home's working copy in the
// base protocol. With live, a dead primary's frame is replaced by the
// first surviving replica's tentative copy — the survivor's replica of the
// committed state — and is nil when no replica survives: a real system
// could never read a crashed machine's DRAM, so neither does a check of
// a run that ends with an undetected failure. It is an inspector for
// after Run returns; it performs no protocol actions and consumes no
// virtual time, and it reads only home pages, whose page-table runs exist
// from construction. The caller must not write to the frame.
func (cl *Cluster) Frame(pid int, live bool) []byte {
	home := cl.nodes[cl.pageHomes.Primary(pid)]
	if cl.opt.Mode != ModeFT {
		return home.pt.page(pid).working
	}
	if !live || !home.dead {
		return home.pt.page(pid).committed
	}
	for s := 1; s < cl.pageHomes.Degree(); s++ {
		if sec := cl.nodes[cl.pageHomes.Replica(pid, s)]; !sec.dead {
			return sec.pt.page(pid).tentative
		}
	}
	return nil
}

// PeekBytes copies n bytes starting at shared address addr out of the
// authoritative home copies (Frame without live). It is an inspector for
// examples and tests after Run returns.
func (cl *Cluster) PeekBytes(addr, n int) []byte { return cl.peek(addr, n, false) }

// PeekLiveBytes is PeekBytes restricted to live nodes (Frame with live):
// the inspector for runs that end with an undetected failure (a node
// killed after its last protocol obligation).
func (cl *Cluster) PeekLiveBytes(addr, n int) []byte { return cl.peek(addr, n, true) }

func (cl *Cluster) peek(addr, n int, live bool) []byte {
	out := make([]byte, n)
	psz := cl.cfg.PageSize
	for i := 0; i < n; {
		pid, off := (addr+i)/psz, (addr+i)%psz
		chunk := min(psz-off, n-i)
		if buf := cl.Frame(pid, live); buf != nil {
			copy(out[i:i+chunk], buf[off:off+chunk])
		}
		i += chunk
	}
	return out
}

// PeekU32 reads the authoritative 4-byte word at addr.
func (cl *Cluster) PeekU32(addr int) uint32 {
	return binary.LittleEndian.Uint32(cl.PeekBytes(addr, 4))
}

// PeekU64 reads the authoritative 8-byte word at addr.
func (cl *Cluster) PeekU64(addr int) uint64 {
	return binary.LittleEndian.Uint64(cl.PeekBytes(addr, 8))
}

// DebugPage summarizes one page's replica state across all nodes for
// diagnostics: homes, copy presence, version vectors, and for each
// secondary home the first byte at which its tentative copy diverges from
// the primary's committed copy (-1 if equal or either copy is missing).
func (cl *Cluster) DebugPage(p int) string {
	out := fmt.Sprintf("page %d: homes %v\n", p, homesOf(cl.pageHomes, p))
	for i, nd := range cl.nodes {
		pg := nd.pt.page(p)
		out += fmt.Sprintf("  n%d dead=%v state=%v commit=%v%v tent=%v%v work=%v base=%v req=%v lastItv=%d\n",
			i, nd.dead, pg.state,
			pg.committed != nil, pg.commitVer,
			pg.tentative != nil, pg.tentVer,
			pg.working != nil, pg.baseVer, pg.reqVer, pg.lastLocalItv)
	}
	prim, _ := cl.homeCopy(p, 0)
	for s := 1; s < cl.pageHomes.Degree(); s++ {
		div := -1
		if tent, _ := cl.homeCopy(p, s); prim != nil && tent != nil {
			div = firstDiff(prim, tent)
		}
		out += fmt.Sprintf("  slot %d n%d first divergence: %d\n", s, cl.pageHomes.Replica(p, s), div)
	}
	return out
}

// DebugState summarizes a thread's liveness for diagnostics.
func (t *Thread) DebugState() string {
	st := ""
	if t.dead {
		st += "dead "
	}
	if t.finished {
		st += "finished "
	}
	if t.blocked {
		st += "blocked "
	}
	if t.inRecovery {
		st += "inRecovery "
	}
	return st + "node=" + itoa(t.node.id) + " barSeq=" + itoa(int(t.barSeq)) +
		" nodeBarEpoch=" + itoa(t.node.barEpoch) + " sentEpoch=" + itoa(int(t.node.barSentEpoch)) +
		" recPending=" + fmt.Sprint(t.cl.rec.pending) + " recArrived=" + itoa(t.cl.rec.arrived)
}

func itoa(v int) string { return fmt.Sprintf("%d", v) }
