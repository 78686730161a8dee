package svm

import (
	"encoding/binary"
	"fmt"
)

// PeekBytes copies n bytes starting at shared address addr out of the
// authoritative home copies (the primary home's committed copy in the
// extended protocol, the home's working copy in the base protocol). It is
// an inspector for examples and tests after Run returns; it performs no
// protocol actions and consumes no virtual time.
func (cl *Cluster) PeekBytes(addr, n int) []byte {
	out := make([]byte, n)
	psz := cl.cfg.PageSize
	for i := 0; i < n; {
		pid := (addr + i) / psz
		off := (addr + i) % psz
		chunk := psz - off
		if chunk > n-i {
			chunk = n - i
		}
		home := cl.pageHomes.Primary(pid)
		pg := cl.nodes[home].pt.page(pid)
		var buf []byte
		if cl.opt.Mode == ModeFT {
			buf = pg.committed
		} else {
			buf = pg.working
		}
		if buf != nil {
			copy(out[i:i+chunk], buf[off:off+chunk])
		}
		i += chunk
	}
	return out
}

// PeekLiveBytes is PeekBytes restricted to live nodes: when a page's
// primary home is dead, the secondary home's tentative copy — the
// survivor's replica of the committed state — is read instead. This is
// the inspector for runs that end with an undetected failure (a node
// killed after its last protocol obligation): a real system could never
// read a crashed machine's DRAM, so neither does the consistency check.
func (cl *Cluster) PeekLiveBytes(addr, n int) []byte {
	if cl.opt.Mode != ModeFT {
		return cl.PeekBytes(addr, n)
	}
	out := make([]byte, n)
	psz := cl.cfg.PageSize
	for i := 0; i < n; {
		pid := (addr + i) / psz
		off := (addr + i) % psz
		chunk := psz - off
		if chunk > n-i {
			chunk = n - i
		}
		var buf []byte
		if home := cl.pageHomes.Primary(pid); !cl.nodes[home].dead {
			buf = cl.nodes[home].pt.page(pid).committed
		} else {
			for s := 1; s < cl.pageHomes.Degree(); s++ {
				if sec := cl.pageHomes.Replica(pid, s); !cl.nodes[sec].dead {
					buf = cl.nodes[sec].pt.page(pid).tentative
					break
				}
			}
		}
		if buf != nil {
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
// diagnostics: homes, copy presence, version vectors, and the first byte
// at which the two replicas diverge (-1 if equal).
func (cl *Cluster) DebugPage(p int) string {
	P := cl.pageHomes.Primary(p)
	S := cl.pageHomes.Secondary(p)
	out := fmt.Sprintf("page %d: P=n%d S=n%d\n", p, P, S)
	for i, nd := range cl.nodes {
		pg := nd.pt.page(p)
		out += fmt.Sprintf("  n%d dead=%v state=%v commit=%v%v tent=%v%v work=%v base=%v req=%v lastItv=%d\n",
			i, nd.dead, pg.state,
			pg.committed != nil, pg.commitVer,
			pg.tentative != nil, pg.tentVer,
			pg.working != nil, pg.baseVer, pg.reqVer, pg.lastLocalItv)
	}
	pgP, pgS := cl.nodes[P].pt.page(p), cl.nodes[S].pt.page(p)
	div := -1
	if pgP.committed != nil && pgS.tentative != nil {
		for i := range pgP.committed {
			if pgP.committed[i] != pgS.tentative[i] {
				div = i
				break
			}
		}
	}
	return out + fmt.Sprintf("  first divergence: %d\n", div)
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
