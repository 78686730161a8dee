package apps

import (
	"fmt"
	"math"

	"ftsvm/internal/svm"
)

// volrendState is the resumable state of a Volrend thread: the tile being
// rendered survives the pop (which commits at the queue-lock release), so
// a replay re-renders it idempotently instead of losing or duplicating it.
type volrendState struct {
	Phase    int
	Arrived  bool
	CurTile  int
	HaveTile bool
	Stealing int // queue currently being stolen from
}

// Volrend builds the Volrend workload: ray casting an analytic volume
// (standing in for the paper's "head" dataset) with a tiled image and
// task stealing through per-thread tile queues guarded by locks. The
// volume is read-shared after initialization; image tiles are written by
// whichever thread rendered them.
func Volrend(s Shape, vdim, idim int) *Workload {
	T := s.Threads()
	const tile = 8
	tiles := (idim / tile) * (idim / tile)

	l := newLayout(s.PageSize)
	volBase := l.alloc(vdim * vdim * vdim * 4) // float32 density, z-contiguous
	imgBase := l.alloc(idim * idim * 8)
	headBase := l.alloc(T * 8) // per-queue next-tile index (padded to 8B)

	// Volume slabs homed by initializing thread; image rows round-robin;
	// queue heads at their owner.
	for tid := 0; tid < T; tid++ {
		zlo, zhi := splitRange(vdim, T, tid)
		l.home(volBase+zlo*vdim*vdim*4, volBase+zhi*vdim*vdim*4, s.NodeOfThread(tid))
		l.home(headBase+tid*8, headBase+tid*8+8, s.NodeOfThread(tid))
	}
	for r := 0; r < idim; r++ {
		l.home(imgBase+r*idim*8, imgBase+(r+1)*idim*8, s.NodeOfThread(r*T/idim))
	}

	w := &Workload{
		Name:       fmt.Sprintf("Volrend-%d", idim),
		Pages:      l.pages(),
		Locks:      T + 1, // one lock per tile queue + a global
		HomeAssign: l.homeOf,
	}

	// Queue q owns tiles q, q+T, q+2T, ... (static round-robin seeding).
	queueLen := func(q int) int { return (tiles - q + T - 1) / T }
	tileAt := func(q, idx int) int { return q + idx*T }

	// density is the analytic "head": a couple of nested Gaussian shells.
	density := func(x, y, z float64) float32 {
		dx, dy, dz := x-0.5, y-0.5, z-0.5
		r2 := dx*dx + dy*dy + dz*dz
		v := math.Exp(-r2*18) - 0.6*math.Exp(-r2*60)
		if v < 0 {
			v = 0
		}
		return float32(v)
	}

	w.Body = func(t *svm.Thread) {
		st := &volrendState{}
		t.Setup(st)
		tid := t.ID()
		tilesPerRow := idim / tile
		col := make([]uint32, vdim)
		px := make([]float64, tile*tile)

		// initStage fills the thread's volume slab (z-major layout: the
		// array index is x*vdim*vdim + y*vdim + z, so a ray along z reads
		// one contiguous run) and resets the thread's tile queue.
		initStage := func() {
			zlo, zhi := splitRange(vdim, T, tid)
			row := make([]uint32, vdim)
			for x := zlo; x < zhi; x++ {
				for y := 0; y < vdim; y++ {
					for z := 0; z < vdim; z++ {
						v := density(float64(x)/float64(vdim), float64(y)/float64(vdim), float64(z)/float64(vdim))
						row[z] = math.Float32bits(v)
					}
					t.WriteU32s(volBase+(x*vdim*vdim+y*vdim)*4, row)
				}
			}
			t.Compute(int64((zhi-zlo)*vdim*vdim) * 4 * costFlop)
			t.WriteU64(headBase+tid*8, 0)
		}

		renderCur := func() {
			tl := st.CurTile
			tx, ty := (tl%tilesPerRow)*tile, (tl/tilesPerRow)*tile
			for py := 0; py < tile; py++ {
				for pxi := 0; pxi < tile; pxi++ {
					ix, iy := tx+pxi, ty+py
					vx := int(float64(ix) / float64(idim) * float64(vdim))
					vy := int(float64(iy) / float64(idim) * float64(vdim))
					t.ReadU32s(volBase+(vx*vdim*vdim+vy*vdim)*4, col)
					acc, trans := 0.0, 1.0
					for z := 0; z < vdim; z++ {
						d := float64(math.Float32frombits(col[z]))
						acc += trans * d
						trans *= 1 - 0.05*d
					}
					px[py*tile+pxi] = acc
				}
			}
			t.Compute(int64(tile*tile*vdim) * 4 * costFlop)
			for py := 0; py < tile; py++ {
				t.WriteF64s(imgBase+((ty+py)*idim+tx)*8, px[py*tile:(py+1)*tile])
			}
		}

		// renderStage pops tiles from the own queue, then steals from the
		// others; each pop commits with the queue-lock release, and the
		// popped tile rides in the checkpoint, so a replay re-renders it
		// (idempotent) rather than losing or duplicating it.
		renderStage := func() {
			if st.HaveTile {
				renderCur()
				st.HaveTile = false
			}
			for st.Stealing < T {
				queue := (tid + st.Stealing) % T
				for {
					t.Acquire(queue)
					idx := int(t.ReadU64(headBase + queue*8))
					if idx >= queueLen(queue) {
						// Advance before Release: a replay skips this
						// drained queue.
						st.Stealing++
						t.Release(queue)
						break
					}
					t.WriteU64(headBase+queue*8, uint64(idx+1))
					st.CurTile = tileAt(queue, idx)
					st.HaveTile = true
					t.Release(queue)
					renderCur()
					st.HaveTile = false
				}
			}
		}

		// verifyStage compares a sample of pixels against a host re-render
		// from the analytic volume.
		verifyStage := func() {
			if tid != 0 {
				return
			}
			rng := NewRand(99)
			worst := 0.0
			for sIdx := 0; sIdx < 64; sIdx++ {
				ix := int(rng.Next() % uint64(idim))
				iy := int(rng.Next() % uint64(idim))
				got := t.ReadF64(imgBase + (iy*idim+ix)*8)
				vx := int(float64(ix) / float64(idim) * float64(vdim))
				vy := int(float64(iy) / float64(idim) * float64(vdim))
				acc, trans := 0.0, 1.0
				for z := 0; z < vdim; z++ {
					d := float64(density(float64(vx)/float64(vdim), float64(vy)/float64(vdim), float64(z)/float64(vdim)))
					acc += trans * d
					trans *= 1 - 0.05*d
				}
				if d := math.Abs(got - acc); d > worst {
					worst = d
				}
			}
			if worst > 1e-9 {
				w.failf("pixel error %g", worst)
			}
		}

		RunStages(t, &st.Phase, &st.Arrived, 3, func(s int) {
			switch s {
			case 0:
				initStage()
			case 1:
				renderStage()
			case 2:
				verifyStage()
			}
		})
	}
	return w
}
