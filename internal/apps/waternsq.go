package apps

import (
	"fmt"
	"math"

	"ftsvm/internal/svm"
)

// WaterNsq builds the Water-Nsquared workload: n molecules, all-pairs
// (half-shell) short-range interactions, per-molecule locks guarding
// force accumulation (n + 9 locks, matching the paper's 4105 for 4096
// molecules), and a small number of barriers per timestep. Its very high
// lock/release frequency makes lock wait and checkpointing the dominant
// extended-protocol overheads in the paper.
func WaterNsq(s Shape, n, steps int) *Workload {
	T := s.Threads()
	l := newLayout(s.PageSize)
	mols := newWaterMols(l, s, n, n) // the energy lock is the first of the 9 extra locks
	for tid := 0; tid < T; tid++ {
		lo, hi := splitRange(n, T, tid)
		mols.home(l, lo, hi, s.NodeOfThread(tid))
	}

	w := &Workload{
		Name:       fmt.Sprintf("WaterNsq-%d", n),
		Pages:      l.pages(),
		Locks:      n + 9, // per-molecule locks + synchronization variables
		HomeAssign: l.homeOf,
	}

	w.Body = func(t *svm.Thread) {
		st := &waterState{FlushStage: -1, EnergyStage: -1}
		t.Setup(st)
		tid := t.ID()
		lo, hi := splitRange(n, T, tid)
		own := hi - lo

		pos := make([]float64, 3*n)
		acc := make([]float64, 3*n)
		buf := make([]float64, 3*n)

		initStage := func() {
			rng := NewRand(uint64(tid + 1))
			for i := lo; i < hi; i++ {
				buf[3*(i-lo)] = float64(i%16) + 0.3*rng.Float()
				buf[3*(i-lo)+1] = float64((i/16)%16) + 0.3*rng.Float()
				buf[3*(i-lo)+2] = float64(i/256) + 0.3*rng.Float()
			}
			mols.start(t, lo, hi, buf)
		}

		zeroStage := func() {
			clear(buf[:3*own])
			writeMols(t, mols.frc, lo, hi, buf[:3*own])
			mols.clearAcc(t, tid)
		}

		// interactStage computes the half-shell pair forces into the
		// private shared region, then flushes them into the shared force
		// array under per-molecule locks. Re-entrant: a replay resuming
		// mid-flush reloads the accumulated contributions from the shared
		// region (they were committed by the first flush release).
		interactStage := func(stage, step int) {
			if st.FlushStage != stage {
				st.FlushM, st.FlushStage = 0, stage
			}
			if st.FlushM == 0 {
				readMols(t, mols.srcPos(step), 0, n, pos)
				for i := range acc {
					acc[i] = 0
				}
				half := n / 2
				pairs := 0
				for i := lo; i < hi; i++ {
					for d := 1; d <= half; d++ {
						if d == half && n%2 == 0 && i >= half {
							continue // avoid double-counting opposite pairs
						}
						pairs += accumulatePair(pos, acc, i, (i+d)%n)
					}
				}
				t.Compute(int64(pairs) * 12 * costFlop)
				writeMols(t, mols.acc[tid], 0, n, acc)
			} else {
				readMols(t, mols.acc[tid], 0, n, acc)
			}
			for k := st.FlushM; k < n; k++ {
				m := (lo + k) % n
				ax, ay, az := acc[3*m], acc[3*m+1], acc[3*m+2]
				if ax == 0 && ay == 0 && az == 0 {
					st.FlushM = k + 1
					continue
				}
				t.Acquire(m)
				f := mols.frc + m*waterMolBytes
				fx, fy, fz := t.ReadF64(f), t.ReadF64(f+8), t.ReadF64(f+16)
				t.WriteF64(f, fx+ax)
				t.WriteF64(f+8, fy+ay)
				t.WriteF64(f+16, fz+az)
				t.Compute(6 * costFlop)
				st.FlushM = k + 1
				t.Release(m)
			}
		}

		verifyStage := func(step int) {
			if tid != 0 {
				return
			}
			if mag := mols.netForce(t, buf); mag > 1e-6*float64(n) {
				w.failf("step %d: net force %g (momentum not conserved)", step, mag)
			}
			if e := t.ReadF64(mols.energy); math.IsNaN(e) || math.IsInf(e, 0) {
				w.failf("step %d: energy diverged: %g", step, e)
			}
		}

		total := 1 + 4*steps
		RunStages(t, &st.Phase, &st.Arrived, total, func(s int) {
			if s == 0 {
				initStage()
				return
			}
			step, sub := (s-1)/4, (s-1)%4
			switch sub {
			case 0:
				zeroStage()
			case 1:
				interactStage(s, step)
			case 2:
				mols.integrate(t, st, s, step, lo, hi, acc)
			case 3:
				verifyStage(step)
			}
		})
	}
	return w
}
