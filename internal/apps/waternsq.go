package apps

import (
	"fmt"
	"math"

	"ftsvm/internal/svm"
)

// waterState is the resumable state of a Water thread. FlushM is advanced
// before each per-molecule lock release so force accumulation replays
// exactly once (FlushStage ties it to the stage it belongs to); the
// physics phases write double-buffered arrays so their replays are
// idempotent overwrites; EnergyStage makes the global energy
// read-modify-write exactly-once.
type waterState struct {
	Phase   int
	Arrived bool
	// FlushM is the next index (in this thread's flush order) whose force
	// contribution has not yet been committed, valid while FlushStage
	// equals the current stage.
	FlushM      int
	FlushStage  int
	EnergyStage int
}

// WaterNsq builds the Water-Nsquared workload: n molecules, all-pairs
// (half-shell) short-range interactions, per-molecule locks guarding
// force accumulation (n + 9 locks, matching the paper's 4105 for 4096
// molecules), and a small number of barriers per timestep. Its very high
// lock/release frequency makes lock wait and checkpointing the dominant
// extended-protocol overheads in the paper.
func WaterNsq(s Shape, n, steps int) *Workload {
	T := s.Threads()
	l := newLayout(s.PageSize)
	// SPLASH-2 water keeps, per molecule, positions/velocities/forces plus
	// higher-order derivative vectors (~18 doubles); the record stride
	// determines how many molecules share a page and therefore how well
	// per-owner page homing resolves.
	const molBytes = 18 * 8
	// Double-buffered positions and velocities; shared force array; one
	// per-thread accumulation region (private by convention, but in
	// shared memory so it is replicated and recoverable, like the paper's
	// per-process arrays).
	posA := l.alloc(n * molBytes)
	posB := l.alloc(n * molBytes)
	velA := l.alloc(n * molBytes)
	velB := l.alloc(n * molBytes)
	frc := l.alloc(n * molBytes)
	accBase := make([]int, T)
	for i := range accBase {
		accBase[i] = l.alloc(n * molBytes)
	}
	energyAddr := l.alloc(8)

	homeOf := make([]int, l.pages())
	for tid := 0; tid < T; tid++ {
		lo, hi := splitRange(n, T, tid)
		for _, base := range []int{posA, posB, velA, velB, frc} {
			for a := base + lo*molBytes; a < base+hi*molBytes; a += s.PageSize {
				homeOf[l.pageOf(a)] = s.NodeOfThread(tid)
			}
		}
		for a := accBase[tid]; a < accBase[tid]+n*molBytes; a += s.PageSize {
			homeOf[l.pageOf(a)] = s.NodeOfThread(tid)
		}
	}

	w := &Workload{
		Name:  fmt.Sprintf("WaterNsq-%d", n),
		Pages: l.pages(),
		Locks: n + 9, // per-molecule locks + synchronization variables
		HomeAssign: func(p int) int {
			if p < len(homeOf) {
				return homeOf[p]
			}
			return 0
		},
	}
	energyLock := n // first of the 9 extra locks

	const dt = 1e-3

	w.Body = func(t *svm.Thread) {
		st := &waterState{FlushStage: -1, EnergyStage: -1}
		t.Setup(st)
		tid := t.ID()
		lo, hi := splitRange(n, T, tid)
		own := hi - lo

		pos := make([]float64, 3*n)
		acc := make([]float64, 3*n)
		buf := make([]float64, 3*n)

		srcPos := func(step int) int {
			if step%2 == 0 {
				return posA
			}
			return posB
		}
		dstPos := func(step int) int { return srcPos(step + 1) }
		srcVel := func(step int) int {
			if step%2 == 0 {
				return velA
			}
			return velB
		}
		dstVel := func(step int) int { return srcVel(step + 1) }

		initStage := func() {
			rng := NewRand(uint64(tid + 1))
			for i := lo; i < hi; i++ {
				buf[3*(i-lo)] = float64(i%16) + 0.3*rng.Float()
				buf[3*(i-lo)+1] = float64((i/16)%16) + 0.3*rng.Float()
				buf[3*(i-lo)+2] = float64(i/256) + 0.3*rng.Float()
			}
			writeMols(t, posA, lo, hi, buf[:3*own])
			for i := 0; i < 3*own; i++ {
				buf[i] = 0
			}
			writeMols(t, velA, lo, hi, buf[:3*own])
		}

		zeroStage := func() {
			for i := range buf[:3*own] {
				buf[i] = 0
			}
			writeMols(t, frc, lo, hi, buf[:3*own])
			zero := make([]float64, 3*n)
			writeMols(t, accBase[tid], 0, n, zero)
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
				readMols(t, srcPos(step), 0, n, pos)
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
						j := (i + d) % n
						fx, fy, fz := pairForce(pos, i, j)
						acc[3*i] += fx
						acc[3*i+1] += fy
						acc[3*i+2] += fz
						acc[3*j] -= fx
						acc[3*j+1] -= fy
						acc[3*j+2] -= fz
						pairs++
					}
				}
				t.Compute(int64(pairs) * 12 * costFlop)
				writeMols(t, accBase[tid], 0, n, acc)
			} else {
				readMols(t, accBase[tid], 0, n, acc)
			}
			for k := st.FlushM; k < n; k++ {
				m := (lo + k) % n
				ax, ay, az := acc[3*m], acc[3*m+1], acc[3*m+2]
				if ax == 0 && ay == 0 && az == 0 {
					st.FlushM = k + 1
					continue
				}
				t.Acquire(m)
				fx := t.ReadF64(frc + m*molBytes)
				fy := t.ReadF64(frc + m*molBytes + 8)
				fz := t.ReadF64(frc + m*molBytes + 16)
				t.WriteF64(frc+m*molBytes, fx+ax)
				t.WriteF64(frc+m*molBytes+8, fy+ay)
				t.WriteF64(frc+m*molBytes+16, fz+az)
				t.Compute(6 * costFlop)
				st.FlushM = k + 1
				t.Release(m)
			}
		}

		// integrateStage is the predictor-corrector step: it reads and
		// rewrites the molecules' full records (positions, velocities, and
		// their derivative vectors) into the alternate buffers — the bulk
		// of water's home-page diff volume — then folds kinetic energy
		// into the global sum under the energy lock, exactly once.
		integrateStage := func(stage, step int) {
			D := waterMolDoubles
			posR := make([]float64, D*own)
			velR := make([]float64, D*own)
			readMolsFull(t, srcPos(step), lo, hi, posR)
			readMolsFull(t, srcVel(step), lo, hi, velR)
			readMols(t, frc, lo, hi, acc[:3*own])
			kin := 0.0
			for i := 0; i < own; i++ {
				for k := 0; k < 3; k++ {
					velR[i*D+k] += acc[3*i+k] * dt
					posR[i*D+k] += velR[i*D+k] * dt
					kin += velR[i*D+k] * velR[i*D+k]
				}
				// Higher-order derivative updates (deterministic damping
				// toward the base vectors, as the corrector would).
				for j := 3; j < D; j++ {
					posR[i*D+j] = 0.9*posR[i*D+j] + 0.1*posR[i*D+j%3]
					velR[i*D+j] = 0.9*velR[i*D+j] + 0.1*velR[i*D+j%3]
				}
			}
			t.Compute(int64(own) * int64(4*D) * costFlop)
			writeMolsFull(t, dstPos(step), lo, hi, posR)
			writeMolsFull(t, dstVel(step), lo, hi, velR)
			if st.EnergyStage != stage {
				t.Acquire(energyLock)
				e := t.ReadF64(energyAddr)
				t.WriteF64(energyAddr, e+kin)
				st.EnergyStage = stage
				t.Release(energyLock)
			}
		}

		verifyStage := func(step int) {
			if tid != 0 {
				return
			}
			readMols(t, frc, 0, n, buf)
			var sx, sy, sz float64
			for m := 0; m < n; m++ {
				sx += buf[3*m]
				sy += buf[3*m+1]
				sz += buf[3*m+2]
			}
			mag := math.Abs(sx) + math.Abs(sy) + math.Abs(sz)
			if mag > 1e-6*float64(n) {
				w.failf("step %d: net force %g (momentum not conserved)", step, mag)
			}
			if e := t.ReadF64(energyAddr); math.IsNaN(e) || math.IsInf(e, 0) {
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
				integrateStage(s, step)
			case 3:
				verifyStage(step)
			}
		})
	}
	return w
}

// pairForce is the soft inverse-square interaction between molecules i
// and j (antisymmetric by construction).
func pairForce(pos []float64, i, j int) (fx, fy, fz float64) {
	dx := pos[3*i] - pos[3*j]
	dy := pos[3*i+1] - pos[3*j+1]
	dz := pos[3*i+2] - pos[3*j+2]
	r2 := dx*dx + dy*dy + dz*dz + 0.1
	inv := 1 / (r2 * math.Sqrt(r2))
	return dx * inv, dy * inv, dz * inv
}
