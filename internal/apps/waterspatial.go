package apps

import (
	"fmt"
	"math"
	"sort"

	"ftsvm/internal/svm"
)

// forwardNeighbors is the half-shell of 13 forward cell offsets (plus the
// cell itself handled separately) used to count each cell pair once.
var forwardNeighbors = [13][3]int{
	{1, 0, 0}, {0, 1, 0}, {0, 0, 1},
	{1, 1, 0}, {1, -1, 0}, {1, 0, 1}, {1, 0, -1},
	{0, 1, 1}, {0, 1, -1},
	{1, 1, 1}, {1, 1, -1}, {1, -1, 1}, {1, -1, -1},
}

// WaterSp builds the Water-SpatialFL workload: molecules statically binned
// into a G^3 cell grid, threads owning contiguous cell blocks, pairwise
// interactions only between neighboring cells, and per-cell locks guarding
// only the boundary cells that receive contributions from other threads.
// Nearly all page updates land on the updating thread's own home pages —
// the paper measures >99% home-page diffs, which is why the extended
// protocol's overhead on it is almost entirely diff processing.
func WaterSp(s Shape, n, steps int) *Workload {
	G := 2
	for G*G*G*64 < n { // cutoff-sized boxes: ~64 molecules per cell
		G++
	}
	cells := G * G * G
	T := s.Threads()

	// Static binning: molecule i lives in cell i*cells/n (the jittered
	// lattice init makes consecutive molecules spatial neighbors).
	cellOf := make([]int, n)
	cellLo := make([]int, cells+1)
	for i := 0; i < n; i++ {
		cellOf[i] = i * cells / n
	}
	for c := 1; c <= cells; c++ {
		cellLo[c] = (c*n + cells - 1) / cells
	}

	ownerOfCell := func(c int) int { return c * T / cells }

	l := newLayout(s.PageSize)
	// SPLASH-2 water keeps, per molecule, positions/velocities/forces plus
	// higher-order derivative vectors (~18 doubles); the record stride
	// determines how many molecules share a page and therefore how well
	// per-owner page homing resolves.
	const molBytes = 18 * 8
	posA := l.alloc(n * molBytes)
	posB := l.alloc(n * molBytes)
	velA := l.alloc(n * molBytes)
	velB := l.alloc(n * molBytes)
	frc := l.alloc(n * molBytes)
	// Per-thread contribution regions (shared memory homed at the writer,
	// like SPLASH's per-process arrays): a thread writes every force
	// contribution it computes into its own region, and cell owners gather
	// them — so nearly all diffed pages are the writer's own home pages,
	// the >99% the paper reports for Water-SpatialFL.
	accBase := make([]int, T)
	for i := range accBase {
		accBase[i] = l.alloc(n * molBytes)
	}
	energyAddr := l.alloc(8)

	homeOf := make([]int, l.pages())
	for c := 0; c < cells; c++ {
		nd := s.NodeOfThread(ownerOfCell(c))
		for _, base := range []int{posA, posB, velA, velB, frc} {
			for a := base + cellLo[c]*molBytes; a < base+cellLo[c+1]*molBytes; a += s.PageSize {
				homeOf[l.pageOf(a)] = nd
			}
		}
	}
	for tid := 0; tid < T; tid++ {
		for a := accBase[tid]; a < accBase[tid]+n*molBytes; a += s.PageSize {
			homeOf[l.pageOf(a)] = s.NodeOfThread(tid)
		}
	}

	w := &Workload{
		Name:  fmt.Sprintf("WaterSp-%d", n),
		Pages: l.pages(),
		Locks: cells + 6, // per-cell locks + globals (paper: 518 for 4096)
		HomeAssign: func(p int) int {
			if p < len(homeOf) {
				return homeOf[p]
			}
			return 0
		},
	}
	energyLock := cells

	// Precompute, per cell, its interaction partners and the owners that
	// contribute to it.
	coord := func(c int) (int, int, int) { return c % G, (c / G) % G, c / (G * G) }
	cellAt := func(x, y, z int) int {
		if x < 0 || y < 0 || z < 0 || x >= G || y >= G || z >= G {
			return -1
		}
		return x + y*G + z*G*G
	}
	partners := make([][]int, cells)
	touchers := make([]map[int]bool, cells)
	for c := range touchers {
		touchers[c] = map[int]bool{ownerOfCell(c): true}
	}
	for c := 0; c < cells; c++ {
		x, y, z := coord(c)
		for _, d := range forwardNeighbors {
			nb := cellAt(x+d[0], y+d[1], z+d[2])
			if nb < 0 {
				continue
			}
			partners[c] = append(partners[c], nb)
			touchers[nb][ownerOfCell(c)] = true
			touchers[c][ownerOfCell(nb)] = true
		}
	}
	// contributors[c]: the threads whose contribution regions a cell's
	// owner must gather.
	contributors := make([][]int, cells)
	for c := 0; c < cells; c++ {
		for tid := range touchers[c] {
			contributors[c] = append(contributors[c], tid)
		}
		sort.Ints(contributors[c])
	}

	const dt = 1e-3

	w.Body = func(t *svm.Thread) {
		st := &waterState{FlushStage: -1, EnergyStage: -1}
		t.Setup(st)
		tid := t.ID()
		cLo, cHi := splitRange(cells, T, tid)
		mLo, mHi := cellLo[cLo], cellLo[cHi]
		own := mHi - mLo

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
			rng := NewRand(uint64(tid + 77))
			for i := mLo; i < mHi; i++ {
				x, y, z := coord(cellOf[i])
				buf[3*(i-mLo)] = float64(x) + rng.Float()
				buf[3*(i-mLo)+1] = float64(y) + rng.Float()
				buf[3*(i-mLo)+2] = float64(z) + rng.Float()
			}
			writeMols(t, posA, mLo, mHi, buf[:3*own])
			for i := 0; i < 3*own; i++ {
				buf[i] = 0
			}
			writeMols(t, velA, mLo, mHi, buf[:3*own])
			// Zero the whole contribution region once; afterwards every
			// step overwrites exactly the ranges the gathers read.
			zero := make([]float64, 3*n)
			writeMols(t, accBase[tid], 0, n, zero)
		}

		// computePairs accumulates the cell-pair interactions into the
		// host-local buffer. Pure and deterministic, so a replay resuming
		// mid-flush regenerates the contributions by re-running it.
		computePairs := func(step int) {
			needed := map[int]bool{}
			for c := cLo; c < cHi; c++ {
				needed[c] = true
				for _, nb := range partners[c] {
					needed[nb] = true
				}
			}
			// Read in sorted cell order: map iteration order would vary
			// between runs and perturb virtual time (fetch interleaving),
			// breaking cross-run determinism.
			var cs []int
			for c := range needed {
				cs = append(cs, c)
			}
			sort.Ints(cs)
			for _, c := range cs {
				lo, hi := cellLo[c], cellLo[c+1]
				if hi > lo {
					readMols(t, srcPos(step), lo, hi, pos[3*lo:3*hi])
				}
			}
			for i := range acc {
				acc[i] = 0
			}
			pairs := 0
			for c := cLo; c < cHi; c++ {
				for i := cellLo[c]; i < cellLo[c+1]; i++ {
					for j := i + 1; j < cellLo[c+1]; j++ {
						pairs += accumulatePair(pos, acc, i, j)
					}
				}
				for _, nb := range partners[c] {
					for i := cellLo[c]; i < cellLo[c+1]; i++ {
						for j := cellLo[nb]; j < cellLo[nb+1]; j++ {
							pairs += accumulatePair(pos, acc, i, j)
						}
					}
				}
			}
			t.Compute(int64(pairs) * 12 * costFlop)
		}

		// contributeStage computes the cell-pair interactions and writes
		// every contribution this thread produced into its own shared
		// region — all home-page writes.
		contributeStage := func(step int) {
			computePairs(step)
			touched := touchedCells(cLo, cHi, partners)
			for _, c := range touched {
				lo, hi := cellLo[c], cellLo[c+1]
				if hi > lo {
					writeMols(t, accBase[tid], lo, hi, acc[3*lo:3*hi])
				}
			}
		}

		// gatherStage: each cell's owner sums the contributors' regions
		// into the shared force array (own home pages), under the cell's
		// lock — the paper's 518 locks with low contention. Overwrites are
		// idempotent, so replay is safe; FlushM still tracks progress so a
		// replay skips completed cells' releases.
		gatherStage := func(stage int) {
			if st.FlushStage != stage {
				st.FlushM, st.FlushStage = 0, stage
			}
			part := make([]float64, 3*n)
			for k := st.FlushM; k < cHi-cLo; k++ {
				c := cLo + k
				lo, hi := cellLo[c], cellLo[c+1]
				if hi == lo {
					st.FlushM = k + 1
					continue
				}
				t.Acquire(c)
				for i := range buf[:3*(hi-lo)] {
					buf[i] = 0
				}
				for _, ct := range contributors[c] {
					readMols(t, accBase[ct], lo, hi, part[:3*(hi-lo)])
					for i := 0; i < 3*(hi-lo); i++ {
						buf[i] += part[i]
					}
				}
				writeMols(t, frc, lo, hi, buf[:3*(hi-lo)])
				t.Compute(int64((hi-lo)*len(contributors[c])) * 3 * costFlop)
				st.FlushM = k + 1
				t.Release(c)
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
			readMolsFull(t, srcPos(step), mLo, mHi, posR)
			readMolsFull(t, srcVel(step), mLo, mHi, velR)
			readMols(t, frc, mLo, mHi, acc[:3*own])
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
			writeMolsFull(t, dstPos(step), mLo, mHi, posR)
			writeMolsFull(t, dstVel(step), mLo, mHi, velR)
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
			if mag := math.Abs(sx) + math.Abs(sy) + math.Abs(sz); mag > 1e-6*float64(n) {
				w.failf("step %d: net force %g", step, mag)
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
				contributeStage(step)
			case 1:
				gatherStage(s)
			case 2:
				integrateStage(s, step)
			case 3:
				verifyStage(step)
			}
		})
	}
	return w
}

// accumulatePair adds the antisymmetric pair force to both molecules and
// reports 1 (for flop accounting).
func accumulatePair(pos, acc []float64, i, j int) int {
	fx, fy, fz := pairForce(pos, i, j)
	acc[3*i] += fx
	acc[3*i+1] += fy
	acc[3*i+2] += fz
	acc[3*j] -= fx
	acc[3*j+1] -= fy
	acc[3*j+2] -= fz
	return 1
}

// touchedCells returns the deterministic flush order: own cells first,
// then the forward neighbors this thread contributed to.
func touchedCells(cLo, cHi int, partners [][]int) []int {
	seen := map[int]bool{}
	var out []int
	for c := cLo; c < cHi; c++ {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	for c := cLo; c < cHi; c++ {
		for _, nb := range partners[c] {
			if !seen[nb] {
				seen[nb] = true
				out = append(out, nb)
			}
		}
	}
	return out
}
