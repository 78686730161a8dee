package apps

import (
	"fmt"
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
	// The per-thread accumulation regions are contribution regions here: a
	// thread writes every force contribution it computes into its own
	// region, and cell owners gather them — so nearly all diffed pages
	// are the writer's own home pages, the >99% the paper reports for
	// Water-SpatialFL.
	mols := newWaterMols(l, s, n, cells) // the energy lock is the first of the 6 globals
	for c := 0; c < cells; c++ {
		mols.home(l, cellLo[c], cellLo[c+1], s.NodeOfThread(ownerOfCell(c)))
	}

	w := &Workload{
		Name:       fmt.Sprintf("WaterSp-%d", n),
		Pages:      l.pages(),
		Locks:      cells + 6, // per-cell locks + globals (paper: 518 for 4096)
		HomeAssign: l.homeOf,
	}

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

	w.Body = func(t *svm.Thread) {
		st := &waterState{FlushStage: -1, EnergyStage: -1}
		t.Setup(st)
		tid := t.ID()
		cLo, cHi := splitRange(cells, T, tid)
		mLo, mHi := cellLo[cLo], cellLo[cHi]

		pos := make([]float64, 3*n)
		acc := make([]float64, 3*n)
		buf := make([]float64, 3*n)

		initStage := func() {
			rng := NewRand(uint64(tid + 77))
			for i := mLo; i < mHi; i++ {
				x, y, z := coord(cellOf[i])
				buf[3*(i-mLo)] = float64(x) + rng.Float()
				buf[3*(i-mLo)+1] = float64(y) + rng.Float()
				buf[3*(i-mLo)+2] = float64(z) + rng.Float()
			}
			mols.start(t, mLo, mHi, buf)
			// Zero the whole contribution region once; afterwards every
			// step overwrites exactly the ranges the gathers read.
			mols.clearAcc(t, tid)
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
					readMols(t, mols.srcPos(step), lo, hi, pos[3*lo:3*hi])
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
					writeMols(t, mols.acc[tid], lo, hi, acc[3*lo:3*hi])
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
					readMols(t, mols.acc[ct], lo, hi, part[:3*(hi-lo)])
					for i := 0; i < 3*(hi-lo); i++ {
						buf[i] += part[i]
					}
				}
				writeMols(t, mols.frc, lo, hi, buf[:3*(hi-lo)])
				t.Compute(int64((hi-lo)*len(contributors[c])) * 3 * costFlop)
				st.FlushM = k + 1
				t.Release(c)
			}
		}

		verifyStage := func(step int) {
			if tid != 0 {
				return
			}
			if mag := mols.netForce(t, buf); mag > 1e-6*float64(n) {
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
				mols.integrate(t, st, s, step, mLo, mHi, acc)
			case 3:
				verifyStage(step)
			}
		})
	}
	return w
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
