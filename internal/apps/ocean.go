package apps

import (
	"fmt"
	"math"

	"ftsvm/internal/svm"
)

// oceanState is the resumable state of an Ocean thread: stage progress
// (red/black half-sweeps are deterministic overwrites) plus the residual
// carried from the red half-sweep to the black one — a replayed black
// stage must not see a zeroed carry.
type oceanState struct {
	Phase   int
	Arrived bool
	Pending float64 // residual accumulated in the last red half-sweep
}

// Ocean is a SPLASH-2-Ocean-style workload: red-black Gauss-Seidel
// relaxation of a 2D grid partitioned into horizontal bands. Its sharing
// pattern — nearest-neighbour: each sweep reads only the two boundary
// rows of the adjacent bands — is unlike any of the paper's six
// applications and exercises the protocols' handling of stable,
// fine-grained producer-consumer pages. (Not part of the paper's figures;
// included with the §6 broader-domain extensions.)
//
// The grid solves a Dirichlet problem (fixed boundary, zero interior
// source); the verification checks the solver's residual shrinks
// monotonically toward the harmonic solution.
func Ocean(s Shape, n, sweeps int) *Workload {
	T := s.Threads()
	l := newLayout(s.PageSize)
	rowBytes := n * 8
	grid := l.alloc(n * n * 8)
	residAddr := l.alloc(8 * (sweeps + 1))

	for tid := 0; tid < T; tid++ {
		lo, hi := splitRange(n, T, tid)
		l.home(grid+lo*rowBytes, grid+hi*rowBytes, s.NodeOfThread(tid))
	}

	w := &Workload{
		Name:       fmt.Sprintf("Ocean-%d", n),
		Pages:      l.pages(),
		Locks:      1,
		HomeAssign: l.homeOf,
	}

	// Boundary condition: top edge held at 100, the others at 0.
	boundary := func(i, j int) float64 {
		if i == 0 {
			return 100
		}
		return 0
	}

	w.Body = func(t *svm.Thread) {
		st := &oceanState{}
		t.Setup(st)
		tid := t.ID()
		lo, hi := splitRange(n, T, tid)
		rows := make([][]float64, 3) // sliding window: above, current, below
		for i := range rows {
			rows[i] = make([]float64, n)
		}
		out := make([]float64, n)

		readRow := func(i int, dst []float64) { t.ReadF64s(grid+i*rowBytes, dst) }
		writeRow := func(i int, src []float64) { t.WriteF64s(grid+i*rowBytes, src) }

		initStage := func() {
			for i := lo; i < hi; i++ {
				for j := 0; j < n; j++ {
					out[j] = boundary(i, j)
				}
				writeRow(i, out)
			}
		}

		// sweepStage performs one red-black half-sweep over the band:
		// interior cells of the given parity become the average of their
		// four neighbours. In red-black order a cell's neighbours all have
		// the opposite parity and are untouched during this half-sweep, so
		// rows may be read fresh per iteration. Reading rows lo-1 and hi
		// touches the adjacent bands' boundary rows — the nearest-
		// neighbour communication.
		sweepStage := func(parity int) float64 {
			localResid := 0.0
			above, cur, below := rows[0], rows[1], rows[2]
			for i := maxInt(lo, 1); i < hi && i < n-1; i++ {
				readRow(i-1, above)
				readRow(i, cur)
				readRow(i+1, below)
				copy(out, cur)
				for j := 1 + (i+parity)%2; j < n-1; j += 2 {
					v := 0.25 * (above[j] + below[j] + cur[j-1] + cur[j+1])
					localResid += math.Abs(v - cur[j])
					out[j] = v
				}
				writeRow(i, out)
				t.Compute(int64(n) * 3 * costFlop)
			}
			return localResid
		}

		total := 1 + 2*sweeps + 1
		RunStages(t, &st.Phase, &st.Arrived, total, func(sg int) {
			switch {
			case sg == 0:
				initStage()
			case sg == total-1:
				if tid != 0 {
					return
				}
				// Residuals must decrease (Gauss-Seidel on a Laplace
				// problem converges monotonically after the first sweep).
				prev := math.Inf(1)
				for k := 1; k < sweeps; k++ {
					r := t.ReadF64(residAddr + 8*k)
					if k > 1 && r > prev*1.0001 {
						w.failf("residual rose at sweep %d: %g -> %g", k, prev, r)
						return
					}
					prev = r
				}
				if prev <= 0 && sweeps > 1 {
					w.failf("solver made no progress")
				}
			default:
				parity := (sg - 1) % 2
				r := sweepStage(parity)
				if parity == 0 {
					st.Pending = r
				} else if tid == 0 {
					// Thread 0 records its own band's residual per sweep;
					// one band's trajectory suffices for the monotonic-
					// convergence check.
					sweep := (sg - 1) / 2
					t.WriteF64(residAddr+8*sweep, st.Pending+r)
				}
			}
		})
	}
	return w
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
