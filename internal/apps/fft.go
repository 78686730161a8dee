package apps

import (
	"fmt"
	"math"

	"ftsvm/internal/svm"
)

// Shape describes the cluster an application is built for; workloads use
// it to partition data and place page homes (the paper assigns primary
// homes "in a way that maximizes parallelism").
type Shape struct {
	Nodes          int
	ThreadsPerNode int
	PageSize       int
}

// Threads returns the total compute thread count.
func (s Shape) Threads() int { return s.Nodes * s.ThreadsPerNode }

// NodeOfThread maps a thread to its home node.
func (s Shape) NodeOfThread(tid int) int { return tid / s.ThreadsPerNode }

// Modeled CPU costs (ns) for application arithmetic on the paper's 400 MHz
// Pentium-II nodes (a pipelined flop with its operand loads runs several
// cycles at 2.5 ns each; a libm sincos runs ~60 cycles).
const (
	costFlop   = 12
	costIntOp  = 6
	costSinCos = 150
)

// fftState is the resumable state of an FFT thread: pure phase progress.
type fftState struct {
	Phase   int
	Arrived bool
}

// FFT builds the SPLASH-2 FFT workload: a six-step 1D FFT of n complex
// points organized as an m x m matrix (n = m*m), with three all-to-all
// transposes separated by barriers — the communication pattern whose
// home-page diffing dominates the extended protocol's overhead in the
// paper. The input is delta + a complex exponential, so the spectrum has
// a closed form the final phase verifies.
func FFT(s Shape, n int) *Workload {
	m := 1
	for m*m < n {
		m *= 2
	}
	if m*m != n {
		panic(fmt.Sprintf("apps: FFT size %d is not a power of 4", n))
	}
	T := s.Threads()
	l := newLayout(s.PageSize)
	rowBytes := 16 * m
	matA := l.alloc(n * 16) // working matrix
	matB := l.alloc(n * 16) // transpose target

	for tid := 0; tid < T; tid++ {
		lo, hi := splitRange(m, T, tid)
		for _, base := range []int{matA, matB} {
			for r := lo; r < hi; r++ {
				l.home(base+r*rowBytes, base+(r+1)*rowBytes, s.NodeOfThread(tid))
			}
		}
	}

	const spike = 3 // the exponential's frequency
	w := &Workload{
		Name:       fmt.Sprintf("FFT-%dK", n/1024),
		Pages:      l.pages(),
		Locks:      1,
		HomeAssign: l.homeOf,
	}

	w.Body = func(t *svm.Thread) {
		st := &fftState{}
		t.Setup(st)
		tid := t.ID()
		lo, hi := splitRange(m, T, tid)
		row := make([]float64, 2*m)

		stage := map[int]func(){}
		phase := func(p int, fn func()) { stage[p] = fn }

		// Phase 0: initialize own rows of A with x = delta + exp(2*pi*i*
		// spike*j/n). Matrix layout: A[b][a] = x[a + m*b] (row b).
		phase(0, func() {
			for b := lo; b < hi; b++ {
				for a := 0; a < m; a++ {
					j := a + m*b
					ang := 2 * math.Pi * float64(spike) * float64(j) / float64(n)
					re, im := math.Cos(ang), math.Sin(ang)
					if j == 0 {
						re++
					}
					row[2*a], row[2*a+1] = re, im
				}
				t.WriteF64s(matA+b*rowBytes, row)
				t.Compute(int64(m) * costSinCos)
			}
		})

		// Phase 1: transpose A -> B (B[a][b] = A[b][a]); each thread
		// produces its own rows of B by reading column slices of A from
		// every other thread's rows (the all-to-all).
		phase(1, func() { transpose(t, matA, matB, m, lo, hi, row) })

		// Phase 2: FFT each own row of B (over b), then twiddle by
		// w_n^{a*c}: B[a][c] = G[a][c] * w_n^{ac}.
		phase(2, func() {
			for a := lo; a < hi; a++ {
				t.ReadF64s(matB+a*rowBytes, row)
				fft1d(row, m)
				for c := 0; c < m; c++ {
					ang := -2 * math.Pi * float64(a) * float64(c) / float64(n)
					wr, wi := math.Cos(ang), math.Sin(ang)
					re, im := row[2*c], row[2*c+1]
					row[2*c], row[2*c+1] = re*wr-im*wi, re*wi+im*wr
				}
				t.WriteF64s(matB+a*rowBytes, row)
				t.Compute(int64(5*m)*int64(log2(m))*costFlop + int64(m)*(costSinCos+6*costFlop))
			}
		})

		// Phase 3: transpose B -> A.
		phase(3, func() { transpose(t, matB, matA, m, lo, hi, row) })

		// Phase 4: FFT each own row of A (over a): X'[c][d].
		phase(4, func() {
			for c := lo; c < hi; c++ {
				t.ReadF64s(matA+c*rowBytes, row)
				fft1d(row, m)
				t.WriteF64s(matA+c*rowBytes, row)
				t.Compute(int64(5*m) * int64(log2(m)) * costFlop)
			}
		})

		// Phase 5: final transpose A -> B restoring natural-ish order:
		// B[d][c] = X[c + m*d].
		phase(5, func() { transpose(t, matA, matB, m, lo, hi, row) })

		// Phase 6: thread 0 verifies against the closed form:
		// X[k] = 1 + n*[k == spike].
		phase(6, func() {
			if tid != 0 {
				return
			}
			worst := 0.0
			for d := 0; d < m; d++ {
				t.ReadF64s(matB+d*rowBytes, row)
				for c := 0; c < m; c++ {
					k := c + m*d
					wantRe := 1.0
					if k == spike {
						wantRe += float64(n)
					}
					dr := math.Abs(row[2*c] - wantRe)
					di := math.Abs(row[2*c+1])
					if dr > worst {
						worst = dr
					}
					if di > worst {
						worst = di
					}
				}
			}
			tol := 1e-6 * float64(n)
			if worst > tol {
				w.failf("spectrum error %g exceeds %g", worst, tol)
			}
		})

		RunStages(t, &st.Phase, &st.Arrived, len(stage), func(p int) { stage[p]() })
	}
	return w
}

// transpose writes dst rows [lo,hi) from src columns, reading src one
// row-segment at a time (each read of a remote row's slice is the
// all-to-all communication).
func transpose(t *svm.Thread, src, dst, m, lo, hi int, scratch []float64) {
	rowBytes := 16 * m
	cols := hi - lo
	buf := make([]float64, 2*cols*m) // dst rows lo..hi, gathered
	seg := scratch[:2*cols]
	for j := 0; j < m; j++ { // src row j supplies dst column j
		t.ReadF64s(src+j*rowBytes+lo*16, seg)
		for i := 0; i < cols; i++ {
			buf[i*2*m+2*j] = seg[2*i]
			buf[i*2*m+2*j+1] = seg[2*i+1]
		}
		t.Compute(int64(cols) * 2 * costIntOp)
	}
	for i := 0; i < cols; i++ {
		t.WriteF64s(dst+(lo+i)*rowBytes, buf[i*2*m:(i+1)*2*m])
	}
}

// fft1d computes an in-place radix-2 DFT (e^{-2*pi*i*jk/m} convention) of
// the m interleaved complex values in buf.
func fft1d(buf []float64, m int) {
	// Bit-reversal permutation.
	for i, j := 0, 0; i < m; i++ {
		if i < j {
			buf[2*i], buf[2*j] = buf[2*j], buf[2*i]
			buf[2*i+1], buf[2*j+1] = buf[2*j+1], buf[2*i+1]
		}
		mask := m >> 1
		for ; j&mask != 0; mask >>= 1 {
			j &^= mask
		}
		j |= mask
	}
	for size := 2; size <= m; size <<= 1 {
		half := size >> 1
		ang := -2 * math.Pi / float64(size)
		wr, wi := math.Cos(ang), math.Sin(ang)
		for start := 0; start < m; start += size {
			cr, ci := 1.0, 0.0
			for k := 0; k < half; k++ {
				i0, i1 := start+k, start+k+half
				xr, xi := buf[2*i1]*cr-buf[2*i1+1]*ci, buf[2*i1]*ci+buf[2*i1+1]*cr
				buf[2*i1], buf[2*i1+1] = buf[2*i0]-xr, buf[2*i0+1]-xi
				buf[2*i0], buf[2*i0+1] = buf[2*i0]+xr, buf[2*i0+1]+xi
				cr, ci = cr*wr-ci*wi, cr*wi+ci*wr
			}
		}
	}
}

func log2(m int) int {
	k := 0
	for 1<<k < m {
		k++
	}
	return k
}
