package apps

import (
	"fmt"
	"math"

	"ftsvm/internal/svm"
)

// luState is the resumable state of an LU thread: linear stage progress
// (init, then diagonal/perimeter/interior per step, then verification).
type luState struct {
	Phase   int
	Arrived bool
}

// LU builds the SPLASH-2 LU-contiguous workload: blocked right-looking LU
// factorization (no pivoting) of an n x n matrix with b x b blocks
// allocated contiguously per owner, 2D-scattered block ownership, and
// barriers between the diagonal, perimeter, and interior stages. Like FFT
// it is barrier-only; its data partitioning makes most updates land on
// home pages, which is why the extended protocol's home-page diffing hurts
// it most (Fig. 9).
func LU(s Shape, n, b int) *Workload {
	if n%b != 0 {
		panic("apps: LU block size must divide n")
	}
	N := n / b // blocks per side
	T := s.Threads()
	pr := 1
	for d := int(math.Sqrt(float64(T))); d >= 1; d-- {
		if T%d == 0 {
			pr = d
			break
		}
	}
	pc := T / pr

	ownerOf := func(I, J int) int { return (I%pr)*pc + J%pc }

	l := newLayout(s.PageSize)
	blockBytes := b * b * 8
	// Contiguous allocation: all blocks of one owner are adjacent.
	blockAddr := make([][]int, N)
	for I := range blockAddr {
		blockAddr[I] = make([]int, N)
	}
	homeOf := []int{}
	for tid := 0; tid < T; tid++ {
		var mine [][2]int
		for I := 0; I < N; I++ {
			for J := 0; J < N; J++ {
				if ownerOf(I, J) == tid {
					mine = append(mine, [2]int{I, J})
				}
			}
		}
		base := l.alloc(len(mine) * blockBytes)
		for k, ij := range mine {
			blockAddr[ij[0]][ij[1]] = base + k*blockBytes
		}
		for p := l.pageOf(base); p < l.pages(); p++ {
			for len(homeOf) <= p {
				homeOf = append(homeOf, s.NodeOfThread(tid))
			}
		}
	}

	w := &Workload{
		Name:  fmt.Sprintf("LU-%d", n),
		Pages: l.pages(),
		Locks: 1,
		HomeAssign: func(p int) int {
			if p < len(homeOf) {
				return homeOf[p]
			}
			return 0
		},
	}

	// The input matrix entry (analytic, diagonally dominant so the
	// factorization is stable without pivoting).
	a0 := func(i, j int) float64 {
		if i == j {
			return float64(n) + 4
		}
		return 1.0 + 0.5*math.Sin(float64(3*i+7*j))
	}

	w.Body = func(t *svm.Thread) {
		st := &luState{}
		t.Setup(st)
		tid := t.ID()
		blk := make([]float64, b*b)
		bk := make([]float64, b*b)
		bj := make([]float64, b*b)

		readBlock := func(I, J int, dst []float64) { t.ReadF64s(blockAddr[I][J], dst) }
		writeBlock := func(I, J int, src []float64) { t.WriteF64s(blockAddr[I][J], src) }

		initStage := func() {
			for I := 0; I < N; I++ {
				for J := 0; J < N; J++ {
					if ownerOf(I, J) != tid {
						continue
					}
					for r := 0; r < b; r++ {
						for c := 0; c < b; c++ {
							blk[r*b+c] = a0(I*b+r, J*b+c)
						}
					}
					writeBlock(I, J, blk)
				}
			}
		}

		diagStage := func(k int) {
			if ownerOf(k, k) != tid {
				return
			}
			readBlock(k, k, blk)
			lu0(blk, b)
			writeBlock(k, k, blk)
			t.Compute(int64(b*b*b) * 2 / 3 * costFlop)
		}

		perimStage := func(k int) {
			owned := false
			for J := k + 1; J < N && !owned; J++ {
				owned = ownerOf(k, J) == tid
			}
			for I := k + 1; I < N && !owned; I++ {
				owned = ownerOf(I, k) == tid
			}
			if owned {
				readBlock(k, k, bk)
			}
			for J := k + 1; J < N; J++ {
				if ownerOf(k, J) != tid {
					continue
				}
				readBlock(k, J, blk)
				bdivL(blk, bk, b)
				writeBlock(k, J, blk)
				t.Compute(int64(b*b*b) * costFlop)
			}
			for I := k + 1; I < N; I++ {
				if ownerOf(I, k) != tid {
					continue
				}
				readBlock(I, k, blk)
				bmodU(blk, bk, b)
				writeBlock(I, k, blk)
				t.Compute(int64(b*b*b) * costFlop)
			}
		}

		interiorStage := func(k int) {
			for I := k + 1; I < N; I++ {
				first := true
				for J := k + 1; J < N; J++ {
					if ownerOf(I, J) != tid {
						continue
					}
					if first {
						readBlock(I, k, bk)
						first = false
					}
					readBlock(k, J, bj)
					readBlock(I, J, blk)
					matmulSub(blk, bk, bj, b)
					writeBlock(I, J, blk)
					t.Compute(int64(2*b*b*b) * costFlop)
				}
			}
		}

		verifyStage := func() {
			if tid != 0 {
				return
			}
			rng := NewRand(12345)
			samples := 64
			if n <= 64 {
				samples = n * n // exhaustive only for test-size matrices
			}
			worst := 0.0
			rowI := make([]float64, n)
			colJ := make([]float64, n)
			for sIdx := 0; sIdx < samples; sIdx++ {
				var i, j int
				if n <= 128 {
					i, j = sIdx/n, sIdx%n
				} else {
					i, j = int(rng.Next()%uint64(n)), int(rng.Next()%uint64(n))
				}
				readRowSeg(t, blockAddr, i, n, b, rowI)
				readColSeg(t, blockAddr, j, n, b, colJ)
				sum := 0.0
				kmax := i
				if j < i {
					kmax = j
				}
				for k := 0; k < kmax; k++ {
					sum += rowI[k] * colJ[k]
				}
				if i <= j {
					sum += colJ[i] // L[i][i] = 1, U[i][j]
				} else {
					sum += rowI[j] * colJ[j] // L[i][j]*U[j][j]
				}
				if d := math.Abs(sum - a0(i, j)); d > worst {
					worst = d
				}
			}
			tol := 1e-7 * float64(n)
			if worst > tol {
				w.failf("residual %g exceeds %g", worst, tol)
			}
		}

		total := 2 + 3*N // init + 3 stages per step + verify
		RunStages(t, &st.Phase, &st.Arrived, total, func(s int) {
			switch {
			case s == 0:
				initStage()
			case s == total-1:
				verifyStage()
			default:
				k, sub := (s-1)/3, (s-1)%3
				switch sub {
				case 0:
					diagStage(k)
				case 1:
					perimStage(k)
				case 2:
					interiorStage(k)
				}
			}
		})
	}
	return w
}

// readRowSeg gathers row i of the blocked matrix into dst.
func readRowSeg(t *svm.Thread, blockAddr [][]int, i, n, b int, dst []float64) {
	I, r := i/b, i%b
	for J := 0; J < n/b; J++ {
		t.ReadF64s(blockAddr[I][J]+r*b*8, dst[J*b:(J+1)*b])
	}
}

// readColSeg gathers column j of the blocked matrix into dst.
func readColSeg(t *svm.Thread, blockAddr [][]int, j, n, b int, dst []float64) {
	J, c := j/b, j%b
	buf := make([]float64, b*b)
	for I := 0; I < n/b; I++ {
		t.ReadF64s(blockAddr[I][J], buf)
		for r := 0; r < b; r++ {
			dst[I*b+r] = buf[r*b+c]
		}
	}
}

// lu0 factors a b x b block in place (unit lower L below the diagonal, U
// on and above).
func lu0(a []float64, b int) {
	for k := 0; k < b; k++ {
		piv := a[k*b+k]
		for i := k + 1; i < b; i++ {
			a[i*b+k] /= piv
			f := a[i*b+k]
			for j := k + 1; j < b; j++ {
				a[i*b+j] -= f * a[k*b+j]
			}
		}
	}
}

// bdivL solves L*X = A in place for a block right of the diagonal (L is
// the unit lower triangle of diag).
func bdivL(a, diag []float64, b int) {
	for r := 1; r < b; r++ {
		for s := 0; s < r; s++ {
			f := diag[r*b+s]
			for c := 0; c < b; c++ {
				a[r*b+c] -= f * a[s*b+c]
			}
		}
	}
}

// bmodU solves X*U = A in place for a block below the diagonal (U is the
// upper triangle of diag).
func bmodU(a, diag []float64, b int) {
	for c := 0; c < b; c++ {
		for s := 0; s < c; s++ {
			f := diag[s*b+c]
			for r := 0; r < b; r++ {
				a[r*b+c] -= a[r*b+s] * f
			}
		}
		inv := 1 / diag[c*b+c]
		for r := 0; r < b; r++ {
			a[r*b+c] *= inv
		}
	}
}

// matmulSub computes a -= l * u for b x b blocks. The inner loop runs over
// row slices of equal length, so it carries no bounds checks: the indexed
// form's loop was a third slower or faster depending only on where the
// linker placed it.
func matmulSub(a, l, u []float64, b int) {
	for r := 0; r < b; r++ {
		ar := a[r*b : r*b+b]
		for k, f := range l[r*b : r*b+b] {
			if f == 0 {
				continue
			}
			uk := u[k*b : k*b+len(ar)]
			for c := range ar {
				ar[c] -= f * uk[c]
			}
		}
	}
}
