package apps

import (
	"math"
	"testing"

	"ftsvm/internal/model"
	"ftsvm/internal/svm"
)

// runWorkload executes a workload on a simulated cluster and fails the
// test on any simulation or verification error.
func runWorkload(t *testing.T, mode svm.Mode, s Shape, w *Workload) *svm.Cluster {
	t.Helper()
	cfg := model.Default()
	cfg.Nodes = s.Nodes
	cfg.ThreadsPerNode = s.ThreadsPerNode
	cfg.PageSize = s.PageSize
	cl, err := svm.New(svm.Options{
		Config:     cfg,
		Mode:       mode,
		Pages:      w.Pages,
		Locks:      w.Locks,
		HomeAssign: w.HomeAssign,
		Body:       w.Body,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Verify(w.Err); err != nil {
		t.Fatal(err)
	}
	return cl
}

func testShape() Shape { return Shape{Nodes: 4, ThreadsPerNode: 1, PageSize: 4096} }

func TestFFT1DKernel(t *testing.T) {
	// DFT of a pure exponential e^{2*pi*i*p*j/m} has a single spike at p.
	const m = 16
	const p = 5
	buf := make([]float64, 2*m)
	for j := 0; j < m; j++ {
		ang := 2 * math.Pi * p * float64(j) / m
		buf[2*j], buf[2*j+1] = math.Cos(ang), math.Sin(ang)
	}
	fft1d(buf, m)
	for k := 0; k < m; k++ {
		want := 0.0
		if k == p {
			want = m
		}
		if math.Abs(buf[2*k]-want) > 1e-9 || math.Abs(buf[2*k+1]) > 1e-9 {
			t.Fatalf("bin %d = (%g, %g), want (%g, 0)", k, buf[2*k], buf[2*k+1], want)
		}
	}
}

func TestFFTWorkload(t *testing.T) {
	for _, mode := range []svm.Mode{svm.ModeBase, svm.ModeFT} {
		t.Run(mode.String(), func(t *testing.T) {
			runWorkload(t, mode, testShape(), FFT(testShape(), 1024))
		})
	}
}

func TestFFTWorkloadSMP(t *testing.T) {
	s := Shape{Nodes: 4, ThreadsPerNode: 2, PageSize: 4096}
	runWorkload(t, svm.ModeFT, s, FFT(s, 1024))
}

func TestLUKernels(t *testing.T) {
	// Factor a small block with lu0 and verify L*U reconstructs it.
	const b = 8
	orig := make([]float64, b*b)
	for i := 0; i < b; i++ {
		for j := 0; j < b; j++ {
			v := 0.3 * math.Sin(float64(5*i+j))
			if i == j {
				v += b + 2
			}
			orig[i*b+j] = v
		}
	}
	a := append([]float64(nil), orig...)
	lu0(a, b)
	for i := 0; i < b; i++ {
		for j := 0; j < b; j++ {
			sum := 0.0
			kmax := min(i, j)
			for k := 0; k < kmax; k++ {
				sum += a[i*b+k] * a[k*b+j]
			}
			if i <= j {
				sum += a[i*b+j]
			} else {
				sum += a[i*b+j] * a[j*b+j]
			}
			if math.Abs(sum-orig[i*b+j]) > 1e-9 {
				t.Fatalf("L*U[%d][%d] = %g, want %g", i, j, sum, orig[i*b+j])
			}
		}
	}
}

func TestLUWorkload(t *testing.T) {
	for _, mode := range []svm.Mode{svm.ModeBase, svm.ModeFT} {
		t.Run(mode.String(), func(t *testing.T) {
			runWorkload(t, mode, testShape(), LU(testShape(), 64, 8))
		})
	}
}

func TestLUWorkloadSMP(t *testing.T) {
	s := Shape{Nodes: 4, ThreadsPerNode: 2, PageSize: 4096}
	runWorkload(t, svm.ModeFT, s, LU(s, 64, 8))
}

func TestWaterNsqWorkload(t *testing.T) {
	for _, mode := range []svm.Mode{svm.ModeBase, svm.ModeFT} {
		t.Run(mode.String(), func(t *testing.T) {
			runWorkload(t, mode, testShape(), WaterNsq(testShape(), 64, 2))
		})
	}
}

func TestWaterNsqWorkloadSMP(t *testing.T) {
	s := Shape{Nodes: 4, ThreadsPerNode: 2, PageSize: 4096}
	runWorkload(t, svm.ModeFT, s, WaterNsq(s, 64, 2))
}

func TestWaterSpWorkload(t *testing.T) {
	for _, mode := range []svm.Mode{svm.ModeBase, svm.ModeFT} {
		t.Run(mode.String(), func(t *testing.T) {
			runWorkload(t, mode, testShape(), WaterSp(testShape(), 64, 2))
		})
	}
}

func TestWaterSpWorkloadSMP(t *testing.T) {
	s := Shape{Nodes: 4, ThreadsPerNode: 2, PageSize: 4096}
	runWorkload(t, svm.ModeFT, s, WaterSp(s, 64, 2))
}

func TestRadixWorkload(t *testing.T) {
	for _, mode := range []svm.Mode{svm.ModeBase, svm.ModeFT} {
		t.Run(mode.String(), func(t *testing.T) {
			runWorkload(t, mode, testShape(), Radix(testShape(), 4096))
		})
	}
}

func TestRadixWorkloadSMP(t *testing.T) {
	s := Shape{Nodes: 4, ThreadsPerNode: 2, PageSize: 4096}
	runWorkload(t, svm.ModeFT, s, Radix(s, 4096))
}

func TestVolrendWorkload(t *testing.T) {
	for _, mode := range []svm.Mode{svm.ModeBase, svm.ModeFT} {
		t.Run(mode.String(), func(t *testing.T) {
			runWorkload(t, mode, testShape(), Volrend(testShape(), 16, 32))
		})
	}
}

func TestVolrendWorkloadSMP(t *testing.T) {
	s := Shape{Nodes: 4, ThreadsPerNode: 2, PageSize: 4096}
	runWorkload(t, svm.ModeFT, s, Volrend(s, 16, 32))
}

// TestWaterNsqPairForceAntisymmetric is the Newton's-third-law property of
// the force kernel.
func TestWaterNsqPairForceAntisymmetric(t *testing.T) {
	pos := []float64{0, 0, 0, 1, 2, 3}
	fx, fy, fz := pairForce(pos, 0, 1)
	gx, gy, gz := pairForce(pos, 1, 0)
	if fx != -gx || fy != -gy || fz != -gz {
		t.Fatalf("force not antisymmetric: (%g,%g,%g) vs (%g,%g,%g)", fx, fy, fz, gx, gy, gz)
	}
}

func TestKVStoreWorkload(t *testing.T) {
	for _, mode := range []svm.Mode{svm.ModeBase, svm.ModeFT} {
		t.Run(mode.String(), func(t *testing.T) {
			runWorkload(t, mode, testShape(), KVStore(testShape(), 16, 32, 50))
		})
	}
}

func TestKVStoreWorkloadSMP(t *testing.T) {
	s := Shape{Nodes: 4, ThreadsPerNode: 2, PageSize: 4096}
	runWorkload(t, svm.ModeFT, s, KVStore(s, 16, 32, 30))
}

func TestOceanWorkload(t *testing.T) {
	for _, mode := range []svm.Mode{svm.ModeBase, svm.ModeFT} {
		t.Run(mode.String(), func(t *testing.T) {
			runWorkload(t, mode, testShape(), Ocean(testShape(), 64, 4))
		})
	}
}

func TestOceanWorkloadSMP(t *testing.T) {
	s := Shape{Nodes: 4, ThreadsPerNode: 2, PageSize: 4096}
	runWorkload(t, svm.ModeFT, s, Ocean(s, 64, 4))
}

// TestOceanConverges: with enough sweeps the interior approaches the
// harmonic solution (top-edge heat diffusing down), so a probe point near
// the hot edge must end up strictly between the two boundary values.
func TestOceanConverges(t *testing.T) {
	s := testShape()
	w := Ocean(s, 32, 40)
	cl := runWorkload(t, svm.ModeFT, s, w)
	probe := cl.PeekU64((1*32 + 16) * 8) // row 1, column 16
	v := math.Float64frombits(probe)
	if !(v > 10 && v < 100) {
		t.Fatalf("probe value %g, want within (10, 100)", v)
	}
}
