package apps

import (
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

// waterMolBytes is the shared-record stride of one water molecule.
// SPLASH-2 water keeps, per molecule, positions/velocities/forces plus
// higher-order derivative vectors (~18 doubles); the record stride
// determines how many molecules share a page and therefore how well
// per-owner page homing resolves.
const waterMolBytes = 18 * 8

// waterMolDoubles is the full record width in doubles.
const waterMolDoubles = waterMolBytes / 8

// waterDt is the integration time step.
const waterDt = 1e-3

// waterMols is the molecule model both Water ports share: n molecules in
// double-buffered position and velocity record arrays, a shared force
// array, one accumulation region per thread (private by convention, but
// in shared memory and homed at its thread, so it is replicated and
// recoverable, like SPLASH's per-process arrays) and a global energy
// sum guarded by energyLock.
type waterMols struct {
	n                           int
	posA, posB, velA, velB, frc int
	acc                         []int // per-thread accumulation regions
	energy, energyLock          int
}

// newWaterMols allocates the model's shared arrays from l and homes each
// thread's accumulation region at the thread's node. The ports home the
// record arrays themselves (home).
func newWaterMols(l *layout, s Shape, n, energyLock int) *waterMols {
	m := &waterMols{n: n, energyLock: energyLock}
	for _, a := range []*int{&m.posA, &m.posB, &m.velA, &m.velB, &m.frc} {
		*a = l.alloc(n * waterMolBytes)
	}
	m.acc = make([]int, s.Threads())
	for tid := range m.acc {
		m.acc[tid] = l.alloc(n * waterMolBytes)
	}
	m.energy = l.alloc(8)
	for tid, base := range m.acc {
		l.home(base, base+n*waterMolBytes, s.NodeOfThread(tid))
	}
	return m
}

// home places molecules [lo,hi) of the five record arrays on node.
func (m *waterMols) home(l *layout, lo, hi, node int) {
	for _, base := range []int{m.posA, m.posB, m.velA, m.velB, m.frc} {
		l.home(base+lo*waterMolBytes, base+hi*waterMolBytes, node)
	}
}

// srcPos is the position array step reads; step writes the other one,
// srcPos(step+1). srcVel is the same for velocities.
func (m *waterMols) srcPos(step int) int {
	if step%2 == 0 {
		return m.posA
	}
	return m.posB
}

func (m *waterMols) srcVel(step int) int {
	if step%2 == 0 {
		return m.velA
	}
	return m.velB
}

// start writes the initial positions of molecules [lo,hi), the first
// 3*(hi-lo) doubles of buf, and zero velocities; it leaves them zeroed.
func (m *waterMols) start(t *svm.Thread, lo, hi int, buf []float64) {
	vs := buf[:3*(hi-lo)]
	writeMols(t, m.posA, lo, hi, vs)
	clear(vs)
	writeMols(t, m.velA, lo, hi, vs)
}

// clearAcc zeroes thread tid's whole accumulation region.
func (m *waterMols) clearAcc(t *svm.Thread, tid int) {
	writeMols(t, m.acc[tid], 0, m.n, make([]float64, 3*m.n))
}

// integrate is the predictor-corrector step for molecules [lo,hi): it
// reads and rewrites their full records (positions, velocities, and
// their derivative vectors) into the alternate buffers — the bulk of
// water's home-page diff volume — then folds kinetic energy into the
// global sum under the energy lock, exactly once per stage. frc is host
// scratch for the molecules' forces.
func (m *waterMols) integrate(t *svm.Thread, st *waterState, stage, step, lo, hi int, frc []float64) {
	own := hi - lo
	D := waterMolDoubles
	posR := make([]float64, D*own)
	velR := make([]float64, D*own)
	readMolsFull(t, m.srcPos(step), lo, hi, posR)
	readMolsFull(t, m.srcVel(step), lo, hi, velR)
	readMols(t, m.frc, lo, hi, frc[:3*own])
	kin := 0.0
	for i := 0; i < own; i++ {
		for k := 0; k < 3; k++ {
			velR[i*D+k] += frc[3*i+k] * waterDt
			posR[i*D+k] += velR[i*D+k] * waterDt
			kin += velR[i*D+k] * velR[i*D+k]
		}
		// Higher-order derivative updates (deterministic damping toward
		// the base vectors, as the corrector would).
		for j := 3; j < D; j++ {
			posR[i*D+j] = 0.9*posR[i*D+j] + 0.1*posR[i*D+j%3]
			velR[i*D+j] = 0.9*velR[i*D+j] + 0.1*velR[i*D+j%3]
		}
	}
	t.Compute(int64(own) * int64(4*D) * costFlop)
	writeMolsFull(t, m.srcPos(step+1), lo, hi, posR)
	writeMolsFull(t, m.srcVel(step+1), lo, hi, velR)
	if st.EnergyStage != stage {
		t.Acquire(m.energyLock)
		e := t.ReadF64(m.energy)
		t.WriteF64(m.energy, e+kin)
		st.EnergyStage = stage
		t.Release(m.energyLock)
	}
}

// netForce reads the whole force array into buf (3n doubles) and returns
// the magnitude of its sum, which momentum conservation keeps near zero.
func (m *waterMols) netForce(t *svm.Thread, buf []float64) float64 {
	readMols(t, m.frc, 0, m.n, buf)
	var sx, sy, sz float64
	for i := 0; i < m.n; i++ {
		sx += buf[3*i]
		sy += buf[3*i+1]
		sz += buf[3*i+2]
	}
	return math.Abs(sx) + math.Abs(sy) + math.Abs(sz)
}

// readMols gathers the 3-vector heads of molecules [lo,hi) from a strided
// record array into dst (3 doubles per molecule).
func readMols(t *svm.Thread, base, lo, hi int, dst []float64) {
	for m := lo; m < hi; m++ {
		t.ReadF64s(base+m*waterMolBytes, dst[3*(m-lo):3*(m-lo)+3])
	}
}

// writeMols scatters 3-vectors back into the strided record array.
func writeMols(t *svm.Thread, base, lo, hi int, src []float64) {
	for m := lo; m < hi; m++ {
		t.WriteF64s(base+m*waterMolBytes, src[3*(m-lo):3*(m-lo)+3])
	}
}

// readMolsFull gathers whole records (positions plus derivative vectors,
// 18 doubles each) — the predictor-corrector integration reads and
// rewrites all of them, which is what makes water's home-page diff volume
// large in the paper.
func readMolsFull(t *svm.Thread, base, lo, hi int, dst []float64) {
	for m := lo; m < hi; m++ {
		t.ReadF64s(base+m*waterMolBytes, dst[waterMolDoubles*(m-lo):waterMolDoubles*(m-lo+1)])
	}
}

// writeMolsFull scatters whole records back.
func writeMolsFull(t *svm.Thread, base, lo, hi int, src []float64) {
	for m := lo; m < hi; m++ {
		t.WriteF64s(base+m*waterMolBytes, src[waterMolDoubles*(m-lo):waterMolDoubles*(m-lo+1)])
	}
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
