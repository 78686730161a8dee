//go:build race

package harness

// raceEnabled reports a -race build. Each chaos cell is one
// single-goroutine simulation, so the race detector finds nothing in it
// that one scenario does not already run.
const raceEnabled = true
