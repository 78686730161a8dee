//go:build !race

package mem

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
