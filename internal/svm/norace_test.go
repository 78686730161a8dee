//go:build !race

package svm

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
