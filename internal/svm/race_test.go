//go:build race

package svm

// raceEnabled reports a -race build, where sync.Pool drops pooled items at
// random by design (the fault path's diff buffers among them), so a
// marginal allocation count means nothing.
const raceEnabled = true
