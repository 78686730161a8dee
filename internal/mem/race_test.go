//go:build race

package mem

// raceEnabled reports a -race build, where sync.Pool drops pooled items at
// random by design, so a pooled cycle's allocation count means nothing.
const raceEnabled = true
