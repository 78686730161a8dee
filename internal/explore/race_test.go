//go:build race

package explore_test

// raceEnabled reports a -race build, where sync.Pool drops pooled items at
// random by design, so an allocation budget means nothing.
const raceEnabled = true
