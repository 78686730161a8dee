package obs

import "sort"

// Counter is one named monotonic count.
type Counter struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Snapshot is a point-in-time reading of a run's counters, in a fixed
// order (stable across runs, so snapshots of deterministic simulations
// compare bit-identically).
type Snapshot []Counter

// Map returns the snapshot as name -> value (JSON-friendly; Go
// marshals map keys sorted, so the encoding is deterministic too).
func (s Snapshot) Map() map[string]int64 {
	m := make(map[string]int64, len(s))
	for _, c := range s {
		m[c.Name] = c.Value
	}
	return m
}

// Get returns the value of the named counter.
func (s Snapshot) Get(name string) (int64, bool) {
	for _, c := range s {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}

// Sorted returns a name-sorted copy (for human-readable listings).
func (s Snapshot) Sorted() Snapshot {
	out := append(Snapshot(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
