package proto

import (
	"fmt"
	"testing"
)

// BenchmarkRehome measures a full failure sweep — killing nodes in ring
// order until only two survive — across the tier node counts, with the
// item count scaled the way the micro workloads scale pages (16 items
// per node, block-distributed). The sweep is where the seed's per-hit
// nextAlive scan turns quadratic: each kill grows the dead gap behind
// the survivors, so every later reassignment's ring scan walks the whole
// gap. Variants:
//
//   - flat-ref: the seed's per-hit scan — O(items x N) per call once the
//     gap is large;
//   - flat: the once-per-call successor table — O(items + N) per call;
//   - hashed: the reverse-index walk — O(items-on-failed + log N) per
//     call (see BenchmarkRehomeByAffected for the items-on-failed
//     scaling at fixed N).
//
// Setup (clone or rebuild) runs outside the timer; the measured region
// is exactly the Rehome sequence.
func BenchmarkRehome(b *testing.B) {
	for _, nodes := range []int{8, 64, 256, 512} {
		items := 16 * nodes
		assign := blockAssign(items, nodes)
		b.Run(fmt.Sprintf("flat-ref/n=%d", nodes), func(b *testing.B) {
			base := NewHomeMap(items, nodes, assign)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				h := base.Clone()
				b.StartTimer()
				for f := 0; f < nodes-2; f++ {
					h.rehomeReference(f)
				}
			}
		})
		b.Run(fmt.Sprintf("flat/n=%d", nodes), func(b *testing.B) {
			base := NewHomeMap(items, nodes, assign)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				h := base.Clone()
				b.StartTimer()
				for f := 0; f < nodes-2; f++ {
					h.Rehome(f)
				}
			}
		})
		b.Run(fmt.Sprintf("hashed/n=%d", nodes), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d := NewHashedDir(items, nodes, 1, assign)
				b.StartTimer()
				for f := 0; f < nodes-2; f++ {
					d.Rehome(f)
				}
			}
		})
	}
}

// BenchmarkRehomeFirstFailure measures a single Rehome from a healthy
// cluster — the paper's single-failure model, and the case the golden
// file's dir/ kill rows run. From healthy membership the per-hit
// nextAlive scan terminates in one step, so flat-ref and flat are close
// here; the hashed walk visits only the victim's postings.
func BenchmarkRehomeFirstFailure(b *testing.B) {
	for _, nodes := range []int{8, 64, 256, 512} {
		items := 16 * nodes
		assign := blockAssign(items, nodes)
		victim := nodes / 2
		b.Run(fmt.Sprintf("flat/n=%d", nodes), func(b *testing.B) {
			base := NewHomeMap(items, nodes, assign)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				h := base.Clone()
				b.StartTimer()
				h.Rehome(victim)
			}
		})
		b.Run(fmt.Sprintf("hashed/n=%d", nodes), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d := NewHashedDir(items, nodes, 1, assign)
				b.StartTimer()
				d.Rehome(victim)
			}
		})
	}
}

// BenchmarkRehomeByAffected holds the cluster size fixed at 512 nodes
// and varies how many items the victim homes — the measured form of the
// O(items-on-failed) claim: hashed Rehome cost tracks the victim's
// posting count, not the total item count.
func BenchmarkRehomeByAffected(b *testing.B) {
	const nodes = 512
	const items = 8192
	for _, onVictim := range []int{16, 128, 1024} {
		// Pin onVictim items to the victim, the rest block-distributed
		// over the other nodes.
		victim := NodeID(nodes / 2)
		assign := func(i int) NodeID {
			if i < onVictim {
				return victim
			}
			n := i * (nodes - 1) / items
			if n >= victim {
				n++
			}
			return n
		}
		b.Run(fmt.Sprintf("hashed/on-victim=%d", onVictim), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d := NewHashedDir(items, nodes, 1, assign)
				b.StartTimer()
				d.Rehome(victim)
			}
		})
	}
}
