package oct

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// BenchmarkTxnCommitDisjoint is the striped commit hot path: every
// transaction writes a distinct name, so commits from concurrent
// sessions contend only on stripe-hash collisions. Allocations per commit feed the perfbench
// allocs/step ceilings that `scripts/ratchet.sh counts` holds
// (scripts/floors.txt, docs/PERFORMANCE.md).
func BenchmarkTxnCommitDisjoint(b *testing.B) {
	s := NewStore()
	var n atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			name := fmt.Sprintf("/bench/obj-%d", n.Add(1))
			txn := s.Begin()
			if _, err := txn.Put(name, TypeText, Text("payload"), "bench"); err != nil {
				b.Fatal(err)
			}
			if _, err := txn.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTxnCommitSameName serializes every commit on one stripe —
// the worst case for concurrent sessions that write the same name.
func BenchmarkTxnCommitSameName(b *testing.B) {
	s := NewStore()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			txn := s.Begin()
			if _, err := txn.Put("/bench/hot", TypeText, Text("payload"), "bench"); err != nil {
				b.Fatal(err)
			}
			if _, err := txn.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
