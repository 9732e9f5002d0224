package oct

import (
	"fmt"
	"sync"
	"testing"
)

// Unit tests at the index level: the slot/hole contract of mapIndex,
// exercised directly, plus the store's locking discipline around it.

func testObj(name string, version int, payload string) *Object {
	return &Object{Name: name, Version: version, Type: TypeText, Data: Text(payload), visible: true}
}

// TestIndexHoleContract: deletion leaves a hole — the chain keeps its
// length, Latest skips holes, and the next Append never reuses a slot.
func TestIndexHoleContract(t *testing.T) {
	// The subtest is named for the map version index it runs on.
	t.Run("map", func(t *testing.T) {
		ix := newMapIndex()
		for v := 1; v <= 3; v++ {
			obj := testObj("/a", 0, fmt.Sprintf("v%d", v))
			if got := ix.Append(obj); got != v {
				t.Fatalf("Append assigned v%d, want v%d", got, v)
			}
		}
		if got := ix.Delete("/a", 2); got == nil || got.Data != Text("v2") {
			t.Fatalf("Delete(2) = %v", got)
		}
		if ix.Delete("/a", 2) != nil {
			t.Error("double Delete returned an object")
		}
		if got := ix.ChainLen("/a"); got != 3 {
			t.Errorf("ChainLen after hole = %d, want 3", got)
		}
		if got := ix.Get("/a", 2); got != nil {
			t.Errorf("Get(hole) = %v", got)
		}
		if got := ix.Latest("/a"); got == nil || got.Version != 3 {
			t.Errorf("Latest = %v, want v3", got)
		}
		if got := ix.Len(); got != 2 {
			t.Errorf("Len = %d, want 2", got)
		}
		ix.Delete("/a", 3)
		if got := ix.Latest("/a"); got == nil || got.Version != 1 {
			t.Errorf("Latest over trailing hole = %v, want v1", got)
		}
		if got := ix.ChainLen("/a"); got != 3 {
			t.Errorf("ChainLen after trailing delete = %d, want 3", got)
		}
		if got := ix.Append(testObj("/a", 0, "v4")); got != 4 {
			t.Errorf("Append after holes assigned v%d, want v4 (slot reuse!)", got)
		}
	})
}

// TestIndexSparsePut: a Put at an explicit slot beyond the chain (the
// WAL-replay shape) extends the chain without materializing the gap.
func TestIndexSparsePut(t *testing.T) {
	// The subtest is named for the map version index it runs on.
	t.Run("map", func(t *testing.T) {
		ix := newMapIndex()
		ix.Put(testObj("/sparse", 5, "v5"))
		if got := ix.ChainLen("/sparse"); got != 5 {
			t.Errorf("ChainLen = %d, want 5", got)
		}
		if got := ix.Get("/sparse", 3); got != nil {
			t.Errorf("Get(gap) = %v", got)
		}
		if got := ix.Latest("/sparse"); got == nil || got.Version != 5 {
			t.Errorf("Latest = %v, want v5", got)
		}
		if got := ix.Len(); got != 1 {
			t.Errorf("Len = %d, want 1", got)
		}
		// Filling a gap slot (idempotent replay) must not disturb the chain.
		ix.Put(testObj("/sparse", 2, "v2"))
		if got := ix.ChainLen("/sparse"); got != 5 {
			t.Errorf("ChainLen after gap fill = %d, want 5", got)
		}
		if got := ix.Len(); got != 2 {
			t.Errorf("Len after gap fill = %d, want 2", got)
		}
	})
}

// TestIndexScanBounds: lo/hi clamping and the hi<=0 unbounded case.
func TestIndexScanBounds(t *testing.T) {
	// The subtest is named for the map version index it runs on.
	t.Run("map", func(t *testing.T) {
		ix := newMapIndex()
		for v := 1; v <= 6; v++ {
			ix.Append(testObj("/scan", 0, fmt.Sprintf("v%d", v)))
		}
		ix.Delete("/scan", 4)
		collect := func(lo, hi int) []int {
			var got []int
			ix.Scan("/scan", lo, hi, func(o *Object) bool {
				got = append(got, o.Version)
				return true
			})
			return got
		}
		for _, tc := range []struct {
			lo, hi int
			want   []int
		}{
			{1, 0, []int{1, 2, 3, 5, 6}},
			{-3, 0, []int{1, 2, 3, 5, 6}},
			{2, 5, []int{2, 3, 5}},
			{4, 4, nil},
			{6, 99, []int{6}},
			{7, 0, nil},
		} {
			got := collect(tc.lo, tc.hi)
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("Scan[%d,%d] = %v, want %v", tc.lo, tc.hi, got, tc.want)
			}
		}
		// Early termination stops the walk.
		calls := 0
		ix.Scan("/scan", 1, 0, func(*Object) bool { calls++; return false })
		if calls != 1 {
			t.Errorf("Scan kept walking after fn returned false: %d calls", calls)
		}
	})
}

// TestIndexStructuralStress pushes many names and versions through the
// index, punches holes through every chain, and verifies enumeration
// and chain lengths survive intact.
func TestIndexStructuralStress(t *testing.T) {
	// The subtest is named for the map version index it runs on.
	t.Run("map", func(t *testing.T) {
		ix := newMapIndex()
		const names = 40
		const versions = 60
		for v := 1; v <= versions; v++ {
			for n := 0; n < names; n++ {
				name := fmt.Sprintf("/stress/n%03d", n)
				if got := ix.Append(testObj(name, 0, "x")); got != v {
					t.Fatalf("%s: Append assigned v%d, want v%d", name, got, v)
				}
			}
		}
		// Punch holes through every third version of every name.
		for n := 0; n < names; n++ {
			name := fmt.Sprintf("/stress/n%03d", n)
			for v := 3; v <= versions; v += 3 {
				if ix.Delete(name, v) == nil {
					t.Fatalf("%s: Delete(%d) found nothing", name, v)
				}
			}
		}
		wantLive := names * (versions - versions/3)
		if got := ix.Len(); got != wantLive {
			t.Fatalf("Len = %d, want %d", got, wantLive)
		}
		seen := 0
		ix.Range(func(o *Object) bool {
			if o.Version%3 == 0 {
				t.Fatalf("Range surfaced deleted %s@%d", o.Name, o.Version)
			}
			seen++
			return true
		})
		if seen != wantLive {
			t.Fatalf("Range visited %d, want %d", seen, wantLive)
		}
		for n := 0; n < names; n++ {
			name := fmt.Sprintf("/stress/n%03d", n)
			if got := ix.ChainLen(name); got != versions {
				t.Fatalf("%s: ChainLen = %d, want %d", name, got, versions)
			}
		}
	})
}

// TestBackendConcurrentSmoke hammers one store from parallel goroutines
// under the stripe locks — overlapping and disjoint names, puts, reads,
// and transactions — and checks the single-assignment invariant held.
// Run under -race this is the locking-discipline proof for the index.
func TestBackendConcurrentSmoke(t *testing.T) {
	// The subtest is named for the map version index it runs on.
	t.Run("map", func(t *testing.T) {
		s := NewStore()
		const goroutines = 4
		const perG = 300
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				private := fmt.Sprintf("/smoke/own%d", g)
				for i := 0; i < perG; i++ {
					if _, err := s.Put("/smoke/shared", TypeText, Text("s"), "smoke"); err != nil {
						t.Error(err)
						return
					}
					txn := s.Begin()
					if _, err := txn.Put(private, TypeText, Text(fmt.Sprintf("p%d", i)), "smoke"); err != nil {
						t.Error(err)
						return
					}
					if _, err := txn.Commit(); err != nil {
						t.Error(err)
						return
					}
					_, _ = s.Get(Ref{Name: "/smoke/shared"})
					_ = s.Chain("/smoke/shared", 1, 0)
				}
			}()
		}
		wg.Wait()
		if got := s.LatestVersion("/smoke/shared"); got != goroutines*perG {
			t.Errorf("shared chain %d, want %d", got, goroutines*perG)
		}
		for g := 0; g < goroutines; g++ {
			name := fmt.Sprintf("/smoke/own%d", g)
			if got := s.LatestVersion(name); got != perG {
				t.Errorf("%s chain %d, want %d", name, got, perG)
			}
		}
	})
}
