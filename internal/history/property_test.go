package history

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"papyrus/internal/oct"
)

// randomStream builds a random branching stream from a seed.
func randomStream(seed int64, n int) (*Stream, []*Record) {
	rng := rand.New(rand.NewSource(seed))
	s := NewStream()
	var recs []*Record
	for i := 0; i < n; i++ {
		var parent *Record
		if len(recs) > 0 && rng.Intn(10) != 0 {
			parent = recs[rng.Intn(len(recs))]
		}
		r := &Record{
			TaskName: "t",
			Time:     int64(i),
			Inputs:   []oct.Ref{{Name: "in", Version: rng.Intn(3) + 1}},
			Outputs:  []oct.Ref{{Name: "o", Version: i + 1}},
		}
		s.Append(r, parent)
		if rng.Intn(4) == 0 {
			s.CacheState(r)
		}
		recs = append(recs, r)
	}
	return s, recs
}

// TestSaveLoadPreservesThreadStates: for random branching streams, every
// record's thread state is identical after a persistence round trip.
func TestSaveLoadPreservesThreadStates(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%20) + 1
		s, recs := randomStream(seed, n)
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			return false
		}
		loaded, err := Load(&buf)
		if err != nil {
			return false
		}
		for _, r := range recs {
			lr, ok := loaded.ByID(r.ID)
			if !ok {
				return false
			}
			a, _ := s.ThreadState(r)
			b, _ := loaded.ThreadState(lr)
			if len(a) != len(b) {
				return false
			}
			for ref := range a {
				if !b[ref] {
					return false
				}
			}
		}
		return len(loaded.Frontier()) == len(s.Frontier())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestCachingNeverChangesState: caching any record leaves every thread
// state unchanged (the §5.3 optimization is semantics-preserving).
func TestCachingNeverChangesState(t *testing.T) {
	f := func(seed int64, nRaw, cacheRaw uint8) bool {
		n := int(nRaw%15) + 2
		s, recs := randomStream(seed, n)
		// Drop all caches, record reference states.
		for _, r := range recs {
			r.cachedState = nil
		}
		want := make([]map[oct.Ref]bool, len(recs))
		for i, r := range recs {
			want[i], _ = s.ThreadState(r)
		}
		// Cache one arbitrary record and re-check everything.
		s.CacheState(recs[int(cacheRaw)%len(recs)])
		for i, r := range recs {
			got, _ := s.ThreadState(r)
			if len(got) != len(want[i]) {
				return false
			}
			for ref := range want[i] {
				if !got[ref] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestEraseRemovesExactlyDescendants.
func TestEraseRemovesExactlyDescendants(t *testing.T) {
	f := func(seed int64, nRaw, pickRaw uint8) bool {
		n := int(nRaw%15) + 2
		s, recs := randomStream(seed, n)
		victim := recs[int(pickRaw)%len(recs)]
		// Expected doomed set: victim + descendants.
		doomed := map[*Record]bool{}
		var mark func(r *Record)
		mark = func(r *Record) {
			if doomed[r] {
				return
			}
			doomed[r] = true
			for _, c := range r.Children() {
				mark(c)
			}
		}
		mark(victim)
		removed := s.Erase(victim)
		if len(removed) != len(doomed) {
			return false
		}
		for _, r := range s.Records() {
			if doomed[r] {
				return false // survived
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
