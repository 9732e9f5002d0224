package oct

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestLatestVisibleMatchesModel: under random Put/Hide/reclaim
// sequences, latest-version resolution agrees with a simple reference
// model, and reclamation deletes exactly the hidden versions it is given.
func TestLatestVisibleMatchesModel(t *testing.T) {
	const (
		live = iota
		hidden
		gone
	)
	f := func(seed int64, opsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := int(opsRaw%60) + 1
		s := NewStore()
		// Model: per name, a slice of version states (index = version-1).
		model := map[string][]int{}
		names := []string{"a", "b", "c"}
		for i := 0; i < ops; i++ {
			name := names[rng.Intn(len(names))]
			op := rng.Intn(3)
			if op > 0 && len(model[name]) == 0 {
				continue
			}
			switch op {
			case 0: // Put
				if _, err := s.Put(name, TypeText, Text(fmt.Sprintf("v%d", i)), ""); err != nil {
					return false
				}
				model[name] = append(model[name], live)
			case 1: // Hide a random version; a reclaimed one is gone
				v := rng.Intn(len(model[name])) + 1
				err := s.Hide(Ref{Name: name, Version: v})
				if (err == nil) != (model[name][v-1] != gone) {
					return false
				}
				if err == nil {
					model[name][v-1] = hidden
				}
			default: // Reclaim a random version; only a hidden one goes
				v := rng.Intn(len(model[name])) + 1
				removed, err := s.ReclaimVersions([]Ref{{Name: name, Version: v}}, s.Clock())
				if err != nil || (len(removed) == 1) != (model[name][v-1] == hidden) {
					return false
				}
				if len(removed) == 1 {
					model[name][v-1] = gone
				}
			}
			// Check latest-visible resolution for every name.
			for _, n := range names {
				want := 0
				for v := len(model[n]); v >= 1; v-- {
					if model[n][v-1] == live {
						want = v
						break
					}
				}
				obj, err := s.Get(Ref{Name: n})
				if want == 0 {
					if err == nil {
						return false
					}
					continue
				}
				if err != nil || obj.Version != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestBytesAccountingInvariant: TotalBytes always equals the sum of live
// version sizes under random Put and Hide+ReclaimVersions.
func TestBytesAccountingInvariant(t *testing.T) {
	f := func(seed int64, opsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := int(opsRaw%40) + 1
		s := NewStore()
		live := map[Ref]int{}
		for i := 0; i < ops; i++ {
			if rng.Intn(3) != 0 || len(live) == 0 {
				size := rng.Intn(50) + 1
				payload := Text(make([]byte, size))
				obj, err := s.Put("obj", TypeText, payload, "")
				if err != nil {
					return false
				}
				live[Ref{Name: "obj", Version: obj.Version}] = size
			} else {
				for ref := range live {
					if s.Hide(ref) != nil {
						return false
					}
					if removed, err := s.ReclaimVersions([]Ref{ref}, s.Clock()); err != nil || len(removed) != 1 {
						return false
					}
					delete(live, ref)
					break
				}
			}
			sum := int64(0)
			for _, sz := range live {
				sum += int64(sz)
			}
			if s.TotalBytes() != sum || s.ObjectCount() != len(live) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
