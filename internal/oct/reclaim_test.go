package oct

import (
	"fmt"
	"testing"
)

// TestInvisibleSliceBudgetResume: budgeted slices resumed from the
// returned cursor cover exactly the invisible set in one lap of the
// stripes, never returning a visible or too-recent version.
func TestInvisibleSliceBudgetResume(t *testing.T) {
	s := NewStore()
	hidden := map[Ref]bool{}
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("/rc/n%02d", i)
		for v := 0; v < 3; v++ {
			if _, err := s.Put(name, TypeText, Text("payload"), "t"); err != nil {
				t.Fatal(err)
			}
		}
		for v := 1; v <= 2; v++ {
			ref := Ref{Name: name, Version: v}
			if err := s.Hide(ref); err != nil {
				t.Fatal(err)
			}
			hidden[ref] = true
		}
	}
	cutoff := s.Clock()
	// Hidden after the cutoff: too recent to be a candidate.
	if err := s.Hide(Ref{Name: "/rc/n00", Version: 3}); err != nil {
		t.Fatal(err)
	}

	all, next, scanned := s.InvisibleSlice(cutoff, 0, 0)
	if len(all) != len(hidden) {
		t.Fatalf("whole-store slice found %d refs, want %d", len(all), len(hidden))
	}
	if next != 0 {
		t.Fatalf("whole-store slice cursor = %d, want 0 (full wrap)", next)
	}
	if scanned < len(hidden) {
		t.Fatalf("whole-store slice scanned %d records, want >= %d", scanned, len(hidden))
	}

	got := map[Ref]bool{}
	cursor, calls := 0, 0
	for visited := 0; visited < DefaultStripes; calls++ {
		refs, n, _ := s.InvisibleSlice(cutoff, cursor, 5)
		for _, r := range refs {
			if !hidden[r] {
				t.Errorf("slice returned unexpected ref %v", r)
			}
			got[r] = true
		}
		step := n - cursor
		if step <= 0 {
			step += DefaultStripes
		}
		visited += step
		cursor = n
	}
	if len(got) != len(hidden) {
		t.Errorf("budgeted lap found %d refs over %d calls, want %d", len(got), calls, len(hidden))
	}
	if calls < 2 {
		t.Errorf("budget 5 finished in %d call(s) — the budget did not slice the scan", calls)
	}
}

// TestReclaimVersionsGuardsAndDurability: ReclaimVersions deletes only
// versions still invisible and past the cutoff under the stripe lock —
// visible and recently-touched candidates are skipped — decrements the
// live byte account but never the written account, and logs a reclaim
// record that recovery replays to the identical state.
func TestReclaimVersionsGuardsAndDurability(t *testing.T) {
	dir := t.TempDir()
	s, l := walStore(t, dir)
	for v := 0; v < 3; v++ {
		if _, err := s.Put("/rc/a", TypeText, Text(fmt.Sprintf("a-v%d", v)), "t"); err != nil {
			t.Fatal(err)
		}
	}
	for v := 0; v < 2; v++ {
		if _, err := s.Put("/rc/b", TypeText, Text(fmt.Sprintf("b-v%d", v)), "t"); err != nil {
			t.Fatal(err)
		}
	}
	for v := 1; v <= 2; v++ {
		if err := s.Hide(Ref{Name: "/rc/a", Version: v}); err != nil {
			t.Fatal(err)
		}
	}
	cutoff := s.Clock()
	// Hidden after the cutoff: its access stamp is newer, so the grace
	// re-check under the lock must skip it.
	if err := s.Hide(Ref{Name: "/rc/b", Version: 1}); err != nil {
		t.Fatal(err)
	}

	liveBefore, writtenBefore := s.TotalBytes(), s.TotalWrittenBytes()
	removed, err := s.ReclaimVersions([]Ref{
		{Name: "/rc/a", Version: 1},
		{Name: "/rc/a", Version: 2},
		{Name: "/rc/a", Version: 3}, // visible: skipped
		{Name: "/rc/b", Version: 1}, // too recent: skipped
		{Name: "/rc/b", Version: 9}, // nonexistent: skipped
	}, cutoff)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 2 || removed[0].Version != 1 || removed[1].Version != 2 {
		t.Fatalf("removed %v, want exactly /rc/a@1 and /rc/a@2", removed)
	}
	var freed int64
	for _, obj := range removed {
		freed += int64(obj.Data.Size())
	}
	if got := s.TotalBytes(); got != liveBefore-freed {
		t.Errorf("TotalBytes = %d, want %d", got, liveBefore-freed)
	}
	if got := s.TotalWrittenBytes(); got != writtenBefore {
		t.Errorf("TotalWrittenBytes = %d, want %d (must never decrease)", got, writtenBefore)
	}
	if _, err := s.Get(Ref{Name: "/rc/a", Version: 1}); err == nil {
		t.Error("reclaimed version /rc/a@1 still resolves")
	}
	if _, err := s.Get(Ref{Name: "/rc/a", Version: 3}); err != nil {
		t.Errorf("surviving version /rc/a@3 lost: %v", err)
	}
	if got := s.LatestVersion("/rc/a"); got != 3 {
		t.Errorf("LatestVersion(/rc/a) = %d, want 3 (numbers never reused)", got)
	}

	liveMap := s.VersionMapText()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, _, err := recoverStore(nil, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := recovered.VersionMapText(); got != liveMap {
		t.Errorf("recovered map differs:\n--- want ---\n%s--- got ---\n%s", liveMap, got)
	}
	if got := recovered.TotalBytes(); got != s.TotalBytes() {
		t.Errorf("recovered TotalBytes = %d, want %d", got, s.TotalBytes())
	}
}
