package oct

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestPutAssignsSequentialVersions(t *testing.T) {
	s := NewStore()
	for want := 1; want <= 5; want++ {
		obj, err := s.Put("alu:logic:contents", TypeLogic, Text(fmt.Sprintf("v%d", want)), "tool")
		if err != nil {
			t.Fatal(err)
		}
		if obj.Version != want {
			t.Fatalf("version %d, want %d", obj.Version, want)
		}
	}
	if got := s.LatestVersion("alu:logic:contents"); got != 5 {
		t.Errorf("LatestVersion = %d, want 5", got)
	}
}

func TestSingleAssignmentOldVersionsUnchanged(t *testing.T) {
	s := NewStore()
	if _, err := s.Put("cell", TypeText, Text("first"), ""); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("cell", TypeText, Text("second"), ""); err != nil {
		t.Fatal(err)
	}
	v1, err := s.Get(Ref{Name: "cell", Version: 1})
	if err != nil {
		t.Fatal(err)
	}
	if string(v1.Data.(Text)) != "first" {
		t.Errorf("v1 payload %q, want \"first\"", v1.Data)
	}
	latest, err := s.Get(Ref{Name: "cell"})
	if err != nil {
		t.Fatal(err)
	}
	if latest.Version != 2 || string(latest.Data.(Text)) != "second" {
		t.Errorf("latest = v%d %q", latest.Version, latest.Data)
	}
}

func TestParseRef(t *testing.T) {
	cases := []struct {
		in      string
		name    string
		version int
		wantErr bool
	}{
		{"ALU.logic", "ALU.logic", 0, false},
		{"ALU.logic@1", "ALU.logic", 1, false},
		{"a:b:c@12", "a:b:c", 12, false},
		{"/user/chiueh/Multiplier", "/user/chiueh/Multiplier", 0, false},
		{"x@bad", "", 0, true},
		{"x@-1", "", 0, true},
	}
	for _, c := range cases {
		ref, err := ParseRef(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseRef(%q): expected error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseRef(%q): %v", c.in, err)
			continue
		}
		if ref.Name != c.name || ref.Version != c.version {
			t.Errorf("ParseRef(%q) = %+v", c.in, ref)
		}
	}
}

func TestRefStringRoundTrip(t *testing.T) {
	f := func(name string, version uint8) bool {
		if strings.ContainsRune(name, '@') || name == "" {
			return true // skip names the format reserves
		}
		ref := Ref{Name: name, Version: int(version)}
		back, err := ParseRef(ref.String())
		return err == nil && back == ref
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHideResolution(t *testing.T) {
	s := NewStore()
	s.Put("c", TypeText, Text("1"), "")
	s.Put("c", TypeText, Text("2"), "")
	if err := s.Hide(Ref{Name: "c", Version: 2}); err != nil {
		t.Fatal(err)
	}
	latest, err := s.Get(Ref{Name: "c"})
	if err != nil {
		t.Fatal(err)
	}
	if latest.Version != 1 {
		t.Errorf("latest visible = v%d, want v1", latest.Version)
	}
	// Explicit version still reachable while hidden, until reclaimed.
	if _, err := s.Get(Ref{Name: "c", Version: 2}); err != nil {
		t.Errorf("hidden version unreachable by explicit ref: %v", err)
	}
	// A bare ref hides the latest visible version.
	if err := s.Hide(Ref{Name: "c"}); err != nil {
		t.Fatal(err)
	}
	if vis, err := s.Visible(Ref{Name: "c", Version: 1}); err != nil || vis {
		t.Errorf("Visible(c@1) = %v, %v after hiding the latest, want false", vis, err)
	}
	if _, err := s.Get(Ref{Name: "c"}); err == nil {
		t.Error("latest resolved with every version hidden")
	}
}

// erase physically deletes versions the way the engine does: Hide, then
// ReclaimVersions at the current clock.
func erase(t testing.TB, s *Store, refs ...Ref) {
	t.Helper()
	for _, ref := range refs {
		if err := s.Hide(ref); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := s.ReclaimVersions(refs, s.Clock())
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != len(refs) {
		t.Fatalf("reclaimed %d of %d versions", len(removed), len(refs))
	}
}

func TestRemoveLeavesHole(t *testing.T) {
	s := NewStore()
	s.Put("c", TypeText, Text("one"), "")
	s.Put("c", TypeText, Text("two"), "")
	s.Put("c", TypeText, Text("three"), "")
	erase(t, s, Ref{Name: "c", Version: 2})
	if _, err := s.Get(Ref{Name: "c", Version: 2}); err == nil {
		t.Error("removed version still readable")
	}
	v3, err := s.Get(Ref{Name: "c", Version: 3})
	if err != nil || string(v3.Data.(Text)) != "three" {
		t.Errorf("v3 after removal: %v %v", v3, err)
	}
	// New writes continue the numbering after the hole.
	obj, _ := s.Put("c", TypeText, Text("four"), "")
	if obj.Version != 4 {
		t.Errorf("post-removal version = %d, want 4", obj.Version)
	}
	// Reclamation never deletes a visible version.
	if removed, err := s.ReclaimVersions([]Ref{{Name: "c", Version: 4}}, s.Clock()); err != nil || len(removed) != 0 {
		t.Errorf("reclaiming visible c@4 = %v, %v; want nothing removed", removed, err)
	}
}

func TestStorageAccounting(t *testing.T) {
	s := NewStore()
	s.Put("a", TypeText, Text(strings.Repeat("x", 100)), "")
	s.Put("b", TypeText, Text(strings.Repeat("y", 50)), "")
	if got := s.TotalBytes(); got != 150 {
		t.Errorf("TotalBytes = %d, want 150", got)
	}
	erase(t, s, Ref{Name: "a", Version: 1})
	if got := s.TotalBytes(); got != 50 {
		t.Errorf("TotalBytes after remove = %d, want 50", got)
	}
	if got := s.ObjectCount(); got != 1 {
		t.Errorf("ObjectCount = %d, want 1", got)
	}
}

func TestTxnCommitAtomic(t *testing.T) {
	s := NewStore()
	tx := s.Begin()
	if _, err := tx.Put("x", TypeText, Text("xv"), "step1"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Put("y", TypeText, Text("yv"), "step1"); err != nil {
		t.Fatal(err)
	}
	// Nothing visible before commit.
	if s.Exists("x") || s.Exists("y") {
		t.Fatal("staged writes visible before commit")
	}
	created, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if len(created) != 2 || created[0].Name != "x" || created[1].Name != "y" {
		t.Fatalf("created = %v", created)
	}
	if !s.Exists("x") || !s.Exists("y") {
		t.Fatal("committed writes not visible")
	}
	if _, err := tx.Commit(); err == nil {
		t.Error("double commit should fail")
	}
}

func TestTxnAbortDiscards(t *testing.T) {
	s := NewStore()
	tx := s.Begin()
	tx.Put("x", TypeText, Text("xv"), "")
	tx.Abort()
	if s.Exists("x") {
		t.Fatal("aborted write visible")
	}
	if _, err := tx.Put("y", TypeText, Text("yv"), ""); err == nil {
		t.Error("Put after Abort should fail")
	}
}

func TestConcurrentPutsUniqueVersions(t *testing.T) {
	s := NewStore()
	const workers = 8
	const per = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := s.Put("shared", TypeText, Text("v"), ""); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := s.LatestVersion("shared"); got != workers*per {
		t.Errorf("LatestVersion = %d, want %d", got, workers*per)
	}
	seen := map[int]bool{}
	for _, v := range s.Versions("shared") {
		if seen[v.Version] {
			t.Fatalf("duplicate version %d", v.Version)
		}
		seen[v.Version] = true
	}
}

func TestSnapshotRestore(t *testing.T) {
	s := NewStore()
	s.Put("a", TypeText, Text("payload-a"), "toolA")
	s.Put("a", TypeText, Text("payload-a2"), "toolA")
	s.Put("b", TypeStats, Text("stats"), "chipstats")
	s.Hide(Ref{Name: "a", Version: 2})

	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewStore()
	if err := restored.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if restored.LatestVersion("a") != 2 {
		t.Errorf("restored a versions = %d", restored.LatestVersion("a"))
	}
	latest, err := restored.Get(Ref{Name: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if latest.Version != 1 {
		t.Errorf("restored latest visible a = v%d, want v1 (v2 was hidden)", latest.Version)
	}
	obj, err := restored.Get(Ref{Name: "b"})
	if err != nil || string(obj.Data.(Text)) != "stats" || obj.Creator != "chipstats" {
		t.Errorf("restored b = %+v, err %v", obj, err)
	}
	if restored.TotalBytes() != s.TotalBytes() {
		t.Errorf("restored bytes %d, want %d", restored.TotalBytes(), s.TotalBytes())
	}
	// Restore into a non-empty store must fail.
	var buf2 bytes.Buffer
	s.Snapshot(&buf2)
	if err := restored.Restore(&buf2); err == nil {
		t.Error("Restore into non-empty store should fail")
	}
}

func TestSnapshotUnknownTypeFails(t *testing.T) {
	s := NewStore()
	s.Put("a", Type("mystery"), Text("x"), "")
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err == nil {
		t.Fatal("expected error for unregistered codec")
	}
}

func TestPutValidation(t *testing.T) {
	s := NewStore()
	if _, err := s.Put("", TypeText, Text("x"), ""); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := s.Put("x", TypeText, nil, ""); err == nil {
		t.Error("nil payload accepted")
	}
}

func TestGetMissing(t *testing.T) {
	s := NewStore()
	if _, err := s.Get(Ref{Name: "ghost"}); err == nil {
		t.Error("expected error for missing object")
	}
	s.Put("real", TypeText, Text("x"), "")
	if _, err := s.Get(Ref{Name: "real", Version: 9}); err == nil {
		t.Error("expected error for missing version")
	}
}

func TestNames(t *testing.T) {
	s := NewStore()
	s.Put("zeta", TypeText, Text("z"), "")
	s.Put("alpha", TypeText, Text("a"), "")
	got := s.Names()
	if len(got) != 2 || got[0] != "alpha" || got[1] != "zeta" {
		t.Errorf("Names = %v", got)
	}
	erase(t, s, Ref{Name: "alpha", Version: 1})
	got = s.Names()
	if len(got) != 1 || got[0] != "zeta" {
		t.Errorf("Names after remove = %v", got)
	}
}
