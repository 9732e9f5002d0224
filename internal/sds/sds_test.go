package sds

import (
	"testing"

	"papyrus/internal/oct"
	"papyrus/internal/wal"
)

func seed(t *testing.T, store *oct.Store, name, payload string) *oct.Object {
	t.Helper()
	obj, err := store.Put(name, oct.TypeText, oct.Text(payload), "seed")
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

func TestRegistrationGatesAccess(t *testing.T) {
	store := oct.NewStore()
	s := New("A", store)
	obj := seed(t, store, "cell", "v1")
	if _, err := s.Contribute(1, "cell", obj); err == nil {
		t.Fatal("unregistered contribute accepted")
	}
	s.Register(1)
	if !s.Registered(1) || s.Registered(2) {
		t.Error("registration state wrong")
	}
	if _, err := s.Contribute(1, "cell", obj); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Retrieve(2, "cell", 0, "copy", false, nil); err == nil {
		t.Fatal("unregistered retrieve accepted")
	}
	s.Register(2)
	if _, err := s.Retrieve(2, "cell", 0, "copy", false, nil); err != nil {
		t.Fatal(err)
	}
	s.Unregister(1)
	if _, err := s.Contribute(1, "cell", obj); err == nil {
		t.Error("unregistered (after leave) contribute accepted")
	}
	if got := s.Threads(); len(got) != 1 || got[0] != 2 {
		t.Errorf("Threads = %v", got)
	}
}

// TestContributeSyncsBeforeNotify: under strict durability Contribute
// commits the write-ahead log before any watcher fires, so a notified
// thread never learns of a version a crash could still take back; a
// Retrieve's copy is on disk when it returns.
func TestContributeSyncsBeforeNotify(t *testing.T) {
	l, err := wal.Open(wal.Options{Dir: t.TempDir(), SegmentBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	store := oct.NewStore()
	store.AttachWAL(l)
	s := New("A", store)
	s.Register(1)
	s.Register(2)
	fired := 0
	if err := s.Watch(2, "cell", func(string, string, oct.Ref) {
		fired++
		if sy, ap := l.SyncedBytes(), l.AppendedBytes(); sy != ap {
			t.Errorf("watcher fired with SyncedBytes() = %d, AppendedBytes() = %d", sy, ap)
		}
	}); err != nil {
		t.Fatal(err)
	}
	obj := seed(t, store, "cell", "v1")
	fsyncs := l.Fsyncs()
	if _, err := s.Contribute(1, "cell", obj); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("watcher fired %d times, want 1", fired)
	}
	// The seed's direct Put rode the same commit.
	if d := l.Fsyncs() - fsyncs; d != 1 {
		t.Errorf("Contribute cost %d fsyncs, want 1", d)
	}
	if _, err := s.Retrieve(2, "cell", 0, "copy", false, nil); err != nil {
		t.Fatal(err)
	}
	if sy, ap := l.SyncedBytes(), l.AppendedBytes(); sy != ap {
		t.Errorf("Retrieve returned with SyncedBytes() = %d, AppendedBytes() = %d", sy, ap)
	}
}

func TestVersionsAccumulate(t *testing.T) {
	store := oct.NewStore()
	s := New("A", store)
	s.Register(1)
	o1 := seed(t, store, "c", "v1")
	o2 := seed(t, store, "c", "v2")
	s.Contribute(1, "c", o1)
	s.Contribute(1, "c", o2)
	refs := s.Versions("c")
	if len(refs) != 2 {
		t.Fatalf("versions %v", refs)
	}
	// Objects in an SDS never get updated, only added (§3.3.4.2): the two
	// refs are distinct versions under the space namespace.
	if refs[0] == refs[1] || refs[0].Name != "sds/A/c" {
		t.Errorf("refs %v", refs)
	}
	// Retrieve explicit and latest versions.
	got, err := s.Retrieve(1, "c", 1, "old.copy", false, nil)
	if err != nil {
		t.Fatal(err)
	}
	obj, _ := store.Get(got)
	if string(obj.Data.(oct.Text)) != "v1" {
		t.Errorf("explicit version payload %q", obj.Data)
	}
	got, _ = s.Retrieve(1, "c", 0, "new.copy", false, nil)
	obj, _ = store.Get(got)
	if string(obj.Data.(oct.Text)) != "v2" {
		t.Errorf("latest payload %q", obj.Data)
	}
	if _, err := s.Retrieve(1, "c", 9, "x", false, nil); err == nil {
		t.Error("bad version accepted")
	}
	if _, err := s.Retrieve(1, "ghost", 0, "x", false, nil); err == nil {
		t.Error("missing object accepted")
	}
}

func TestNotificationsAndPredicates(t *testing.T) {
	store := oct.NewStore()
	s := New("A", store)
	s.Register(1)
	s.Register(2)
	o1 := seed(t, store, "c", "aaaa")
	s.Contribute(1, "c", o1)

	var fired []string
	notify := func(space, object string, ref oct.Ref) {
		fired = append(fired, object)
	}
	onlySmaller := func(prev, next *oct.Object) bool {
		return prev == nil || next.Data.Size() < prev.Data.Size()
	}
	if _, err := s.Retrieve(2, "c", 0, "copy", true, notify, onlySmaller); err != nil {
		t.Fatal(err)
	}
	// Bigger contribution: filtered out.
	big := seed(t, store, "c", "aaaaaaaa")
	s.Contribute(1, "c", big)
	if len(fired) != 0 {
		t.Fatalf("predicate failed to filter: %v", fired)
	}
	// Smaller contribution: notification fires.
	small := seed(t, store, "c", "aa")
	s.Contribute(1, "c", small)
	if len(fired) != 1 || fired[0] != "c" {
		t.Fatalf("notification missing: %v", fired)
	}
	// DropWatches silences the thread.
	s.DropWatches(2, "c")
	s.Contribute(1, "c", seed(t, store, "c", "a"))
	if len(fired) != 1 {
		t.Fatalf("watch not dropped: %v", fired)
	}
}

func TestObjectsListing(t *testing.T) {
	store := oct.NewStore()
	s := New("Z", store)
	s.Register(1)
	s.Contribute(1, "beta", seed(t, store, "b", "x"))
	s.Contribute(1, "alpha", seed(t, store, "a", "y"))
	got := s.Objects()
	if len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Errorf("Objects = %v", got)
	}
	if s.ID() != "Z" {
		t.Errorf("ID = %q", s.ID())
	}
}
