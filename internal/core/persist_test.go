package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"papyrus/internal/cad/logic"
	"papyrus/internal/memo"
	"papyrus/internal/oct"
)

func TestSessionSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := newSystem(t, Config{Nodes: 2})
	if _, err := s.ImportObject("/spec", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(4))); err != nil {
		t.Fatal(err)
	}
	th := s.NewThread("Shifter", "chiueh")
	rec, err := s.Invoke(th, "create-logic-description",
		map[string]string{"Spec": "/spec"},
		map[string]string{"Outlogic": "sh.logic"})
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Annotate(rec, "session checkpoint"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Invoke(th, "PLA-generation",
		map[string]string{"Inlogic": "sh.logic"},
		map[string]string{"Outcell": "sh.pla"}); err != nil {
		t.Fatal(err)
	}

	if err := s.SaveSession(dir); err != nil {
		t.Fatal(err)
	}

	restored, _, err := Recover(Config{Nodes: 2}, dir)
	if err != nil {
		t.Fatal(err)
	}
	threads := restored.Activity.Threads()
	if len(threads) != 1 {
		t.Fatalf("threads %d, want 1", len(threads))
	}
	rt := threads[0]
	if rt.Name() != "Shifter" || rt.Owner() != "chiueh" {
		t.Errorf("thread identity %q/%q", rt.Name(), rt.Owner())
	}
	if rt.Stream().Len() != th.Stream().Len() {
		t.Errorf("stream len %d, want %d", rt.Stream().Len(), th.Stream().Len())
	}
	// The cursor survived by record ID.
	if rt.Cursor() == nil || rt.Cursor().TaskName != "PLA-generation" {
		t.Errorf("cursor %+v", rt.Cursor())
	}
	// Annotations survived.
	if _, ok := rt.FindAnnotation("session checkpoint"); !ok {
		t.Error("annotation lost")
	}
	// The data scope resolves against the restored store.
	ref, err := rt.ResolveInput("sh.pla")
	if err != nil {
		t.Fatal(err)
	}
	obj, err := restored.Store.Get(ref)
	if err != nil || obj.Type != oct.TypeLayout {
		t.Errorf("restored object %v %v", obj, err)
	}
	// Inference was reconstructed from the persisted history.
	if typ, ok := restored.Inference.TypeOf(ref); !ok || typ != oct.TypeLayout {
		t.Errorf("restored inference type %s ok=%v", typ, ok)
	}
	// Continue working in the restored session.
	if _, err := restored.Invoke(rt, "place-pads",
		map[string]string{"Incell": "sh.pla"},
		map[string]string{"Outcell": "sh.padded"}); err != nil {
		t.Fatalf("continuing restored session: %v", err)
	}
}

func TestLoadSessionMissingDir(t *testing.T) {
	if _, _, err := Recover(Config{}, t.TempDir()+"/nope"); err == nil {
		t.Error("missing session dir accepted")
	}
}

func TestLoadSessionCorruptThreads(t *testing.T) {
	dir := t.TempDir()
	s := newSystem(t, Config{Nodes: 1})
	s.NewThread("t", "u")
	if err := s.SaveSession(dir); err != nil {
		t.Fatal(err)
	}
	// Corrupt the thread's control stream inside the snapshot.
	path := filepath.Join(dir, snapshotFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap sessionSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	snap.Threads[0].Stream = json.RawMessage(`"not a stream"`)
	if data, err = json.Marshal(&snap); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Recover(Config{Nodes: 1}, dir); err == nil {
		t.Error("corrupt thread stream accepted")
	}
}

// writeSnapshotFile replaces dir's snapshot with snap, encoded as
// SaveSession would.
func writeSnapshotFile(t *testing.T, dir string, snap sessionSnapshot) {
	t.Helper()
	data, err := json.Marshal(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverRejectsMalformedSnapshot: the one snapshot decoder fails
// closed on every structural fault, never adopting half a snapshot.
func TestRecoverRejectsMalformedSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := newSystem(t, Config{Nodes: 1})
	durableWorkload(t, s)
	if err := s.SaveSession(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, want string
		mutate     func(*sessionSnapshot)
	}{
		{"two threads with one ID", "duplicate or invalid ID", func(sn *sessionSnapshot) {
			dup := sn.Threads[0]
			dup.Name = "twin"
			sn.Threads = append(sn.Threads, dup)
		}},
		{"thread ID 0", "duplicate or invalid ID", func(sn *sessionSnapshot) { sn.Threads[0].ID = 0 }},
		{"store not a snapshot", "decode snapshot", func(sn *sessionSnapshot) { sn.Store = json.RawMessage(`"x"`) }},
		{"cursor outside the stream", "cursor", func(sn *sessionSnapshot) { sn.Threads[0].CursorID = 9999 }},
		{"cyclic stream", "parent cycle", func(sn *sessionSnapshot) {
			sn.Threads[0].Stream = json.RawMessage(`{"next_id":2,"records":[{"id":1,"parent_ids":[1]}]}`)
			sn.Threads[0].CursorID = 0
		}},
	} {
		var snap sessionSnapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatal(err)
		}
		tc.mutate(&snap)
		bad := t.TempDir()
		writeSnapshotFile(t, bad, snap)
		if _, _, err := Recover(Config{Nodes: 1}, bad); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Recover error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Recover(Config{Nodes: 1}, dir); err == nil {
		t.Error("torn snapshot accepted")
	}
}

// TestRecoverRewarmsMemo: a snapshot recovered with a memo cache and no
// log comes back with the cache the saved system had, rebuilt from the
// restored history.
func TestRecoverRewarmsMemo(t *testing.T) {
	dir := t.TempDir()
	s := newSystem(t, Config{Nodes: 2, Memo: memo.NewCache()})
	durableWorkload(t, s)
	want := s.Memo.Len()
	if want == 0 {
		t.Fatal("workload left the memo cache empty")
	}
	if err := s.SaveSession(dir); err != nil {
		t.Fatal(err)
	}
	r, _, err := Recover(Config{Nodes: 2, Memo: memo.NewCache()}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Memo.Len(); got != want {
		t.Errorf("recovered memo holds %d entries, saved system %d", got, want)
	}
}

// FuzzSessionSnapshot: any bytes given as the snapshot file either fail
// Recover or recover to a System whose saved snapshot recovers and saves
// again byte-identically. Nothing may panic.
func FuzzSessionSnapshot(f *testing.F) {
	dir := f.TempDir()
	s, err := New(Config{Nodes: 1})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := s.ImportObject("/spec", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(3))); err != nil {
		f.Fatal(err)
	}
	th := s.NewThread("t", "u")
	rec, err := s.Invoke(th, "create-logic-description",
		map[string]string{"Spec": "/spec"}, map[string]string{"Outlogic": "l"})
	if err != nil {
		f.Fatal(err)
	}
	if err := th.MoveCursor(rec); err != nil {
		f.Fatal(err)
	}
	s.NewThread("empty", "u")
	if err := s.SaveSession(dir); err != nil {
		f.Fatal(err)
	}
	saved, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(saved)
	f.Add(saved[:len(saved)/2])
	f.Add([]byte(`{"generation":3,"store":{"clock":0,"objects":null},"threads":null}`))
	f.Add([]byte(`{"store":{"clock":1,"objects":null},"threads":[{"id":1,"name":"a","stream":{"next_id":1,"records":null}},{"id":1,"name":"b","stream":{"next_id":1,"records":null}}]}`))
	f.Add([]byte(`{"store":null,"threads":[{"id":2,"name":"a","cursor_id":1,"stream":{"next_id":3,"records":[{"id":1},{"id":2,"parent_ids":[1]}]}}]}`))
	f.Add([]byte(`not json`))

	save := func(t *testing.T, s *System) []byte {
		t.Helper()
		d := t.TempDir()
		if err := s.SaveSession(d); err != nil {
			t.Fatalf("re-save: %v", err)
		}
		data, err := os.ReadFile(filepath.Join(d, snapshotFile))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := t.TempDir()
		if err := os.WriteFile(filepath.Join(in, snapshotFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, _, err := Recover(Config{Nodes: 1}, in)
		if err != nil {
			return
		}
		first := save(t, s)
		again := t.TempDir()
		if err := os.WriteFile(filepath.Join(again, snapshotFile), first, 0o644); err != nil {
			t.Fatal(err)
		}
		s2, _, err := Recover(Config{Nodes: 1}, again)
		if err != nil {
			t.Fatalf("re-saved snapshot does not recover: %v", err)
		}
		if second := save(t, s2); !bytes.Equal(first, second) {
			t.Fatalf("re-save not byte-identical:\n%s\n%s", first, second)
		}
	})
}
