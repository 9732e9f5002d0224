package oct

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"papyrus/internal/wal"
)

// snapshotDoc renders a hand-written snapshot whose entries are all text
// payloads, for feeding Restore shapes Snapshot itself never writes.
func snapshotDoc(entries ...string) string {
	return `{"clock":9,"objects":[` + strings.Join(entries, ",") + `]}`
}

// snapshotDocChains is snapshotDoc with a "chains" field.
func snapshotDocChains(chains string, entries ...string) string {
	return `{"clock":9,"objects":[` + strings.Join(entries, ",") + `],"chains":` + chains + `}`
}

func textEntry(name string, version int) string {
	b, _ := json.Marshal(snapshotObject{
		Name: name, Version: version, Type: TypeText, Stamp: 1,
		Visible: true, LastAccess: 1, Data: json.RawMessage(`"x"`),
	})
	return string(b)
}

// TestRestoreRejectsBadEntries: a snapshot entry outside the slot
// contract — version below 1, or a second entry for a slot already
// restored — is an error, never a panic or a silently replaced slot
// with double-counted bytes.
func TestRestoreRejectsBadEntries(t *testing.T) {
	for _, tc := range []struct {
		name, doc, want string
	}{
		{"version-zero", snapshotDoc(textEntry("/a", 0)), "version 0"},
		{"version-negative", snapshotDoc(textEntry("/a", -1)), "version -1"},
		{"duplicate", snapshotDoc(textEntry("/a", 1), textEntry("/a", 2), textEntry("/a", 1)), "two entries for /a@1"},
		{"chain-below-version", snapshotDocChains(`{"/a":1}`, textEntry("/a", 1), textEntry("/a", 2)), `chain length 1 for "/a", below its restored version 2`},
		{"chain-zero", snapshotDocChains(`{"/gone":0}`), `chain length 0 for "/gone"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStore()
			err := s.Restore(strings.NewReader(tc.doc))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Restore = %v, want an error containing %q", err, tc.want)
			}
		})
	}
	// The well-formed prefix of the duplicate case restores cleanly and
	// accounts each payload once.
	s := NewStore()
	if err := s.Restore(strings.NewReader(snapshotDoc(textEntry("/a", 1), textEntry("/a", 2)))); err != nil {
		t.Fatal(err)
	}
	if got := s.TotalBytes(); got != 2 {
		t.Errorf("TotalBytes = %d, want 2", got)
	}
	if got := s.TotalWrittenBytes(); got != 2 {
		t.Errorf("TotalWrittenBytes = %d, want 2", got)
	}
}

// TestSnapshotKeepsTrailingHoles: reclaiming a name's newest versions
// leaves holes at the end of its chain, and both recovery inputs must
// carry them — the snapshot and the WAL's RecReclaim records. After a
// restore, and after a replay of the log, the next Put continues the
// original numbering instead of reassigning a reclaimed version (§3.2).
// It covers a chain with a live prefix, a chain with no live version
// left, and a chain whose holes are interior only (which needs no
// snapshot record).
func TestSnapshotKeepsTrailingHoles(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStoreWithStripes(4)
	s.AttachWAL(l)
	names := []string{"/tail", "/empty", "/mid"}
	for _, name := range names {
		for i := 0; i < 3; i++ {
			if _, err := s.Put(name, TypeText, Text(name), "t"); err != nil {
				t.Fatal(err)
			}
		}
	}
	erase(t, s,
		Ref{Name: "/tail", Version: 3}, Ref{Name: "/tail", Version: 2},
		Ref{Name: "/empty", Version: 1}, Ref{Name: "/empty", Version: 2}, Ref{Name: "/empty", Version: 3},
		Ref{Name: "/mid", Version: 2},
	)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	s.AttachWAL(nil)
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"chains":{"/empty":3,"/tail":3}`) {
		t.Errorf("snapshot does not record the trailing-hole chains exactly:\n%s", buf.String())
	}
	restored := NewStoreWithStripes(2)
	if err := restored.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	replayed, _, err := recoverStore(nil, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	others := map[string]*Store{"restored": restored, "replayed": replayed}
	for _, name := range names {
		want, err := s.Put(name, TypeText, Text("next"), "t")
		if err != nil {
			t.Fatal(err)
		}
		for how, other := range others {
			got, err := other.Put(name, TypeText, Text("next"), "t")
			if err != nil {
				t.Fatal(err)
			}
			if got.Version != want.Version || got.Version != 4 {
				t.Errorf("%s: %s store assigned v%d, original v%d, want v4", name, how, got.Version, want.Version)
			}
		}
	}
	for how, other := range others {
		if a, b := s.VersionMapText(), other.VersionMapText(); a != b {
			t.Errorf("%s version map diverged after the next puts:\n%s\nvs\n%s", how, a, b)
		}
	}

	// A snapshot written before chain lengths were recorded restores as
	// it always did: each chain ends at its highest live version.
	old := NewStore()
	if err := old.Restore(strings.NewReader(snapshotDoc(textEntry("/a", 1)))); err != nil {
		t.Fatal(err)
	}
	if obj, err := old.Put("/a", TypeText, Text("x"), "t"); err != nil || obj.Version != 2 {
		t.Errorf("Put after restoring a chain-less snapshot = %v, %v; want v2", obj, err)
	}
}

// FuzzSnapshotRestore feeds arbitrary bytes to Restore. Whatever the
// input, Restore either errors without panicking, or the restored store
// snapshots to a document that restores again and snapshots
// byte-identically — the JSON snapshot is a fixed point after one
// round trip.
func FuzzSnapshotRestore(f *testing.F) {
	s := NewStoreWithStripes(2)
	for i := 0; i < 4; i++ {
		for _, name := range []string{"/f/a", "/f/b"} {
			if _, err := s.Put(name, TypeText, Text(name+"-payload"), "fuzz"); err != nil {
				f.Fatal(err)
			}
		}
	}
	if _, err := s.Put("/f/stats", TypeStats, Text("area=12"), "chipstats"); err != nil {
		f.Fatal(err)
	}
	for _, ref := range []Ref{{Name: "/f/a", Version: 2}, {Name: "/f/b", Version: 4}} {
		if err := s.Hide(ref); err != nil {
			f.Fatal(err)
		}
	}
	erase(f, s, Ref{Name: "/f/a", Version: 3}, Ref{Name: "/f/b", Version: 1})
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	flipped := bytes.Clone(good)
	flipped[len(flipped)/3] ^= 0x04
	f.Add(good)                                                                                            // holes and hidden versions
	f.Add(good[:len(good)/2])                                                                              // torn tail
	f.Add(flipped)                                                                                         // bit flip
	f.Add([]byte(snapshotDoc(textEntry("/f/a", 0))))                                                       // version 0
	f.Add([]byte(snapshotDocChains(`{"/f/a":4,"/f/gone":2}`, textEntry("/f/a", 1), textEntry("/f/a", 2)))) // trailing holes
	f.Add([]byte(snapshotDocChains(`{"/f/a":1}`, textEntry("/f/a", 2))))                                   // chain below a version
	f.Fuzz(func(t *testing.T, data []byte) {
		// mapIndex materializes every slot up to the highest version, so
		// a decoded version far beyond anything a good chain reaches
		// would only measure the fuzzer's memory.
		var probe snapshot
		if json.Unmarshal(data, &probe) == nil {
			for _, o := range probe.Objects {
				if o.Version > 1<<20 {
					t.Skip()
				}
			}
			for _, n := range probe.Chains {
				if n > 1<<20 {
					t.Skip()
				}
			}
		}
		first := NewStore()
		if err := first.Restore(bytes.NewReader(data)); err != nil {
			return
		}
		var a bytes.Buffer
		if err := first.Snapshot(&a); err != nil {
			t.Fatalf("snapshot of a restored store: %v", err)
		}
		second := NewStore()
		if err := second.Restore(bytes.NewReader(a.Bytes())); err != nil {
			t.Fatalf("restoring a store's own snapshot: %v", err)
		}
		var b bytes.Buffer
		if err := second.Snapshot(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("second round trip changed the snapshot:\n%s\nvs\n%s", a.Bytes(), b.Bytes())
		}
	})
}
