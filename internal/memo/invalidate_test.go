package memo

import (
	"strings"
	"testing"

	"papyrus/internal/oct"
)

func trackedEntry() *Entry {
	return &Entry{Outputs: []Output{{Name: "o", Type: oct.TypeText, Data: oct.Text("payload")}}}
}

// TestInvalidateByToken: entries registered under any identity token of a
// reclaimed version — plain ref, opaque ref, or content digest — are
// dropped, untouched entries survive, and the reverse index forgets the
// dropped keys (a second Invalidate is a no-op).
func TestInvalidateByToken(t *testing.T) {
	c := NewCache()
	// Content-pinned entry: register the digest the way the issue path
	// does, via InputID over the version's payload.
	obj := &oct.Object{Name: "/t#7/m1", Version: 2, Type: oct.TypeText, Data: oct.Text("mid")}
	id := c.InputID(obj)
	if !c.PopulateTracked("kContent", trackedEntry(), []string{id.Version}) {
		t.Fatal("content entry rejected")
	}
	if !c.PopulateTracked("kPlain", trackedEntry(), []string{"/a@1"}) {
		t.Fatal("plain entry rejected")
	}
	if !c.PopulateTracked("kOpaque", trackedEntry(), []string{"opaque:/b@3"}) {
		t.Fatal("opaque entry rejected")
	}
	if !c.PopulateTracked("kSurvives", trackedEntry(), []string{"/c@1"}) {
		t.Fatal("surviving entry rejected")
	}

	refs := []oct.Ref{
		{Name: "/a", Version: 1},
		{Name: "/b", Version: 3},
		{Name: "/t#7/m1", Version: 2},
	}
	if removed := c.Invalidate(refs); removed != 3 {
		t.Fatalf("Invalidate removed %d entries, want 3", removed)
	}
	for _, key := range []string{"kContent", "kPlain", "kOpaque"} {
		if _, ok := c.Lookup(key); ok {
			t.Errorf("entry %q survived invalidation of its version", key)
		}
	}
	if _, ok := c.Lookup("kSurvives"); !ok {
		t.Error("unrelated entry was dropped")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
	if removed := c.Invalidate(refs); removed != 0 {
		t.Errorf("second Invalidate removed %d entries, want 0", removed)
	}
	// The digest memo for the reclaimed version is gone too: a same-name
	// future version re-digests instead of serving the stale hash.
	if removed := c.Invalidate([]oct.Ref{{Name: "/t#7/m1", Version: 2}}); removed != 0 {
		t.Errorf("digest-only re-invalidation removed %d entries", removed)
	}
}

// TestInvalidateSharedToken: one reclaimed version drops every entry that
// listed it, and an entry registered under several tokens is counted once.
func TestInvalidateSharedToken(t *testing.T) {
	c := NewCache()
	if !c.PopulateTracked("k1", trackedEntry(), []string{"/x@1", "/y@1"}) {
		t.Fatal("k1 rejected")
	}
	if !c.PopulateTracked("k2", trackedEntry(), []string{"/x@1"}) {
		t.Fatal("k2 rejected")
	}
	if removed := c.Invalidate([]oct.Ref{{Name: "/x", Version: 1}, {Name: "/y", Version: 1}}); removed != 2 {
		t.Fatalf("Invalidate removed %d entries, want 2", removed)
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d, want 0", c.Len())
	}
	if st := c.Snapshot(); st.BytesStored != 0 {
		t.Errorf("BytesStored = %d after dropping every entry, want 0", st.BytesStored)
	}
}

// TestInvalidateAdoptedDigest: a version handed a cached output's digest
// by a hit but never used as a key input contributes no "content:" token,
// so Invalidate drops exactly the entries it drops without the hand-off —
// and forgets the adopted digest, like a memoized one.
func TestInvalidateAdoptedDigest(t *testing.T) {
	build := func(adopt bool) (*Cache, oct.Ref) {
		c := NewCache()
		// An entry pinned by the content token of an intermediate whose
		// payload equals the cached output below.
		peer := &oct.Object{Name: "m1#3", Version: 1, Type: oct.TypeText, Data: oct.Text("mid")}
		tok := c.InputID(peer).Version
		if !strings.HasPrefix(tok, "content:") {
			t.Fatalf("peer token %q is not a content token", tok)
		}
		if !c.PopulateTracked("kContent", trackedEntry(), []string{tok}) {
			t.Fatal("content entry rejected")
		}
		src := &Entry{Outputs: []Output{{Name: "m1", Type: oct.TypeText, Data: oct.Text("mid")}}}
		if !c.PopulateTracked("kSource", src, []string{"/s@1"}) {
			t.Fatal("source entry rejected")
		}
		ref := oct.Ref{Name: "m1#7", Version: 2}
		if adopt {
			c.Adopt(ref, src.Output("m1"))
		}
		return c, ref
	}
	ref, _ := build(false)
	got, r := build(true)
	want := ref.Invalidate([]oct.Ref{r})
	if removed := got.Invalidate([]oct.Ref{r}); removed != want {
		t.Fatalf("Invalidate of an adopted, never-keyed version removed %d entries, want %d", removed, want)
	}
	if got.Len() != ref.Len() {
		t.Errorf("Len = %d after Invalidate, want %d", got.Len(), ref.Len())
	}
	got.mu.RLock()
	_, kept := got.adopted[r.String()]
	got.mu.RUnlock()
	if kept {
		t.Error("Invalidate kept the reclaimed version's adopted digest")
	}
}
