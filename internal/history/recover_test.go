package history

import (
	"bytes"
	"fmt"
	"testing"
)

// loggedBuilder mirrors the activity manager's WAL discipline: every
// record is encoded at attachment time, when its live edges are exactly
// what replay must reproduce (appends have no children yet; splices do).
type loggedBuilder struct {
	t        *testing.T
	s        *Stream
	payloads [][]byte
}

func newLoggedBuilder(t *testing.T) *loggedBuilder {
	return &loggedBuilder{t: t, s: NewStream()}
}

func (b *loggedBuilder) log(r *Record) *Record {
	b.t.Helper()
	p, err := EncodeRecord(r)
	if err != nil {
		b.t.Fatal(err)
	}
	b.payloads = append(b.payloads, p)
	return r
}

func (b *loggedBuilder) append(r *Record, parent *Record) *Record {
	return b.log(b.s.Append(r, parent))
}

func (b *loggedBuilder) insertBefore(r *Record, parent, child *Record) *Record {
	b.t.Helper()
	rec, err := b.s.InsertBefore(r, parent, child)
	if err != nil {
		b.t.Fatal(err)
	}
	return b.log(rec)
}

// assertSameStream compares two streams through their persistent form
// (Save is deterministic) plus the link structure the snapshot cannot
// get wrong silently: roots and frontier.
func assertSameStream(t *testing.T, want, got *Stream) {
	t.Helper()
	var w, g bytes.Buffer
	if err := want.Save(&w); err != nil {
		t.Fatal(err)
	}
	if err := got.Save(&g); err != nil {
		t.Fatal(err)
	}
	if w.String() != g.String() {
		t.Fatalf("streams differ:\n--- want ---\n%s--- got ---\n%s", w.String(), g.String())
	}
	if len(want.Roots()) != len(got.Roots()) {
		t.Fatalf("roots: want %d, got %d", len(want.Roots()), len(got.Roots()))
	}
	if len(want.Frontier()) != len(got.Frontier()) {
		t.Fatalf("frontier: want %d, got %d", len(want.Frontier()), len(got.Frontier()))
	}
}

func (b *loggedBuilder) linear(n int) []*Record {
	var recs []*Record
	var prev *Record
	for i := 0; i < n; i++ {
		prev = b.append(rec("t", "o"), prev)
		recs = append(recs, prev)
	}
	return recs
}

// replay rebuilds a control stream by applying EncodeRecord payloads in
// log order, as the activity manager does under core.Recover.
func replay(payloads [][]byte) (*Stream, error) {
	s := NewStream()
	for i, p := range payloads {
		if _, err := s.ApplyLogged(p); err != nil {
			return nil, fmt.Errorf("replay payload %d: %w", i, err)
		}
	}
	return s, nil
}

func TestRecoverLinear(t *testing.T) {
	b := newLoggedBuilder(t)
	b.linear(4)
	got, err := replay(b.payloads)
	if err != nil {
		t.Fatal(err)
	}
	assertSameStream(t, b.s, got)
}

func TestRecoverBranchAndSplice(t *testing.T) {
	b := newLoggedBuilder(t)
	recs := b.linear(3)
	b.append(rec("alt", "alt1"), recs[0]) // rework branch
	b.insertBefore(rec("fix", "fix1"), recs[0], recs[1])

	got, err := replay(b.payloads)
	if err != nil {
		t.Fatal(err)
	}
	assertSameStream(t, b.s, got)
	// The splice must have interposed: recs[1]'s only parent is now "fix".
	r1, ok := got.ByID(recs[1].ID)
	if !ok {
		t.Fatal("record 2 missing after replay")
	}
	if len(r1.Parents()) != 1 || r1.Parents()[0].TaskName != "fix" {
		t.Errorf("splice not reproduced: parents of r1 = %v", r1.Parents())
	}
}

func TestRecoverSpliceAtRoot(t *testing.T) {
	b := newLoggedBuilder(t)
	recs := b.linear(2)
	b.insertBefore(rec("pre", "pre1"), nil, recs[0])
	got, err := replay(b.payloads)
	if err != nil {
		t.Fatal(err)
	}
	assertSameStream(t, b.s, got)
	if got.Roots()[0].TaskName != "pre" {
		t.Errorf("root after replay: %q, want \"pre\"", got.Roots()[0].TaskName)
	}
}

func TestRecoverCachedState(t *testing.T) {
	b := newLoggedBuilder(t)
	r0 := b.s.Append(rec("t", "o"), nil)
	b.s.CacheState(r0)
	b.log(r0) // encoded with the cached flag set, before any child exists
	recs := []*Record{r0, b.append(rec("t2", "o2"), r0)}
	got, err := replay(b.payloads)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != len(recs) {
		t.Fatalf("len after replay: %d, want %d", got.Len(), len(recs))
	}
	r, ok := got.ByID(recs[0].ID)
	if !ok || !r.Cached() {
		t.Errorf("cached flag lost in replay (ok=%v)", ok)
	}
}

func TestApplyLoggedIdempotent(t *testing.T) {
	b := newLoggedBuilder(t)
	b.linear(3)
	got := NewStream()
	for _, p := range b.payloads {
		if _, err := got.ApplyLogged(p); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshot-covered prefix: replaying the whole log again must be a
	// no-op, returning the existing records.
	for _, p := range b.payloads {
		if _, err := got.ApplyLogged(p); err != nil {
			t.Fatal(err)
		}
	}
	if got.Len() != 3 {
		t.Fatalf("len after double replay: %d, want 3", got.Len())
	}
	assertSameStream(t, b.s, got)
}

func TestRecoverErrors(t *testing.T) {
	b := newLoggedBuilder(t)
	b.linear(2)
	// Drop the first payload: the second references a missing parent.
	if _, err := replay(b.payloads[1:]); err == nil {
		t.Error("replay with missing parent succeeded")
	}
	if _, err := NewStream().ApplyLogged([]byte("{not json")); err == nil {
		t.Error("garbage payload accepted")
	}
}
