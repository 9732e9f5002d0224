package oct

import (
	"fmt"
	"slices"
	"sync"
)

// Txn stages the writes of one design step so they commit or abort as a
// unit. The dissertation delegates step-level concurrency control and
// failure atomicity to the underlying design database (§3.3.1, Figure 3.1):
// "although there may be many database operations within a tool invocation,
// it is assumed that the underlying design database system could guarantee
// concurrency and failure atomicity." Txn is that guarantee.
//
// A transaction holds writes only: a step reads the versions it was bound
// to when it issued (Store.Get/Peek), never its own staged outputs, and
// visibility changes go through Store.Hide. Because updates are
// single-assignment, write-write conflicts between concurrent steps cannot
// clobber each other: each commit allocates fresh version numbers.
// Store.Put is a one-write transaction, so Commit is the one place a
// version is validated, marshalled, locked, indexed and logged.
type Txn struct {
	store *Store

	mu     sync.Mutex
	writes []stagedWrite
	done   bool

	// Inline buffers keep the common case — a step that stages one or
	// two outputs — at a single heap allocation (the Txn itself). The
	// step hot path allocates one Txn per executed step, so this shows
	// up directly in allocs/step (docs/PERFORMANCE.md).
	writesBuf [2]stagedWrite
	stripeBuf [4]int
}

type stagedWrite struct {
	name    string
	typ     Type
	data    Value
	creator string
}

// Begin opens a transaction against the store.
func (s *Store) Begin() *Txn {
	return &Txn{store: s}
}

// Put stages a new version of name. The version number is not known until
// Commit; the returned index identifies the write within this transaction.
func (t *Txn) Put(name string, typ Type, data Value, creator string) (int, error) {
	if name == "" {
		return 0, fmt.Errorf("oct: empty object name")
	}
	if data == nil {
		return 0, fmt.Errorf("oct: nil payload for %q", name)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return 0, fmt.Errorf("oct: transaction already finished")
	}
	if t.writes == nil {
		t.writes = t.writesBuf[:0]
	}
	t.writes = append(t.writes, stagedWrite{name: name, typ: typ, data: data, creator: creator})
	return len(t.writes) - 1, nil
}

// Commit applies all staged writes atomically and returns the created
// objects in staging order. Atomicity spans exactly the stripes the
// writes touch: they are locked together, in ascending stripe order so
// concurrent commits with overlapping footprints cannot deadlock, and
// released only after every write has been applied and logged.
func (t *Txn) Commit() ([]*Object, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return nil, fmt.Errorf("oct: transaction already finished")
	}
	t.done = true

	s := t.store
	// With a WAL attached, marshal every payload before mutating anything:
	// a missing codec or marshal failure must abort the commit cleanly,
	// not surface after the store already changed.
	var raws [][]byte
	if s.wal != nil {
		raws = make([][]byte, len(t.writes))
		for i, w := range t.writes {
			raw, err := marshalValue(w.typ, w.data)
			if err != nil {
				return nil, err
			}
			raws[i] = raw
		}
	}
	order := t.stripeBuf[:0]
	for _, w := range t.writes {
		order = append(order, s.stripeIndex(w.name))
	}
	slices.Sort(order)
	order = slices.Compact(order)
	for _, i := range order {
		s.lock(&s.stripes[i])
	}
	defer func() {
		for i := len(order) - 1; i >= 0; i-- {
			s.stripes[order[i]].mu.Unlock()
		}
	}()

	created := make([]*Object, 0, len(t.writes))
	for _, w := range t.writes {
		created = append(created, s.putOn(s.stripeFor(w.name), w.name, w.typ, w.data, w.creator))
	}
	if s.wal != nil {
		// One record per committed batch, appended while the stripe locks
		// are still held so log order agrees with version order; the
		// operation acknowledging the caller commits it to disk.
		var c walCommit
		for i, obj := range created {
			c.Writes = append(c.Writes, walWriteFor(obj, raws[i]))
		}
		if err := s.appendCommit(c); err != nil {
			return nil, err
		}
	}
	return created, nil
}

// Abort discards all staged work; the store is untouched.
func (t *Txn) Abort() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.done = true
	t.writes = nil
}
