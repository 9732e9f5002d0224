package oct

import (
	"fmt"
	"sort"
	"sync"
)

// Txn stages the writes of one design step so they commit or abort as a
// unit. The dissertation delegates step-level concurrency control and
// failure atomicity to the underlying design database (§3.3.1, Figure 3.1):
// "although there may be many database operations within a tool invocation,
// it is assumed that the underlying design database system could guarantee
// concurrency and failure atomicity." Txn is that guarantee.
//
// Reads within a transaction see the store as of the read, plus the
// transaction's own staged writes (read-your-writes). Because updates are
// single-assignment, write-write conflicts between concurrent steps cannot
// clobber each other: each commit allocates fresh version numbers.
type Txn struct {
	store *Store

	mu     sync.Mutex
	writes []stagedWrite
	hides  []Ref
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

// Hide stages a logical deletion.
func (t *Txn) Hide(ref Ref) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return fmt.Errorf("oct: transaction already finished")
	}
	t.hides = append(t.hides, ref)
	return nil
}

// HideCount reports how many logical deletions the transaction staged.
// Remains readable after Commit: the task manager consults it to decide
// whether a completed step is memoizable (a step that hides versions has
// effects a cached payload replay would not reproduce).
func (t *Txn) HideCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.hides)
}

// Get reads through the transaction: staged writes shadow the store.
func (t *Txn) Get(ref Ref) (*Object, error) {
	t.mu.Lock()
	if !t.done {
		for i := len(t.writes) - 1; i >= 0; i-- {
			w := t.writes[i]
			if w.name == ref.Name && ref.Version == 0 {
				t.mu.Unlock()
				return &Object{Name: w.name, Version: 0, Type: w.typ, Data: w.data, Creator: w.creator, visible: true}, nil
			}
		}
	}
	t.mu.Unlock()
	return t.store.Get(ref)
}

// Commit applies all staged writes and hides atomically and returns the
// created objects in staging order. Atomicity spans exactly the stripes
// the transaction touches: they are locked together, in ascending stripe
// order so concurrent commits with overlapping footprints cannot deadlock,
// and released only after every write and hide has been applied.
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
	order := t.stripeSetLocked()
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
		st := s.stripeFor(w.name)
		obj, err := s.putOn(st, w.name, w.typ, w.data, w.creator)
		if err != nil {
			// putOn only fails on programmer error (validated in Put);
			// unwind what this commit already applied.
			for _, c := range created {
				s.bytes.Add(-int64(c.Data.Size()))
				// Deleting leaves a hole, exactly like a physical Remove:
				// the chain stays extended, so the failed commit burns its
				// version numbers rather than reusing them.
				s.stripeFor(c.Name).index.Delete(c.Name, c.Version)
			}
			return nil, err
		}
		created = append(created, obj)
	}
	var sets []walSet
	for _, ref := range t.hides {
		obj, err := lookupOn(s.stripeFor(ref.Name), ref)
		if err != nil {
			continue // hiding an already-gone version is not an error
		}
		obj.visible = false
		if s.wal != nil {
			sets = append(sets, walSet{Name: obj.Name, Version: obj.Version, Visible: false})
		}
	}
	if s.wal != nil {
		// One record per committed batch, appended while the stripe locks
		// are still held so log order agrees with version order; the
		// operation acknowledging the caller commits it to disk.
		c := walCommit{Sets: sets}
		for i, obj := range created {
			c.Writes = append(c.Writes, walWriteFor(obj, raws[i]))
		}
		if err := s.appendCommit(c); err != nil {
			return nil, err
		}
	}
	return created, nil
}

// stripeSetLocked returns the sorted, deduplicated stripe indices the
// staged writes and hides touch. Callers hold t.mu. The result aliases
// t.stripeBuf when it fits, so it is invalidated by the next call.
func (t *Txn) stripeSetLocked() []int {
	s := t.store
	set := t.stripeBuf[:0]
	for _, w := range t.writes {
		set = append(set, s.stripeIndex(w.name))
	}
	for _, ref := range t.hides {
		set = append(set, s.stripeIndex(ref.Name))
	}
	sort.Ints(set)
	j := 0
	for i, v := range set {
		if i == 0 || v != set[j-1] {
			set[j] = v
			j++
		}
	}
	return set[:j]
}

// Abort discards all staged work; the store is untouched.
func (t *Txn) Abort() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.done = true
	t.writes = nil
	t.hides = nil
}
