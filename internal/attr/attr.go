// Package attr implements the central attribute database associated with
// each thread workspace (dissertation §4.3.6). Objects and attributes are
// stored separately; attribute values are either set directly or computed
// on demand by measurement tools and cached. The dissertation used the
// UNIX db library; this is the Go equivalent: a concurrent store keyed
// by object version, with a compute hook.
package attr

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"papyrus/internal/oct"
)

// Computer evaluates an attribute of an object — the "attribute
// computation tool" of §4.3.6 (cad.Measure in this reproduction).
type Computer func(attr string, obj *oct.Object) (string, error)

// Entry is one attribute value with provenance.
type Entry struct {
	Value string
	// Computed marks values produced by a measurement tool (vs set
	// explicitly or inherited through a tool's TSD inherit list).
	Computed bool
	// Source names how the value arose: "set", "inherited", or the
	// measurement origin.
	Source string
}

// DB is the attribute database for one thread workspace. Safe for
// concurrent use: attribute computations run as child processes of the
// task manager (§4.3.6).
type DB struct {
	mu sync.RWMutex
	// entries maps each object version to its attributes in insertion
	// order. A version holds a handful of attributes, so a slice scanned
	// linearly costs far less memory than a map per version. A present
	// key with no attributes is kept: Inherit leaves one behind and Len
	// counts it.
	entries map[oct.Ref][]named
	compute Computer
}

// named is one attribute of a version.
type named struct {
	attr string
	Entry
}

// New returns an empty database with the given measurement hook (may be
// nil, in which case only stored values are served).
func New(compute Computer) *DB {
	return &DB{entries: make(map[oct.Ref][]named), compute: compute}
}

// find returns the index of attr in attrs, or -1.
func find(attrs []named, attr string) int {
	for i := range attrs {
		if attrs[i].attr == attr {
			return i
		}
	}
	return -1
}

// put stores e as ref's attr, overwriting any previous value. The caller
// holds the write lock.
func (db *DB) put(ref oct.Ref, attr string, e Entry) {
	attrs := db.entries[ref]
	if i := find(attrs, attr); i >= 0 {
		attrs[i].Entry = e
		return
	}
	db.entries[ref] = append(attrs, named{attr: attr, Entry: e})
}

// Set stores an attribute value directly.
func (db *DB) Set(ref oct.Ref, attr, value, source string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if source == "" {
		source = "set"
	}
	db.put(ref, attr, Entry{Value: value, Source: source})
}

// Peek returns a stored value without computing.
func (db *DB) Peek(ref oct.Ref, attr string) (Entry, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	attrs := db.entries[ref]
	if i := find(attrs, attr); i >= 0 {
		return attrs[i].Entry, true
	}
	return Entry{}, false
}

// Get returns the attribute value, computing and caching it through the
// measurement hook when absent. The object is supplied by the caller so
// the database stays independent of the object store.
func (db *DB) Get(ref oct.Ref, attr string, obj *oct.Object) (string, error) {
	if e, ok := db.Peek(ref, attr); ok {
		return e.Value, nil
	}
	if db.compute == nil {
		return "", fmt.Errorf("attr: %s of %s not stored and no measurement hook", attr, ref)
	}
	if obj == nil {
		return "", fmt.Errorf("attr: %s of %s requires the object for measurement", attr, ref)
	}
	v, err := db.compute(attr, obj)
	if err != nil {
		return "", err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.put(ref, attr, Entry{Value: v, Computed: true, Source: "measured"})
	return v, nil
}

// Inherit copies an attribute from one object version to another, used
// when a tool's TSD inherit list declares the attribute unchanged
// (Fig 6.4). Missing source attributes are skipped, not errors: inherit
// lists are declarative upper bounds.
func (db *DB) Inherit(from, to oct.Ref, attrs []string) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	src, ok := db.entries[from]
	if !ok {
		return 0
	}
	dst := db.entries[to]
	n := 0
	for _, a := range attrs {
		if i := find(src, a); i >= 0 && find(dst, a) < 0 {
			dst = append(dst, named{attr: a, Entry: Entry{Value: src[i].Value, Source: "inherited"}})
			n++
		}
	}
	db.entries[to] = dst
	return n
}

// Invalidate removes cached attributes of an object (e.g. after the
// inference layer decides a modification affected them).
func (db *DB) Invalidate(ref oct.Ref, attrs ...string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	cur, ok := db.entries[ref]
	if !ok {
		return
	}
	if len(attrs) == 0 {
		delete(db.entries, ref)
		return
	}
	kept := cur[:0]
	for _, e := range cur {
		if !slices.Contains(attrs, e.attr) {
			kept = append(kept, e)
		}
	}
	clear(cur[len(kept):])
	db.entries[ref] = kept
}

// Attrs lists the stored attribute names of an object, sorted.
func (db *DB) Attrs(ref oct.Ref) []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	attrs := db.entries[ref]
	out := make([]string, 0, len(attrs))
	for _, e := range attrs {
		out = append(out, e.attr)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of objects with stored attributes.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.entries)
}
