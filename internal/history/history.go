// Package history implements design history records and the branching
// control streams of design threads (dissertation §3.3.3, §5.3).
//
// A Record encapsulates one committed design task's operation history: the
// steps actually executed, ordered by completion time, with their options
// and input/output object versions (§4.3.5). Records chain into a Stream —
// the control stream — a DAG whose branching structure arises from the
// rework mechanism (Fig 3.5/3.6) and whose merges arise from thread joins
// (Fig 3.10).
//
// The Stream also implements the two performance-critical algorithms of
// §5.3: the insertion-point convention for appending records of tasks that
// completed while the cursor moved (Fig 5.6), and thread-state computation
// by backward traversal with caching.
//
// Records carry JSON tags for the session-persistence codec (§5.3); the
// papyrusd wire API (internal/server, docs/SERVER.md) serves the same
// encoding, so a history record on the wire is a history record on disk.
package history

import (
	"fmt"
	"sort"

	"papyrus/internal/oct"
)

// StepRecord is the history of one executed design step (§4.3.5). Its
// Options, Inputs and Outputs slices are immutable once the task manager
// hands the record to its OnStep observer: the record, the ADG op built
// from it and the task manager's own step state share them, so none of
// those holders may write to the slices or append to them afterwards.
type StepRecord struct {
	StepID      string    `json:"step_id"` // template step ID (subtask-prefixed)
	Name        string    `json:"name"`
	Tool        string    `json:"tool"`
	Options     []string  `json:"options,omitempty"`
	Inputs      []oct.Ref `json:"inputs,omitempty"`
	Outputs     []oct.Ref `json:"outputs,omitempty"`
	StartedAt   int64     `json:"started_at"`
	CompletedAt int64     `json:"completed_at"`
	Node        int       `json:"node"`
	Migrations  int       `json:"migrations"`
	ExitStatus  int       `json:"exit_status"`
	Log         string    `json:"log,omitempty"`
}

// Record is the history record of a committed design task.
type Record struct {
	ID         int          `json:"id"`
	TaskName   string       `json:"task"`
	Time       int64        `json:"time"` // completion stamp (store clock)
	Inputs     []oct.Ref    `json:"inputs,omitempty"`
	Outputs    []oct.Ref    `json:"outputs,omitempty"`
	Steps      []StepRecord `json:"steps,omitempty"`
	Annotation string       `json:"annotation,omitempty"`

	// Display coordinates (grid cell, §5.2).
	X int `json:"x"`
	Y int `json:"y"`

	// Collapsed marks records whose step details were abstracted away by
	// vertical aging (Fig 5.7).
	Collapsed bool `json:"collapsed,omitempty"`

	parents  []*Record
	children []*Record

	// cachedState optimizes thread-state computation (§5.3). Nil when
	// not cached; the CacheFlag of the dissertation's HistoryRecord.
	cachedState map[oct.Ref]bool
}

// Parents returns the record's parent records.
func (r *Record) Parents() []*Record { return r.parents }

// Children returns the record's child records.
func (r *Record) Children() []*Record { return r.children }

// Cached reports whether the record's thread state is cached.
func (r *Record) Cached() bool { return r.cachedState != nil }

// Stream is a design thread's control stream: a DAG of history records.
// The nil *Record represents the initial design point (empty thread state).
type Stream struct {
	nextID  int
	records []*Record
	// roots are records without parents (attached to the initial point).
	roots []*Record
}

// NewStream returns an empty control stream.
func NewStream() *Stream { return &Stream{} }

// Records returns all records in insertion order.
func (s *Stream) Records() []*Record { return s.records }

// Roots returns the records attached to the initial design point.
func (s *Stream) Roots() []*Record { return s.roots }

// Len returns the number of records.
func (s *Stream) Len() int { return len(s.records) }

// ByID finds a record.
func (s *Stream) ByID(id int) (*Record, bool) {
	for _, r := range s.records {
		if r.ID == id {
			return r, true
		}
	}
	return nil, false
}

// Append attaches rec as a child of parent (nil = initial point) and
// assigns its ID. It returns rec for chaining.
func (s *Stream) Append(rec *Record, parent *Record) *Record {
	s.nextID++
	rec.ID = s.nextID
	if parent == nil {
		s.roots = append(s.roots, rec)
	} else {
		rec.parents = append(rec.parents, parent)
		parent.children = append(parent.children, rec)
	}
	s.records = append(s.records, rec)
	return rec
}

// InsertBefore splices rec between parent's link to child: parent -> rec
// -> child (the insertion-point rule of Fig 5.6 when a branch is found
// between the invocation cursor and the path end). parent may be nil
// (child was a root).
func (s *Stream) InsertBefore(rec *Record, parent, child *Record) (*Record, error) {
	if child == nil {
		return nil, fmt.Errorf("history: InsertBefore requires a child record")
	}
	s.nextID++
	rec.ID = s.nextID
	if parent == nil {
		found := false
		for i, r := range s.roots {
			if r == child {
				s.roots[i] = rec
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("history: record %d is not a root", child.ID)
		}
	} else {
		found := false
		for i, c := range parent.children {
			if c == child {
				parent.children[i] = rec
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("history: record %d is not a child of %d", child.ID, parent.ID)
		}
		rec.parents = append(rec.parents, parent)
	}
	// Relink child under rec.
	for i, p := range child.parents {
		if p == parent {
			child.parents = append(child.parents[:i], child.parents[i+1:]...)
			break
		}
	}
	child.parents = append(child.parents, rec)
	rec.children = append(rec.children, child)
	s.records = append(s.records, rec)
	// Downstream cached states now miss rec's outputs; refresh them
	// (§5.3: "the activity manager must traverse the following history
	// records ... updating the cached thread states").
	s.refreshCachesFrom(rec)
	return rec, nil
}

// refreshCachesFrom adds rec's inputs/outputs into every cached thread
// state downstream of rec.
func (s *Stream) refreshCachesFrom(rec *Record) {
	seen := map[*Record]bool{}
	var walk func(r *Record)
	walk = func(r *Record) {
		if seen[r] {
			return
		}
		seen[r] = true
		if r.cachedState != nil {
			for _, ref := range rec.Inputs {
				r.cachedState[ref] = true
			}
			for _, ref := range rec.Outputs {
				r.cachedState[ref] = true
			}
		}
		for _, c := range r.children {
			walk(c)
		}
	}
	for _, c := range rec.children {
		walk(c)
	}
}

// Frontier returns the frontier cursors: design points with no following
// record (§3.3.3). The initial point is a frontier only when the stream is
// empty (represented by an empty slice plus ok=false semantics handled by
// callers).
func (s *Stream) Frontier() []*Record {
	var out []*Record
	for _, r := range s.records {
		if len(r.children) == 0 {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ThreadState computes the design point's thread state: the set of object
// versions referenced or created from the initial state up to (and
// including) the record (§3.3.3). A nil record yields the empty state.
// The backward traversal stops at cached states (§5.3). visited counts
// the records actually traversed, for the caching experiments.
func (s *Stream) ThreadState(at *Record) (state map[oct.Ref]bool, visited int) {
	state = map[oct.Ref]bool{}
	if at == nil {
		return state, 0
	}
	if at.cachedState != nil {
		for ref := range at.cachedState {
			state[ref] = true
		}
		return state, 0
	}
	seen := map[*Record]bool{}
	var walk func(r *Record)
	walk = func(r *Record) {
		if r == nil || seen[r] {
			return
		}
		seen[r] = true
		if r.cachedState != nil && r != at {
			for ref := range r.cachedState {
				state[ref] = true
			}
			return // cached: no need to go further back
		}
		visited++
		for _, ref := range r.Inputs {
			state[ref] = true
		}
		for _, ref := range r.Outputs {
			state[ref] = true
		}
		for _, p := range r.parents {
			walk(p)
		}
		if len(r.parents) == 0 {
			return
		}
	}
	walk(at)
	return state, visited
}

// CacheState computes and caches the record's thread state, turning on its
// CacheFlag.
func (s *Stream) CacheState(r *Record) {
	if r == nil {
		return
	}
	state, _ := s.ThreadState(r)
	r.cachedState = state
}

// AttachPoint implements the appending convention of §5.3/Fig 5.6. A task
// invocation captures its invocation cursor plus a path number (the index
// of the cursor child-branch the invocation extends; an index past the
// existing children starts a new branch — the rework case). At completion
// the record is placed by walking the path from the invocation cursor:
//
//   - path >= number of children: the record starts a new branch directly
//     under the invocation cursor (parent=start, before=nil);
//   - otherwise the walk follows single-child links to the path's end and
//     appends there; if a record with more than one child (a branch) is
//     encountered first, the new record is inserted BEFORE the branching
//     record.
//
// It returns the attach parent and, when a splice is needed, the record to
// insert before.
func (s *Stream) AttachPoint(start *Record, path int) (parent *Record, before *Record) {
	kids := s.childrenOf(start)
	if path < 0 || path >= len(kids) {
		return start, nil // new branch under the invocation cursor
	}
	prev := start
	cur := kids[path]
	for {
		if len(cur.children) == 0 {
			return cur, nil
		}
		if len(cur.children) > 1 {
			return prev, cur // insert before the branching record
		}
		prev = cur
		cur = cur.children[0]
	}
}

func (s *Stream) childrenOf(r *Record) []*Record {
	if r == nil {
		return s.roots
	}
	return r.children
}

// Erase removes a record and all its descendants from the stream,
// returning the removed records (the rework mechanism's optional erase,
// Fig 3.6). The record's parents lose the corresponding child links.
func (s *Stream) Erase(r *Record) []*Record {
	if r == nil {
		return nil
	}
	doomed := map[*Record]bool{}
	var mark func(x *Record)
	mark = func(x *Record) {
		if doomed[x] {
			return
		}
		doomed[x] = true
		for _, c := range x.children {
			mark(c)
		}
	}
	mark(r)
	for _, p := range r.parents {
		p.children = removeRecord(p.children, r)
	}
	s.roots = removeRecord(s.roots, r)
	var removed []*Record
	kept := s.records[:0]
	for _, x := range s.records {
		if doomed[x] {
			removed = append(removed, x)
		} else {
			kept = append(kept, x)
		}
	}
	s.records = kept
	return removed
}

func removeRecord(xs []*Record, r *Record) []*Record {
	out := xs[:0]
	for _, x := range xs {
		if x != r {
			out = append(out, x)
		}
	}
	return out
}

// Cut detaches a single record, linking its parents directly to its
// children (horizontal aging and iteration GC remove interior records this
// way, Figs 5.8/5.9). The record's inputs/outputs disappear from
// downstream states unless re-referenced, so cached states downstream are
// invalidated.
func (s *Stream) Cut(r *Record) {
	if r == nil {
		return
	}
	for _, p := range r.parents {
		p.children = removeRecord(p.children, r)
		for _, c := range r.children {
			if !containsRecord(p.children, c) {
				p.children = append(p.children, c)
			}
			if !containsRecord(c.parents, p) {
				c.parents = append(c.parents, p)
			}
		}
	}
	if containsRecord(s.roots, r) {
		s.roots = removeRecord(s.roots, r)
		for _, c := range r.children {
			if !containsRecord(s.roots, c) {
				s.roots = append(s.roots, c)
			}
		}
	}
	for _, c := range r.children {
		c.parents = removeRecord(c.parents, r)
	}
	// Invalidate caches downstream (their states shrank).
	seen := map[*Record]bool{}
	var walk func(x *Record)
	walk = func(x *Record) {
		if seen[x] {
			return
		}
		seen[x] = true
		x.cachedState = nil
		for _, c := range x.children {
			walk(c)
		}
	}
	for _, c := range r.children {
		walk(c)
	}
	s.records = removeRecord(s.records, r)
}

func containsRecord(xs []*Record, r *Record) bool {
	for _, x := range xs {
		if x == r {
			return true
		}
	}
	return false
}

// LinkParent adds an extra parent edge to a record (thread joins combine
// two connector points into one following design point, §3.3.4.1).
func LinkParent(child, parent *Record) {
	if child == nil || parent == nil || containsRecord(child.parents, parent) {
		return
	}
	child.parents = append(child.parents, parent)
	parent.children = append(parent.children, child)
}

// Graft moves every record of src into dst, renumbering IDs past dst's
// maximum, and attaches src's roots under attach (nil = dst's initial
// point). Cached states of the grafted records are dropped — they are
// stale relative to dst's state (§5.3 notes cascades must recompute the
// trailing thread's cached states). Returns the old-ID -> new-ID mapping.
// src must not be used afterwards.
func Graft(dst, src *Stream, attach *Record) (map[int]int, error) {
	if attach != nil {
		if _, ok := dst.ByID(attach.ID); !ok {
			return nil, fmt.Errorf("history: graft attach point %d not in destination", attach.ID)
		}
	}
	idMap := make(map[int]int, len(src.records))
	for _, r := range src.records {
		dst.nextID++
		idMap[r.ID] = dst.nextID
		r.ID = dst.nextID
		r.cachedState = nil
		dst.records = append(dst.records, r)
	}
	for _, root := range src.roots {
		if attach == nil {
			dst.roots = append(dst.roots, root)
		} else {
			root.parents = append(root.parents, attach)
			attach.children = append(attach.children, root)
		}
	}
	src.records, src.roots = nil, nil
	return idMap, nil
}

// Ancestors returns the transitive parents of r (excluding r), used by
// reclamation to find which records feed a kept state.
func (s *Stream) Ancestors(r *Record) map[*Record]bool {
	out := map[*Record]bool{}
	var walk func(x *Record)
	walk = func(x *Record) {
		for _, p := range x.parents {
			if !out[p] {
				out[p] = true
				walk(p)
			}
		}
	}
	if r != nil {
		walk(r)
	}
	return out
}
