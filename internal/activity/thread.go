// Package activity implements Papyrus's Activity Manager (dissertation
// Chapter 5): design threads, the rework mechanism, thread manipulation
// (fork/cascade/join/import), name resolution in the current data scope,
// the insertion-point convention for concurrently completing tasks, and
// time/annotation-indexed random access to the design history.
//
// A design thread (§3.3.3) owns a branching control stream of history
// records, a current cursor, and — implicitly, as the union of its
// frontier thread states — a thread workspace. The visibility rule is
// enforced here: task inputs named by plain object names resolve only
// against the current cursor's thread state (the data scope, §5.2).
//
// Concurrent sessions keep their record IDs disjoint via per-manager
// thread-ID bases (SetThreadBase, the core.RunSessions scheme); the
// served front-end (internal/server) allocates one such base per wire
// session and reads histories back through SortedRecords/ResolveInput.
package activity

import (
	"fmt"
	"sort"
	"strings"

	"papyrus/internal/history"
	"papyrus/internal/obs"
	"papyrus/internal/oct"
)

// Notification is a change message delivered to a thread (not a user:
// §3.3.4.2 routes conflicts to threads so that designers owning several
// threads can place them).
type Notification struct {
	Space  string
	Object string
	Ref    oct.Ref
	Text   string
}

// Thread is a design thread.
type Thread struct {
	id    int
	name  string
	owner string

	mgr    *Manager
	stream *history.Stream
	cursor *history.Record // nil = initial design point

	// pendingPaths tracks in-flight task invocations (invocation cursor +
	// path number, §5.3).
	nextInvocation int

	mailbox []Notification
	imports []*Thread

	// annotations and the hour-bucket time index (§5.2, Fig 5.5).
	timeIndex map[int64]*history.Record

	// lastAccess supports dead-branch detection (§5.4).
	lastAccess int64
}

// ID returns the thread's identifier.
func (t *Thread) ID() int { return t.id }

// Name returns the thread's descriptive name (e.g. "Shifter-synthesis").
func (t *Thread) Name() string { return t.name }

// Owner returns the owning designer.
func (t *Thread) Owner() string { return t.owner }

// Stream exposes the control stream (read-mostly; mutate via the manager).
func (t *Thread) Stream() *history.Stream { return t.stream }

// Cursor returns the current cursor (nil = initial point).
func (t *Thread) Cursor() *history.Record { return t.cursor }

// Frontier returns the thread's frontier cursors (§3.3.3).
func (t *Thread) Frontier() []*history.Record { return t.stream.Frontier() }

// MoveCursor repositions the current cursor — the rework mechanism
// (§3.3.3). The target must be a design point of this thread, or nil for
// the initial point.
func (t *Thread) MoveCursor(rec *history.Record) error {
	return t.mgr.ack(t.moveCursor(rec))
}

// moveCursor is MoveCursor without the acknowledgement commit.
func (t *Thread) moveCursor(rec *history.Record) error {
	if rec != nil {
		if _, ok := t.stream.ByID(rec.ID); !ok {
			return fmt.Errorf("activity: record %d is not in thread %q", rec.ID, t.name)
		}
	}
	t.cursor = rec
	t.touch()
	t.mgr.metrics.Inc("activity.cursor.move")
	if t.mgr.tracer != nil {
		to := "initial"
		if rec != nil {
			to = fmt.Sprintf("%d", rec.ID)
		}
		t.mgr.emitThreadEvent(obs.EvThreadRework, t, map[string]string{"to": to})
	}
	return t.mgr.logCursor(t, rec, false)
}

// MoveCursorErasing moves the cursor to rec and erases all records on the
// abandoned path below it (Fig 3.6's erase variant). It returns the object
// versions that left the workspace, which the manager hides. The cursor
// record, the hides and the erase marker commit together, so the whole
// erase costs one fsync under strict durability.
func (t *Thread) MoveCursorErasing(rec *history.Record) ([]oct.Ref, error) {
	gone, err := t.moveCursorErasing(rec)
	return gone, t.mgr.ack(err)
}

func (t *Thread) moveCursorErasing(rec *history.Record) ([]oct.Ref, error) {
	if err := t.moveCursor(rec); err != nil {
		return nil, err
	}
	var kids []*history.Record
	if rec == nil {
		kids = t.stream.Roots()
	} else {
		kids = rec.Children()
	}
	var gone []oct.Ref
	for _, child := range append([]*history.Record(nil), kids...) {
		for _, removed := range t.stream.Erase(child) {
			gone = append(gone, removed.Outputs...)
		}
	}
	for _, ref := range gone {
		_ = t.mgr.store.Hide(ref)
	}
	// The plain move above already logged; the erase entry replays the
	// stream erasure (the hides recover through the store's own records).
	if err := t.mgr.logCursor(t, rec, true); err != nil {
		return nil, err
	}
	return gone, nil
}

// DataScope returns the thread state of the current cursor (§5.2): the
// default context in which task argument names resolve.
func (t *Thread) DataScope() map[oct.Ref]bool {
	state, _ := t.stream.ThreadState(t.cursor)
	return state
}

// Workspace returns the thread workspace: the union of the frontier
// cursors' thread states (§3.3.3).
func (t *Thread) Workspace() map[oct.Ref]bool {
	out := map[oct.Ref]bool{}
	frontier := t.stream.Frontier()
	if len(frontier) == 0 {
		return out
	}
	for _, f := range frontier {
		state, _ := t.stream.ThreadState(f)
		for ref := range state {
			out[ref] = true
		}
	}
	return out
}

// ResolveInput maps a user-supplied object name to a concrete version
// (§5.2). Three forms are accepted:
//
//   - a hierarchical path name ("/user/chiueh/Multiplier"): the object is
//     referenced from outside the workspace (implicit check-in), at its
//     latest visible version;
//   - name@version ("ALU.logic@1", "/user/chiueh/Multiplier@2"):
//     explicit version, bypassing scope resolution;
//   - a plain name ("ALU.logic"): the most recent version of the object
//     in the current data scope.
func (t *Thread) ResolveInput(name string) (oct.Ref, error) {
	t.touch()
	ref, err := oct.ParseRef(name)
	if err != nil {
		return oct.Ref{}, err
	}
	if ref.Version == 0 && strings.HasPrefix(name, "/") {
		obj, err := t.mgr.store.Peek(ref)
		if err != nil {
			return oct.Ref{}, fmt.Errorf("activity: external object %q: %v", name, err)
		}
		return oct.Ref{Name: obj.Name, Version: obj.Version}, nil
	}
	if ref.Version != 0 {
		if _, err := t.mgr.store.Peek(ref); err != nil {
			return oct.Ref{}, fmt.Errorf("activity: %v", err)
		}
		return ref, nil
	}
	// Plain name: newest version within the data scope (visibility rule).
	scope := t.DataScope()
	best := 0
	for sref := range scope {
		if sref.Name == ref.Name && sref.Version > best {
			best = sref.Version
		}
	}
	if best == 0 {
		return oct.Ref{}, fmt.Errorf("activity: object %q is not visible in the current data scope of thread %q", name, t.name)
	}
	return oct.Ref{Name: ref.Name, Version: best}, nil
}

// Annotate attaches a text annotation to a history record (Fig 5.5).
func (t *Thread) Annotate(rec *history.Record, text string) error {
	if _, ok := t.stream.ByID(rec.ID); !ok {
		return fmt.Errorf("activity: record %d is not in thread %q", rec.ID, t.name)
	}
	rec.Annotation = text
	return nil
}

// FindAnnotation returns the first record whose annotation matches text
// exactly (the annotation-based random access of Fig 5.5).
func (t *Thread) FindAnnotation(text string) (*history.Record, bool) {
	for _, r := range t.stream.Records() {
		if r.Annotation == text {
			return r, true
		}
	}
	return nil, false
}

// hourBucket quantizes a store-clock stamp to the hour-resolution index of
// §5.2. The virtual store clock stands in for wall time; HourTicks sets
// the bucket width.
const HourTicks = 3600

// AtTime returns the first history record within the stamp's hour bucket,
// or the next closest record after that hour (§5.2's temporal access).
func (t *Thread) AtTime(stamp int64) (*history.Record, bool) {
	bucket := stamp / HourTicks
	if rec, ok := t.timeIndex[bucket]; ok {
		return rec, true
	}
	// Next closest record after the requested hour.
	var best *history.Record
	for _, r := range t.stream.Records() {
		if r.Time >= bucket*HourTicks {
			if best == nil || r.Time < best.Time || (r.Time == best.Time && r.ID < best.ID) {
				best = r
			}
		}
	}
	return best, best != nil
}

// Notifications drains the thread's mailbox.
func (t *Thread) Notifications() []Notification {
	out := t.mailbox
	t.mailbox = nil
	return out
}

// Notify appends to the thread's mailbox (the SDS layer calls this).
func (t *Thread) Notify(n Notification) {
	t.mailbox = append(t.mailbox, n)
}

// Import makes src readable from this thread (§3.3.4.2's thread import):
// a continuous, read-only reflection of the original, not a snapshot.
func (t *Thread) Import(src *Thread) error {
	if src == t {
		return fmt.Errorf("activity: thread cannot import itself")
	}
	for _, im := range t.imports {
		if im == src {
			return fmt.Errorf("activity: thread %q already imports %q", t.name, src.name)
		}
	}
	t.imports = append(t.imports, src)
	return nil
}

// Imports lists imported threads.
func (t *Thread) Imports() []*Thread { return t.imports }

// ImportedScope returns a read-only view of an imported thread's current
// data scope; it fails for threads not imported (unidirectional, Fig 3.11).
func (t *Thread) ImportedScope(src *Thread) (map[oct.Ref]bool, error) {
	for _, im := range t.imports {
		if im == src {
			return src.DataScope(), nil
		}
	}
	return nil, fmt.Errorf("activity: thread %q does not import %q", t.name, src.name)
}

// LastAccess returns the store-clock stamp of the last thread access.
func (t *Thread) LastAccess() int64 { return t.lastAccess }

func (t *Thread) touch() {
	t.lastAccess = t.mgr.store.Clock()
}

// indexRecord maintains the hour-bucket index as records are attached.
func (t *Thread) indexRecord(rec *history.Record) {
	if t.timeIndex == nil {
		t.timeIndex = map[int64]*history.Record{}
	}
	bucket := rec.Time / HourTicks
	if _, ok := t.timeIndex[bucket]; !ok {
		t.timeIndex[bucket] = rec
	}
}

// SortedRecords returns the thread's records ordered by completion time
// then ID (for display and reclamation policies).
func (t *Thread) SortedRecords() []*history.Record {
	recs := append([]*history.Record(nil), t.stream.Records()...)
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Time != recs[j].Time {
			return recs[i].Time < recs[j].Time
		}
		return recs[i].ID < recs[j].ID
	})
	return recs
}
