// Package reclaim implements Papyrus's storage management (dissertation
// §5.4): the measures that bound the storage overhead of single-assignment
// updates. Three history-reduction mechanisms — vertical and horizontal
// aging (Figs 5.7/5.8) and garbage collection of iterative refinements and
// dead-end branches (Fig 5.9) — plus the background object reclaimer that
// physically deletes (or archives) versions that stayed invisible past a
// grace period (§3.3.1).
//
// As in the dissertation, destructive history operations ask for user
// approval first: the Policy's Approve hook is consulted before pruning.
package reclaim

import (
	"fmt"
	"sort"
	"sync"

	"papyrus/internal/activity"
	"papyrus/internal/history"
	"papyrus/internal/memo"
	"papyrus/internal/oct"
)

// Archiver receives reclaimed versions. The dissertation's prototype
// simply deleted them but kept the interface general enough for a tape
// archive; so do we.
type Archiver interface {
	Archive(obj *oct.Object) error
}

// Policy parameterizes the reclaimer.
type Policy struct {
	// Approve is consulted before destructive history operations; nil
	// approves everything (batch mode).
	Approve func(action string, records []*history.Record) bool
	// Archiver receives physically reclaimed objects; nil deletes.
	Archiver Archiver
	// Grace is the invisibility age (in store-clock ticks) before a
	// hidden version is physically reclaimed.
	Grace int64
	// Memo, when set, has entries depending on reclaimed versions
	// invalidated at sweep time, so a stale content-pinned entry can
	// never re-materialize a version storage management deleted.
	Memo *memo.Cache
}

// Reclaimer runs storage management over a store. In the dissertation it
// is a separate process communicating through the persistent history; here
// it is a component invoked by the session loop (or papyrusd's per-shard
// background sweeper). Sweeps are serialized by an internal mutex so the
// resumable cursor stays coherent under concurrent callers.
type Reclaimer struct {
	store  *oct.Store
	policy Policy

	mu     sync.Mutex
	cursor int // stripe to resume the next budgeted sweep from
}

// New builds a reclaimer.
func New(store *oct.Store, policy Policy) *Reclaimer {
	return &Reclaimer{store: store, policy: policy}
}

func (r *Reclaimer) approved(action string, recs []*history.Record) bool {
	if r.policy.Approve == nil {
		return true
	}
	return r.policy.Approve(action, recs)
}

// VerticalAge abstracts away the internal details of records older than
// the cutoff (Fig 5.7): their step lists are dropped and the record is
// marked Collapsed, keeping only the task-level view. The pruned stream
// is re-logged (Thread.LogReclaim) so a crash cannot resurrect the
// collapsed details from earlier attach records. Returns the number of
// collapsed records.
func (r *Reclaimer) VerticalAge(t *activity.Thread, cutoff int64) (int, error) {
	var victims []*history.Record
	for _, rec := range t.Stream().Records() {
		if !rec.Collapsed && rec.Time < cutoff && len(rec.Steps) > 0 {
			victims = append(victims, rec)
		}
	}
	if len(victims) == 0 || !r.approved("vertical-age", victims) {
		return 0, nil
	}
	for _, rec := range victims {
		rec.Steps = nil
		rec.Collapsed = true
	}
	return len(victims), t.LogReclaim()
}

// HorizontalAge prunes records older than the cutoff entirely (Fig 5.8),
// cutting them out of the control stream and hiding their outputs unless
// a retained record still references them. Frontier records and records
// on the path to the current cursor are never pruned. The pruned stream
// is re-logged durably (Thread.LogReclaim). Returns the number of
// pruned records.
func (r *Reclaimer) HorizontalAge(t *activity.Thread, cutoff int64) (int, error) {
	s := t.Stream()
	protected := map[*history.Record]bool{}
	for _, f := range s.Frontier() {
		protected[f] = true
	}
	if c := t.Cursor(); c != nil {
		protected[c] = true
	}
	var victims []*history.Record
	for _, rec := range s.Records() {
		if rec.Time < cutoff && !protected[rec] {
			victims = append(victims, rec)
		}
	}
	if len(victims) == 0 || !r.approved("horizontal-age", victims) {
		return 0, nil
	}
	for _, rec := range victims {
		s.Cut(rec)
	}
	r.hideUnreferenced(t, victims)
	return len(victims), t.LogReclaim()
}

// IterationHint identifies one iterative-refinement process: the rounds of
// an iterated task sequence, oldest first. The dissertation's prototype
// "is not intelligent enough to discover iterative processes from the
// history. The user must provide explicit hints" (§5.4) — same here.
type IterationHint struct {
	Rounds [][]*history.Record
}

// CollectIterations abstracts an iterative process to the rounds whose
// outputs are actually used by task invocations outside the iteration
// (Fig 5.9); the other rounds are cut and their objects hidden. Returns
// the number of records removed.
func (r *Reclaimer) CollectIterations(t *activity.Thread, hint IterationHint) (int, error) {
	s := t.Stream()
	inIteration := map[*history.Record]bool{}
	for _, round := range hint.Rounds {
		for _, rec := range round {
			if _, ok := s.ByID(rec.ID); !ok {
				return 0, fmt.Errorf("reclaim: hinted record %d not in thread %q", rec.ID, t.Name())
			}
			inIteration[rec] = true
		}
	}
	// Outputs consumed by task invocations outside the iteration keep
	// their round alive ("the small subset that is actually used", §5.4);
	// mere presence in the thread state does not.
	usedOutside := map[oct.Ref]bool{}
	for _, rec := range s.Records() {
		if inIteration[rec] {
			continue
		}
		for _, in := range rec.Inputs {
			usedOutside[in] = true
		}
	}

	var doomed []*history.Record
	for ri, round := range hint.Rounds {
		keep := false
		for _, rec := range round {
			for _, out := range rec.Outputs {
				if usedOutside[out] {
					keep = true
				}
			}
		}
		// The final round survives by default: it is the iteration's
		// result even if nothing consumed it yet.
		if ri == len(hint.Rounds)-1 {
			keep = true
		}
		if !keep {
			doomed = append(doomed, round...)
		}
	}
	if len(doomed) == 0 || !r.approved("iteration-gc", doomed) {
		return 0, nil
	}
	for _, rec := range doomed {
		s.Cut(rec)
	}
	r.hideUnreferenced(t, doomed)
	return len(doomed), t.LogReclaim()
}

// DeadBranches finds frontier branches whose tip has not been touched
// since the cutoff and, upon approval, erases them (§5.4: "a frontier
// branch is marked as a dead-end when the difference between the last
// access time and the current time exceeds a certain threshold"). The
// branch containing the current cursor is exempt. The pruned stream is
// re-logged durably. Returns erased records.
func (r *Reclaimer) DeadBranches(t *activity.Thread, cutoff int64) ([]*history.Record, error) {
	s := t.Stream()
	cursorAnc := s.Ancestors(t.Cursor())
	if t.Cursor() != nil {
		cursorAnc[t.Cursor()] = true
	}
	var erased []*history.Record
	for _, tip := range s.Frontier() {
		if tip.Time >= cutoff || cursorAnc[tip] || tip == t.Cursor() {
			continue
		}
		// Walk up to the branch point: the maximal chain ending at tip
		// whose records have single children.
		start := tip
		for {
			parents := start.Parents()
			if len(parents) != 1 {
				break
			}
			p := parents[0]
			if len(p.Children()) != 1 || cursorAnc[p] || p.Time >= cutoff {
				break
			}
			start = p
		}
		branch := collectDescendants(start)
		if !r.approved("dead-branch", branch) {
			continue
		}
		erased = append(erased, s.Erase(start)...)
	}
	r.hideUnreferenced(t, erased)
	if len(erased) == 0 {
		return nil, nil
	}
	return erased, t.LogReclaim()
}

func collectDescendants(rec *history.Record) []*history.Record {
	var out []*history.Record
	seen := map[*history.Record]bool{}
	var walk func(x *history.Record)
	walk = func(x *history.Record) {
		if seen[x] {
			return
		}
		seen[x] = true
		out = append(out, x)
		for _, c := range x.Children() {
			walk(c)
		}
	}
	walk(rec)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// hideUnreferenced hides the removed records' outputs unless a retained
// record in the thread still references them.
func (r *Reclaimer) hideUnreferenced(t *activity.Thread, removed []*history.Record) {
	still := map[oct.Ref]bool{}
	for _, rec := range t.Stream().Records() {
		for _, ref := range rec.Inputs {
			still[ref] = true
		}
		for _, ref := range rec.Outputs {
			still[ref] = true
		}
	}
	for _, rec := range removed {
		for _, ref := range rec.Outputs {
			if !still[ref] {
				_ = r.store.Hide(ref)
			}
		}
	}
}

// Stats summarizes one reclamation sweep slice.
type Stats struct {
	Versions        int   // versions physically reclaimed
	Bytes           int64 // payload bytes released
	Archived        int
	Scanned         int // index records examined by the candidate scan
	MemoInvalidated int // memo entries dropped because they depended on reclaimed versions
}

// Sweep runs one reclamation slice — the background reclamation of
// §3.3.1 and §5.4. budget bounds the index records the slice examines
// (whole stripes, so a slice overshoots by at most one stripe's
// population); <= 0 sweeps the whole store. The cursor resumes where the
// last slice stopped, so repeated budgeted sweeps cycle the full store
// (docs/RECLAIM.md). Candidates — invisible versions whose last
// access is at least Grace ticks old — are physically deleted through
// oct.Store.ReclaimVersions, which WAL-logs each stripe's deletions
// (RecReclaim) before acknowledging them, then memo entries depending
// on the reclaimed versions are invalidated, then reclaimed objects are
// handed to the Archiver. An archive error is reported after the
// deletion is already durable (the version is gone either way — the
// archive is best-effort by design, docs/RECLAIM.md). Sweep is an
// acknowledgement point: the stripes' reclaim records are appended
// without waiting for the disk and made durable by one commit right
// after the deletion, before anything else runs, errors included.
func (r *Reclaimer) Sweep(budget int) (Stats, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cutoff := r.store.Clock() - r.policy.Grace
	refs, next, scanned := r.store.InvisibleSlice(cutoff, r.cursor, budget)
	r.cursor = next
	st := Stats{Scanned: scanned}
	if len(refs) == 0 {
		return st, nil
	}
	removed, rerr := r.store.ReclaimVersions(refs, cutoff)
	if cerr := r.store.WAL().Commit(); rerr == nil {
		rerr = cerr
	}
	reclaimed := make([]oct.Ref, len(removed))
	for i, obj := range removed {
		reclaimed[i] = oct.Ref{Name: obj.Name, Version: obj.Version}
		st.Versions++
		st.Bytes += int64(obj.Data.Size())
	}
	if r.policy.Memo != nil {
		st.MemoInvalidated = r.policy.Memo.Invalidate(reclaimed)
	}
	if rerr != nil {
		return st, rerr
	}
	if r.policy.Archiver != nil {
		for _, obj := range removed {
			if err := r.policy.Archiver.Archive(obj); err != nil {
				return st, fmt.Errorf("reclaim: archive %s@%d: %w", obj.Name, obj.Version, err)
			}
			st.Archived++
		}
	}
	return st, nil
}
