package reclaim

import (
	"fmt"
	"strings"
	"testing"

	"papyrus/internal/activity"
	"papyrus/internal/attr"
	"papyrus/internal/cad"
	"papyrus/internal/cad/logic"
	"papyrus/internal/history"
	"papyrus/internal/memo"
	"papyrus/internal/oct"
	"papyrus/internal/sprite"
	"papyrus/internal/task"
	"papyrus/internal/templates"
	"papyrus/internal/wal"
)

type env struct {
	store *oct.Store
	mgr   *activity.Manager
}

func newEnv(t *testing.T) *env {
	t.Helper()
	cluster, err := sprite.NewCluster(sprite.Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	store := oct.NewStore()
	tm, err := task.New(task.Config{
		Suite:     cad.NewSuite(),
		Store:     store,
		Cluster:   cluster,
		Templates: templates.Source(nil),
		AttrDB:    attr.New(cad.Measure),
	})
	if err != nil {
		t.Fatal(err)
	}
	return &env{store: store, mgr: activity.NewManager(store, tm)}
}

// editLoopThread builds a thread with an initial synthesis followed by n
// simulation "refinement" rounds (the Fig 5.9 shape).
func editLoopThread(t *testing.T, e *env, rounds int) (*activity.Thread, [][]*history.Record) {
	t.Helper()
	th := e.mgr.NewThread("iterate", "u")
	if _, err := e.store.Put("/spec", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(3)), "seed"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.store.Put("/cmd", oct.TypeText, oct.Text("set d0 1\nsim\n"), "seed"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.mgr.InvokeTask(th, "create-logic-description",
		map[string]string{"Spec": "/spec"},
		map[string]string{"Outlogic": "it.logic"}); err != nil {
		t.Fatal(err)
	}
	var roundRecs [][]*history.Record
	for i := 0; i < rounds; i++ {
		rec, err := e.mgr.InvokeTask(th, "logic-simulator",
			map[string]string{"Inlogic": "it.logic", "Commands": "/cmd"},
			map[string]string{"Report": "it.report"})
		if err != nil {
			t.Fatal(err)
		}
		roundRecs = append(roundRecs, []*history.Record{rec})
	}
	return th, roundRecs
}

func TestVerticalAging(t *testing.T) {
	e := newEnv(t)
	th, _ := editLoopThread(t, e, 2)
	recs := th.SortedRecords()
	cutoff := recs[1].Time // first two records are "old"
	r := New(e.store, Policy{})
	n, _ := r.VerticalAge(th, cutoff)
	if n != 1 {
		t.Fatalf("collapsed %d, want 1", n)
	}
	if !recs[0].Collapsed || len(recs[0].Steps) != 0 {
		t.Error("old record not collapsed")
	}
	if recs[1].Collapsed {
		t.Error("new record collapsed")
	}
	// The record itself (task-level view) survives.
	if th.Stream().Len() != 3 {
		t.Errorf("stream len %d", th.Stream().Len())
	}
}

func TestVerticalAgingApproval(t *testing.T) {
	e := newEnv(t)
	th, _ := editLoopThread(t, e, 1)
	r := New(e.store, Policy{Approve: func(string, []*history.Record) bool { return false }})
	if n, _ := r.VerticalAge(th, th.SortedRecords()[1].Time+1); n != 0 {
		t.Errorf("disapproved aging still collapsed %d", n)
	}
}

func TestHorizontalAging(t *testing.T) {
	e := newEnv(t)
	th, _ := editLoopThread(t, e, 3)
	recs := th.SortedRecords()
	r := New(e.store, Policy{})
	// Prune everything older than the last record; frontier/cursor are
	// protected.
	n, _ := r.HorizontalAge(th, recs[len(recs)-1].Time)
	if n != len(recs)-1 {
		t.Fatalf("pruned %d, want %d", n, len(recs)-1)
	}
	if th.Stream().Len() != 1 {
		t.Errorf("stream len %d, want 1", th.Stream().Len())
	}
	// The survivor still references it.logic as input; that object stays
	// visible even though its creating record is gone.
	survivors := th.Stream().Records()
	for _, ref := range survivors[0].Inputs {
		if vis, err := e.store.Visible(ref); err != nil || !vis {
			t.Errorf("retained input %s hidden (%v)", ref, err)
		}
	}
}

func TestIterationGC(t *testing.T) {
	e := newEnv(t)
	th, rounds := editLoopThread(t, e, 4)
	r := New(e.store, Policy{})
	removed, err := r.CollectIterations(th, IterationHint{Rounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	// The final round is kept; earlier unused rounds go.
	if removed != 3 {
		t.Fatalf("removed %d, want 3", removed)
	}
	if th.Stream().Len() != 2 { // synthesis + last round
		t.Errorf("stream len %d, want 2", th.Stream().Len())
	}
	// Removed reports are hidden; the kept round's report resolves.
	if _, err := th.ResolveInput("it.report"); err != nil {
		t.Errorf("kept round's output unresolvable: %v", err)
	}
	ref, _ := th.ResolveInput("it.report")
	if ref.Version != 4 {
		t.Errorf("kept version %d, want 4 (the representative round)", ref.Version)
	}
	for v := 1; v <= 3; v++ {
		if vis, _ := e.store.Visible(oct.Ref{Name: "it.report", Version: v}); vis {
			t.Errorf("old round report v%d still visible", v)
		}
	}
}

func TestIterationGCBadHint(t *testing.T) {
	e := newEnv(t)
	th, _ := editLoopThread(t, e, 1)
	r := New(e.store, Policy{})
	foreign := &history.Record{TaskName: "x"}
	foreign.Time = 1
	if _, err := r.CollectIterations(th, IterationHint{Rounds: [][]*history.Record{{foreign}}}); err == nil {
		t.Error("foreign hint accepted")
	}
}

func TestDeadBranchDetection(t *testing.T) {
	e := newEnv(t)
	th, _ := editLoopThread(t, e, 1)
	recs := th.SortedRecords()
	// Branch off the first record (an abandoned alternative).
	if err := th.MoveCursor(recs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := e.mgr.InvokeTask(th, "PLA-generation",
		map[string]string{"Inlogic": "it.logic"},
		map[string]string{"Outcell": "dead.pla"}); err != nil {
		t.Fatal(err)
	}
	deadTip := th.Cursor()
	// Move back to the main line and do more work so the dead branch ages.
	mainTip := recs[1]
	if err := th.MoveCursor(mainTip); err != nil {
		t.Fatal(err)
	}
	if _, err := e.mgr.InvokeTask(th, "logic-simulator",
		map[string]string{"Inlogic": "it.logic", "Commands": "/cmd"},
		map[string]string{"Report": "it.report"}); err != nil {
		t.Fatal(err)
	}
	r := New(e.store, Policy{})
	erased, _ := r.DeadBranches(th, deadTip.Time+1)
	if len(erased) != 1 {
		t.Fatalf("erased %d records, want 1 (the PLA branch)", len(erased))
	}
	if erased[0].TaskName != "PLA-generation" {
		t.Errorf("erased %q", erased[0].TaskName)
	}
	// Its output is hidden.
	if vis, _ := e.store.Visible(oct.Ref{Name: "dead.pla", Version: 1}); vis {
		t.Error("dead branch output still visible")
	}
	// The cursor's own branch is never collected.
	erased, _ = r.DeadBranches(th, e.store.Clock()+1000)
	for _, rec := range erased {
		anc := th.Stream().Ancestors(th.Cursor())
		if anc[rec] || rec == th.Cursor() {
			t.Error("cursor path erased")
		}
	}
}

type memArchive struct{ got []string }

func (a *memArchive) Archive(obj *oct.Object) error {
	a.got = append(a.got, obj.Name)
	return nil
}

func TestSweepObjects(t *testing.T) {
	store := oct.NewStore()
	store.Put("keep", oct.TypeText, oct.Text("payload"), "")
	store.Put("hide", oct.TypeText, oct.Text(strings.Repeat("x", 100)), "")
	store.Hide(oct.Ref{Name: "hide", Version: 1})
	arch := &memArchive{}
	r := New(store, Policy{Grace: 0, Archiver: arch})
	st, err := r.Sweep(0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Versions != 1 || st.Bytes != 100 || st.Archived != 1 {
		t.Errorf("stats %+v", st)
	}
	if len(arch.got) != 1 || arch.got[0] != "hide" {
		t.Errorf("archive %v", arch.got)
	}
	if _, err := store.Get(oct.Ref{Name: "hide", Version: 1}); err == nil {
		t.Error("swept object still present")
	}
	if _, err := store.Get(oct.Ref{Name: "keep"}); err != nil {
		t.Error("visible object swept")
	}
}

// syncedArchive counts objects handed over while the log still had
// unsynced bytes: the archive must only see deletions already durable.
type syncedArchive struct {
	l        *wal.Log
	got      int
	unsynced int
}

func (a *syncedArchive) Archive(*oct.Object) error {
	a.got++
	if a.l.SyncedBytes() != a.l.AppendedBytes() {
		a.unsynced++
	}
	return nil
}

// TestSweepCommitsOnce: under strict durability a sweep that reclaims
// across several stripes appends one record per stripe and acknowledges
// them all with a single fsync, before the archive sees any object.
func TestSweepCommitsOnce(t *testing.T) {
	l, err := wal.Open(wal.Options{Dir: t.TempDir(), SegmentBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	store := oct.NewStoreWithStripes(8)
	store.AttachWAL(l)
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("/n%d", i)
		if _, err := store.Put(name, oct.TypeText, oct.Text("payload"), ""); err != nil {
			t.Fatal(err)
		}
		if err := store.Hide(oct.Ref{Name: name, Version: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	fsyncs, appended := l.Fsyncs(), l.AppendedBytes()
	arch := &syncedArchive{l: l}
	st, err := New(store, Policy{Archiver: arch}).Sweep(0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Versions != 16 {
		t.Fatalf("swept %d versions, want 16", st.Versions)
	}
	if l.AppendedBytes() == appended {
		t.Fatal("sweep appended no reclaim records")
	}
	if s, a := l.SyncedBytes(), l.AppendedBytes(); s != a {
		t.Errorf("Sweep returned with SyncedBytes() = %d, AppendedBytes() = %d", s, a)
	}
	if d := l.Fsyncs() - fsyncs; d != 1 {
		t.Errorf("Sweep cost %d fsyncs, want 1", d)
	}
	if arch.got != 16 || arch.unsynced != 0 {
		t.Errorf("archive got %d objects, %d of them before the deletions were synced; want 16, 0", arch.got, arch.unsynced)
	}
}

func TestSweepRespectsGrace(t *testing.T) {
	store := oct.NewStore()
	store.Put("x", oct.TypeText, oct.Text("p"), "")
	store.Hide(oct.Ref{Name: "x", Version: 1})
	r := New(store, Policy{Grace: 1_000_000})
	st, err := r.Sweep(0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Versions != 0 {
		t.Errorf("swept %d versions within grace period", st.Versions)
	}
}

// TestStorageOverheadBounded is the core §5.4 claim: with reclamation the
// store stays near the live working set; without it, single-assignment
// storage grows with every iteration.
func TestStorageOverheadBounded(t *testing.T) {
	run := func(reclaim bool) int64 {
		e := newEnv(t)
		th, rounds := editLoopThread(t, e, 6)
		if !reclaim {
			return e.store.TotalBytes()
		}
		r := New(e.store, Policy{Grace: 0})
		if _, err := r.CollectIterations(th, IterationHint{Rounds: rounds}); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Sweep(0); err != nil {
			t.Fatal(err)
		}
		return e.store.TotalBytes()
	}
	with := run(true)
	without := run(false)
	if with >= without {
		t.Errorf("reclamation ineffective: with=%d without=%d", with, without)
	}
}

// TestSweepBudgetResumes: budgeted sweeps resume from the internal cursor
// and, repeated, reclaim the same set a single unbudgeted sweep would —
// while invalidating memo entries keyed by the reclaimed versions.
func TestSweepBudgetResumes(t *testing.T) {
	store := oct.NewStore()
	cache := memo.NewCache()
	var refs []oct.Ref
	for i := 0; i < 30; i++ {
		name := fmt.Sprintf("/rc/obj%02d", i)
		for v := 0; v < 2; v++ {
			if _, err := store.Put(name, oct.TypeText, oct.Text("payload"), "t"); err != nil {
				t.Fatal(err)
			}
		}
		ref := oct.Ref{Name: name, Version: 1}
		if err := store.Hide(ref); err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
		if !cache.PopulateTracked("key-"+name, &memo.Entry{
			Outputs: []memo.Output{{Name: "o", Type: oct.TypeText, Data: oct.Text("v")}},
		}, []string{ref.String()}) {
			t.Fatal("populate rejected")
		}
	}

	r := New(store, Policy{Grace: 0, Memo: cache})
	total := Stats{}
	sweeps := 0
	for total.Versions < len(refs) {
		st, err := r.Sweep(7)
		if err != nil {
			t.Fatal(err)
		}
		if st.Scanned == 0 && st.Versions == 0 {
			sweeps++
			if sweeps > 4*oct.DefaultStripes {
				t.Fatalf("budgeted sweeps stalled at %d/%d versions", total.Versions, len(refs))
			}
			continue
		}
		total.Versions += st.Versions
		total.Bytes += st.Bytes
		total.MemoInvalidated += st.MemoInvalidated
		sweeps++
	}
	if total.Versions != len(refs) {
		t.Fatalf("budgeted sweeps reclaimed %d versions, want %d", total.Versions, len(refs))
	}
	if total.MemoInvalidated != len(refs) {
		t.Errorf("sweeps invalidated %d memo entries, want %d", total.MemoInvalidated, len(refs))
	}
	if cache.Len() != 0 {
		t.Errorf("cache holds %d entries after sweeping every tracked version", cache.Len())
	}
	if sweeps < 2 {
		t.Errorf("budget 7 finished in %d sweep(s) — the budget did not slice the scan", sweeps)
	}
	if remaining, _, _ := store.InvisibleSlice(store.Clock(), 0, 0); len(remaining) != 0 {
		t.Errorf("%d invisible versions survived the full cycle", len(remaining))
	}
}
