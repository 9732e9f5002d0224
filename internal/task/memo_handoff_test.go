package task

// Digest hand-off on memo hits (docs/CACHING.md): a hit passes each cached
// output's content digest to the version it materializes, so replaying a
// chain encodes each cached payload at most once instead of once per
// replayed step — with every key, hit and version byte-identical to the
// encode-every-input reference path.

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"papyrus/internal/cad"
	"papyrus/internal/memo"
	"papyrus/internal/obs"
	"papyrus/internal/oct"
)

// countedType is a test payload type whose codec counts its Marshal calls.
const countedType oct.Type = "memotest.counted"

type countedPayload string

func (p countedPayload) Size() int { return len(p) }

var countedMarshals atomic.Int64

func init() {
	oct.RegisterCodec(countedType, oct.Codec{
		Marshal: func(v oct.Value) ([]byte, error) {
			countedMarshals.Add(1)
			return []byte(v.(countedPayload)), nil
		},
		Unmarshal: func(b []byte) (oct.Value, error) { return countedPayload(b), nil },
	})
}

const handoffDepth = 6

// handoffChainTpl is a handoffDepth-deep chain of "grow" steps; each step
// appends to its input, so every intermediate carries distinct content.
func handoffChainTpl() string {
	var b strings.Builder
	b.WriteString("task Deep {A} {Out}\n")
	in := "A"
	for i := 1; i <= handoffDepth; i++ {
		out := fmt.Sprintf("m%d", i)
		if i == handoffDepth {
			out = "Out"
		}
		fmt.Fprintf(&b, "step {%d S%d} {%s} {%s} {grow -o %s %s}\n", i, i, in, out, out, in)
		in = out
	}
	return b.String()
}

type handoffRun struct {
	hits, misses int64
	marshals     int64 // codec Marshal calls during the replays
	versions     string
	snap         memo.Stats
}

// runHandoffChain records the deep chain once, then replays it replays
// times against the same cache.
func runHandoffChain(t *testing.T, handoff bool, replays int) handoffRun {
	t.Helper()
	defer func(prev bool) { memoHandoff = prev }(memoHandoff)
	memoHandoff = handoff

	cache := memo.NewCache()
	reg := obs.NewRegistry()
	e := newEnv(t, 2, map[string]string{"Deep": handoffChainTpl()}, func(c *Config) {
		c.Memo = cache
		c.Metrics = reg
	})
	runs := 0
	e.suite.Register(&cad.Tool{
		Name: "grow", Brief: "appends to its input", Man: "appends to its input",
		TSD:  cad.TSD{Writes: countedType},
		Cost: func(in []*oct.Object, opts []string) float64 { return 10 },
		Run: func(ctx *cad.Ctx) error {
			runs++
			return ctx.PutOutput(0, countedType, ctx.Inputs[0].Data.(countedPayload)+"+")
		},
	})
	a := e.seed(t, "a.spec", countedType, countedPayload("seed"))
	inv := Invocation{
		Task:    "Deep",
		Inputs:  map[string]oct.Ref{"A": a},
		Outputs: map[string]string{"Out": "deep.out"},
	}
	if _, err := e.mgr.RunTask(inv); err != nil {
		t.Fatal(err)
	}
	if runs != handoffDepth || cache.Len() != handoffDepth {
		t.Fatalf("cold run: %d tool runs, %d entries; want %d and %d", runs, cache.Len(), handoffDepth, handoffDepth)
	}
	before := countedMarshals.Load()
	for i := 0; i < replays; i++ {
		if _, err := e.mgr.RunTask(inv); err != nil {
			t.Fatal(err)
		}
	}
	if runs != handoffDepth {
		t.Fatalf("replays ran %d tool bodies, want 0", runs-handoffDepth)
	}
	return handoffRun{
		hits:     reg.Counter("memo.hit"),
		misses:   reg.Counter("memo.miss"),
		marshals: countedMarshals.Load() - before,
		versions: e.store.VersionMapText(),
		snap:     cache.Snapshot(),
	}
}

// TestMemoHandoffNoReencode: replaying a memoized chain encodes each
// cached payload at most once over all replays, where the reference path
// encodes every intermediate once per replayed step; hits, misses and the
// version map are identical on both paths.
func TestMemoHandoffNoReencode(t *testing.T) {
	const replays = 5
	got := runHandoffChain(t, true, replays)
	ref := runHandoffChain(t, false, replays)

	if got.marshals > handoffDepth {
		t.Errorf("replays called Marshal %d times, want at most %d (once per cached payload)", got.marshals, handoffDepth)
	}
	// The reference path digests every intermediate input of every replay.
	if want := int64(replays * (handoffDepth - 1)); ref.marshals != want {
		t.Errorf("reference path called Marshal %d times, want %d", ref.marshals, want)
	}
	if want := int64(replays * handoffDepth); got.hits != want || ref.hits != want {
		t.Errorf("memo.hit = %d (hand-off) / %d (reference), want %d", got.hits, ref.hits, want)
	}
	if got.misses != ref.misses {
		t.Errorf("memo.miss = %d (hand-off) vs %d (reference)", got.misses, ref.misses)
	}
	if got.versions != ref.versions {
		t.Errorf("version maps differ:\nhand-off:\n%s\nreference:\n%s", got.versions, ref.versions)
	}
	if got.snap != ref.snap {
		t.Errorf("cache snapshots differ: %+v (hand-off) vs %+v (reference)", got.snap, ref.snap)
	}
}

// TestMemoHandoffHitAccounting: an entry found under a step's key whose
// outputs do not match the step's is a miss in the cache's own counters
// as well as the registry's, and serves no bytes.
func TestMemoHandoffHitAccounting(t *testing.T) {
	// Record S1 once to learn the key the live path derives for it.
	first, _ := memoEnv(t, memo.NewCache(), nil, nil)
	a := first.seed(t, "a.spec", oct.TypeText, oct.Text("payload"))
	rec, err := first.mgr.RunTask(chainInv(a))
	if err != nil {
		t.Fatal(err)
	}
	s1 := rec.Steps[0]
	keyer := memo.NewCache()
	in, err := first.store.Peek(s1.Inputs[0])
	if err != nil {
		t.Fatal(err)
	}
	key := memo.StepKey{
		Tool: s1.Tool, Options: s1.Options,
		Inputs:  []memo.InputID{keyer.InputID(in)},
		Outputs: []string{memo.NormalizeName(s1.Outputs[0].Name)},
	}

	// Plant an entry of the right size but the wrong output name.
	cache := memo.NewCache()
	bad := &memo.Entry{Outputs: []memo.Output{{Name: "elsewhere", Type: oct.TypeText, Data: oct.Text("x")}}}
	if !cache.Populate(key.Sum(), bad) {
		t.Fatal("planted entry rejected")
	}
	reg := obs.NewRegistry()
	e, runs := memoEnv(t, cache, reg, nil)
	a2 := e.seed(t, "a.spec", oct.TypeText, oct.Text("payload"))
	if _, err := e.mgr.RunTask(chainInv(a2)); err != nil {
		t.Fatal(err)
	}
	if *runs != 3 {
		t.Errorf("tool runs = %d, want 3 (the mismatched entry must not be served)", *runs)
	}
	st := cache.Snapshot()
	if st.Hits != reg.Counter("memo.hit") || st.Misses != reg.Counter("memo.miss") {
		t.Errorf("cache counts %d hits / %d misses, registry %d / %d",
			st.Hits, st.Misses, reg.Counter("memo.hit"), reg.Counter("memo.miss"))
	}
	if st.Hits != 0 || st.Misses != 3 || st.BytesServed != 0 {
		t.Errorf("Snapshot = %+v, want 0 hits, 3 misses, 0 bytes served", st)
	}
}
