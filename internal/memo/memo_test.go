package memo

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"papyrus/internal/history"
	"papyrus/internal/oct"
)

func TestNormalizeName(t *testing.T) {
	cases := map[string]string{
		"netlist":     "netlist",
		"m1#7":        "m1",
		"m1#12.s3":    "m1",
		"m1#3.s1.s2":  "m1",
		"weird#":      "weird#",      // no digits after '#'
		"rev#2b":      "rev#2b",      // digits are part of a token
		"/chip/alu@3": "/chip/alu@3", // versioned ref, no instance suffix
		"a#1#2":       "a#1",         // only the last suffix strips
		"plain#999":   "plain",
	}
	for in, want := range cases {
		if got := NormalizeName(in); got != want {
			t.Errorf("NormalizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func sampleKey() StepKey {
	return StepKey{
		Tool:    "misII",
		Options: []string{"-o", "opt,with,commas"},
		Inputs: []InputID{
			{Name: "/chip/a", Version: "/chip/a@2", Type: "logic", Digest: "abc"},
			{Name: "m1", Version: "content:def", Type: "logic", Digest: "def"},
		},
		Outputs: []string{"/chip/out", "m2"},
	}
}

func TestCanonicalRoundTrip(t *testing.T) {
	keys := []StepKey{
		{Tool: "bdsyn"},
		{Tool: "t", Options: []string{""}, Outputs: []string{"o"}},
		sampleKey(),
	}
	for _, k := range keys {
		got, err := decodeCanonical(k.Canonical())
		if err != nil {
			t.Fatalf("decode %+v: %v", k, err)
		}
		// Canonical form must survive re-encoding byte for byte.
		if string(got.Canonical()) != string(k.Canonical()) {
			t.Fatalf("re-encode mismatch for %+v", k)
		}
	}
}

func TestSumDistinguishes(t *testing.T) {
	base := sampleKey()
	mutations := []func(*StepKey){
		func(k *StepKey) { k.Tool = "misIII" },
		func(k *StepKey) { k.Options = []string{"-o", "opt,with", "commas"} }, // same bytes, split differently
		func(k *StepKey) { k.Options = nil },
		func(k *StepKey) { k.Inputs[0].Digest = "abd" },
		func(k *StepKey) { k.Inputs[0].Version = "/chip/a@3" },
		func(k *StepKey) { k.Inputs = k.Inputs[:1] },
		func(k *StepKey) { k.Outputs = []string{"m2", "/chip/out"} }, // order matters
	}
	seen := map[string]bool{base.Sum(): true}
	for i, mut := range mutations {
		k := sampleKey()
		mut(&k)
		sum := k.Sum()
		if seen[sum] {
			t.Errorf("mutation %d did not change the key", i)
		}
		seen[sum] = true
	}
	if again := sampleKey().Sum(); !seen[again] {
		t.Error("Sum is not deterministic")
	}
}

func TestCacheLookupPopulate(t *testing.T) {
	c := NewCache()
	if _, ok := c.Lookup("k"); ok {
		t.Fatal("hit on empty cache")
	}
	e := &Entry{Outputs: []Output{{Name: "o", Type: oct.TypeText, Data: oct.Text("payload")}}, Log: "ran"}
	if !c.Populate("k", e) {
		t.Fatal("first Populate rejected")
	}
	if c.Populate("k", &Entry{Outputs: []Output{{Name: "x", Type: oct.TypeText, Data: oct.Text("other")}}}) {
		t.Fatal("second Populate for same key accepted (first writer must win)")
	}
	if c.Populate("empty", &Entry{}) {
		t.Fatal("empty entry accepted")
	}
	got, ok := c.Lookup("k")
	if !ok || got.Log != "ran" || got.Outputs[0].Data.(oct.Text) != "payload" {
		t.Fatalf("Lookup returned %+v, %v", got, ok)
	}
	// A found entry counts as a hit only once the caller served it.
	if st := c.Snapshot(); st.Hits != 0 || st.BytesServed != 0 {
		t.Fatalf("Lookup alone counted a hit: %+v", st)
	}
	c.Hit(got)
	st := c.Snapshot()
	want := Stats{Entries: 1, Hits: 1, Misses: 1, BytesStored: 7, BytesServed: 7}
	if st != want {
		t.Fatalf("Snapshot = %+v, want %+v", st, want)
	}
}

// uncodable is a payload type with no registered codec.
type uncodable struct{}

func (uncodable) Size() int { return 1 }

func TestInputID(t *testing.T) {
	c := NewCache()
	stable := &oct.Object{Name: "/chip/a", Version: 2, Type: oct.TypeText, Data: oct.Text("x")}
	id := c.InputID(stable)
	if id.Name != "/chip/a" || id.Version != "/chip/a@2" || id.Digest == "" {
		t.Fatalf("stable InputID = %+v", id)
	}
	inter := &oct.Object{Name: "m1#7", Version: 1, Type: oct.TypeText, Data: oct.Text("x")}
	iid := c.InputID(inter)
	if iid.Name != "m1" || iid.Version != "content:"+iid.Digest || iid.Digest == "" {
		t.Fatalf("intermediate InputID = %+v", iid)
	}
	// Same content under a different instance suffix keys identically.
	iid2 := c.InputID(&oct.Object{Name: "m1#9", Version: 4, Type: oct.TypeText, Data: oct.Text("x")})
	if iid != iid2 {
		t.Fatalf("instance suffix leaked into the key: %+v vs %+v", iid, iid2)
	}
	opaque := c.InputID(&oct.Object{Name: "m1#7", Version: 3, Type: "bogus", Data: uncodable{}})
	if opaque.Digest != "" || opaque.Version != "opaque:m1#7@3" {
		t.Fatalf("opaque InputID = %+v", opaque)
	}
}

func TestWarmStep(t *testing.T) {
	store := oct.NewStore()
	in, err := store.Put("/w/in", oct.TypeText, oct.Text("spec"), "import")
	if err != nil {
		t.Fatal(err)
	}
	out, err := store.Put("/w/out", oct.TypeText, oct.Text("result"), "toolX")
	if err != nil {
		t.Fatal(err)
	}
	step := history.StepRecord{
		Tool:    "toolX",
		Options: []string{"-fast"},
		Inputs:  []oct.Ref{{Name: in.Name, Version: in.Version}},
		Outputs: []oct.Ref{{Name: out.Name, Version: out.Version}},
		Log:     "warm log",
	}
	c := NewCache()
	if !c.WarmStep(store, step) {
		t.Fatal("WarmStep rejected a clean step")
	}
	if c.WarmStep(store, step) {
		t.Fatal("WarmStep re-added an existing entry")
	}
	failed := step
	failed.ExitStatus = 1
	if c.WarmStep(store, failed) {
		t.Fatal("WarmStep accepted a failed step")
	}
	gone := step
	gone.Outputs = []oct.Ref{{Name: "/w/missing", Version: 1}}
	if c.WarmStep(store, gone) {
		t.Fatal("WarmStep accepted a step with dematerialized outputs")
	}

	// The warmed entry must sit under the same key the live issue path
	// would compute.
	key := StepKey{Tool: "toolX", Options: []string{"-fast"}}
	key.Inputs = []InputID{c.InputID(in)}
	key.Outputs = []string{"/w/out"}
	e, ok := c.Lookup(key.Sum())
	if !ok {
		t.Fatal("warmed entry not found under the live key")
	}
	if e.Log != "warm log" || !reflect.DeepEqual(e.Outputs[0].Data, oct.Text("result")) {
		t.Fatalf("warmed entry = %+v", e)
	}
}

func TestCacheConcurrency(t *testing.T) {
	c := NewCache()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%37)
				c.Populate(key, &Entry{Outputs: []Output{{Name: "o", Type: oct.TypeText, Data: oct.Text("v")}}})
				c.Lookup(key)
				c.InputID(&oct.Object{Name: fmt.Sprintf("n%d#%d", i%11, g), Version: i%5 + 1, Type: oct.TypeText, Data: oct.Text("x")})
			}
		}(g)
	}
	wg.Wait()
	if c.Len() != 37 {
		t.Fatalf("Len = %d, want 37", c.Len())
	}
}

// TestAdoptDigest: InputID over a version adopted from a cached output
// yields exactly the ID that encoding its payload does, computes the
// output's digest at most once, and promotes it into the digest memo.
func TestAdoptDigest(t *testing.T) {
	c := NewCache()
	e := &Entry{Outputs: []Output{{Name: "m1", Type: oct.TypeText, Data: oct.Text("mid")}}}
	if !c.Populate("k", e) {
		t.Fatal("entry rejected")
	}
	out := e.Output("m1")
	if out == nil || e.Output("m2") != nil {
		t.Fatal("Entry.Output lookup by name failed")
	}
	for _, v := range []int{1, 2} {
		obj := &oct.Object{Name: "m1#9", Version: v, Type: out.Type, Data: out.Data}
		c.Adopt(oct.Ref{Name: obj.Name, Version: obj.Version}, out)
		want := NewCache().InputID(obj)
		if got := c.InputID(obj); got != want {
			t.Fatalf("adopted InputID = %+v, want %+v", got, want)
		}
	}
	if out.digest.sum == "" {
		t.Error("adopted output's digest was not computed")
	}
	c.mu.RLock()
	adopted, digests := len(c.adopted), len(c.digests)
	c.mu.RUnlock()
	if adopted != 0 || digests != 2 {
		t.Errorf("after keying: %d adopted, %d digests; want 0 and 2", adopted, digests)
	}
}

// TestAdoptConcurrent: many workers materialize versions from one cached
// output and key them at once; the shared digest is computed once and
// every InputID agrees with the encode path (run under -race).
func TestAdoptConcurrent(t *testing.T) {
	c := NewCache()
	e := &Entry{Outputs: []Output{{Name: "m1", Type: oct.TypeText, Data: oct.Text("shared")}}}
	if !c.Populate("k", e) {
		t.Fatal("entry rejected")
	}
	want := NewCache().InputID(&oct.Object{Name: "m1#1", Version: 1, Type: oct.TypeText, Data: oct.Text("shared")})
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				got, ok := c.Lookup("k")
				if !ok {
					errs <- "entry vanished"
					return
				}
				out := got.Output("m1")
				ref := oct.Ref{Name: fmt.Sprintf("m1#%d", g), Version: i + 1}
				c.Adopt(ref, out)
				c.Hit(got)
				id := c.InputID(&oct.Object{Name: ref.Name, Version: ref.Version, Type: out.Type, Data: out.Data})
				if id.Version != want.Version || id.Digest != want.Digest {
					errs <- fmt.Sprintf("InputID %+v, want %+v", id, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	if st := c.Snapshot(); st.Hits != 800 {
		t.Errorf("Hits = %d, want 800", st.Hits)
	}
}
