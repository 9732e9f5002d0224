package attr

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"papyrus/internal/oct"
)

func TestSetAndPeek(t *testing.T) {
	db := New(nil)
	ref := oct.Ref{Name: "alu", Version: 1}
	db.Set(ref, "area", "1200", "")
	e, ok := db.Peek(ref, "area")
	if !ok || e.Value != "1200" || e.Source != "set" {
		t.Errorf("entry %+v ok=%v", e, ok)
	}
	if _, ok := db.Peek(ref, "delay"); ok {
		t.Error("phantom attribute")
	}
}

func TestGetComputesAndCaches(t *testing.T) {
	calls := 0
	db := New(func(attr string, obj *oct.Object) (string, error) {
		calls++
		return "42", nil
	})
	store := oct.NewStore()
	obj, _ := store.Put("x", oct.TypeText, oct.Text("body"), "")
	ref := oct.Ref{Name: "x", Version: 1}
	v, err := db.Get(ref, "size", obj)
	if err != nil || v != "42" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	// Cached: the computer is not consulted again.
	if _, err := db.Get(ref, "size", nil); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("computer called %d times, want 1", calls)
	}
	e, _ := db.Peek(ref, "size")
	if !e.Computed || e.Source != "measured" {
		t.Errorf("entry %+v", e)
	}
}

func TestGetErrors(t *testing.T) {
	db := New(nil)
	if _, err := db.Get(oct.Ref{Name: "x"}, "a", nil); err == nil {
		t.Error("no hook: expected error")
	}
	db2 := New(func(attr string, obj *oct.Object) (string, error) {
		return "", fmt.Errorf("cannot measure")
	})
	store := oct.NewStore()
	obj, _ := store.Put("x", oct.TypeText, oct.Text("b"), "")
	if _, err := db2.Get(oct.Ref{Name: "x", Version: 1}, "a", obj); err == nil {
		t.Error("failing hook: expected error")
	}
	if _, err := db2.Get(oct.Ref{Name: "x", Version: 1}, "a", nil); err == nil {
		t.Error("nil object: expected error")
	}
}

func TestInherit(t *testing.T) {
	db := New(nil)
	v1 := oct.Ref{Name: "c", Version: 1}
	v2 := oct.Ref{Name: "c", Version: 2}
	db.Set(v1, "inputs", "8", "")
	db.Set(v1, "minterms", "40", "")
	n := db.Inherit(v1, v2, []string{"inputs", "outputs"})
	if n != 1 {
		t.Errorf("inherited %d, want 1", n)
	}
	e, ok := db.Peek(v2, "inputs")
	if !ok || e.Value != "8" || e.Source != "inherited" {
		t.Errorf("inherited entry %+v ok=%v", e, ok)
	}
	if _, ok := db.Peek(v2, "minterms"); ok {
		t.Error("minterms inherited but not in list")
	}
	// Existing values are not overwritten.
	db.Set(v2, "outputs", "3", "")
	db.Set(v1, "outputs", "9", "")
	db.Inherit(v1, v2, []string{"outputs"})
	e, _ = db.Peek(v2, "outputs")
	if e.Value != "3" {
		t.Errorf("inherit overwrote explicit value: %q", e.Value)
	}
}

func TestInvalidate(t *testing.T) {
	db := New(nil)
	ref := oct.Ref{Name: "x", Version: 1}
	db.Set(ref, "a", "1", "")
	db.Set(ref, "b", "2", "")
	db.Invalidate(ref, "a")
	if _, ok := db.Peek(ref, "a"); ok {
		t.Error("a survived invalidation")
	}
	if _, ok := db.Peek(ref, "b"); !ok {
		t.Error("b wrongly invalidated")
	}
	db.Invalidate(ref)
	if len(db.Attrs(ref)) != 0 {
		t.Error("full invalidation incomplete")
	}
}

func TestAttrsSortedAndLen(t *testing.T) {
	db := New(nil)
	ref := oct.Ref{Name: "x", Version: 1}
	db.Set(ref, "zeta", "1", "")
	db.Set(ref, "alpha", "2", "")
	attrs := db.Attrs(ref)
	if len(attrs) != 2 || attrs[0] != "alpha" {
		t.Errorf("attrs %v", attrs)
	}
	if db.Len() != 1 {
		t.Errorf("Len = %d", db.Len())
	}
}

func TestConcurrentAccess(t *testing.T) {
	db := New(func(attr string, obj *oct.Object) (string, error) { return "v", nil })
	store := oct.NewStore()
	obj, _ := store.Put("x", oct.TypeText, oct.Text("b"), "")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ref := oct.Ref{Name: "x", Version: 1}
			for j := 0; j < 100; j++ {
				db.Set(ref, fmt.Sprintf("a%d", i), "1", "")
				db.Get(ref, "computed", obj)
				db.Attrs(ref)
			}
		}(i)
	}
	wg.Wait()
}

// TestDBSemantics pins the database's observable behaviour, case by case:
// what each call leaves on one version, what Inherit reports, and what
// Len counts (including the empty entry Inherit leaves behind when it
// copies nothing).
func TestDBSemantics(t *testing.T) {
	v1 := oct.Ref{Name: "c", Version: 1}
	v2 := oct.Ref{Name: "c", Version: 2}
	missing := oct.Ref{Name: "gone", Version: 7}
	store := oct.NewStore()
	obj, _ := store.Put("c", oct.TypeText, oct.Text("body"), "")
	set := func(v string) Entry { return Entry{Value: v, Source: "set"} }
	inherited := func(v string) Entry { return Entry{Value: v, Source: "inherited"} }
	cases := []struct {
		name string
		// run acts on a fresh database and returns Inherit's count, if
		// it calls Inherit last.
		run       func(db *DB) int
		ref       oct.Ref
		want      map[string]Entry
		inherited int
		len       int
	}{
		{
			name: "set overwrites",
			run: func(db *DB) int {
				db.Set(v1, "area", "1", "")
				db.Set(v1, "area", "2", "floorplan")
				return 0
			},
			ref: v1, want: map[string]Entry{"area": {Value: "2", Source: "floorplan"}}, len: 1,
		},
		{
			name: "set overwrites a measured value",
			run: func(db *DB) int {
				_, _ = db.Get(v1, "area", obj)
				db.Set(v1, "area", "9", "")
				return 0
			},
			ref: v1, want: map[string]Entry{"area": set("9")}, len: 1,
		},
		{
			name: "get measures and caches",
			run: func(db *DB) int {
				_, _ = db.Get(v1, "area", obj)
				return 0
			},
			ref: v1, want: map[string]Entry{"area": {Value: "m:area", Computed: true, Source: "measured"}}, len: 1,
		},
		{
			name: "versions are distinct keys",
			run: func(db *DB) int {
				db.Set(v1, "area", "1", "")
				db.Set(v2, "area", "2", "")
				return 0
			},
			ref: v2, want: map[string]Entry{"area": set("2")}, len: 2,
		},
		{
			name: "inherit copies only listed attributes present at the source",
			run: func(db *DB) int {
				db.Set(v1, "inputs", "8", "")
				db.Set(v1, "minterms", "40", "measured")
				return db.Inherit(v1, v2, []string{"inputs", "outputs"})
			},
			ref: v2, want: map[string]Entry{"inputs": inherited("8")}, inherited: 1, len: 2,
		},
		{
			name: "inherit never overwrites",
			run: func(db *DB) int {
				db.Set(v1, "inputs", "8", "")
				db.Set(v1, "outputs", "3", "")
				db.Set(v2, "inputs", "5", "")
				return db.Inherit(v1, v2, []string{"inputs", "outputs"})
			},
			ref: v2, want: map[string]Entry{"inputs": set("5"), "outputs": inherited("3")}, inherited: 1, len: 2,
		},
		{
			name: "inherit skips a missing source without creating the target",
			run: func(db *DB) int {
				return db.Inherit(missing, v2, []string{"inputs"})
			},
			ref: v2, want: map[string]Entry{}, len: 0,
		},
		{
			name: "inherit that copies nothing leaves an empty entry",
			run: func(db *DB) int {
				db.Set(v1, "minterms", "40", "")
				return db.Inherit(v1, v2, []string{"inputs"})
			},
			ref: v2, want: map[string]Entry{}, len: 2,
		},
		{
			name: "invalidate named attributes",
			run: func(db *DB) int {
				db.Set(v1, "a", "1", "")
				db.Set(v1, "b", "2", "")
				db.Set(v1, "c", "3", "")
				db.Invalidate(v1, "a", "c", "absent")
				return 0
			},
			ref: v1, want: map[string]Entry{"b": set("2")}, len: 1,
		},
		{
			name: "invalidate every named attribute keeps the entry",
			run: func(db *DB) int {
				db.Set(v1, "a", "1", "")
				db.Invalidate(v1, "a")
				return 0
			},
			ref: v1, want: map[string]Entry{}, len: 1,
		},
		{
			name: "invalidate without names drops the entry",
			run: func(db *DB) int {
				db.Set(v1, "a", "1", "")
				db.Set(v2, "a", "1", "")
				db.Invalidate(v1)
				return 0
			},
			ref: v1, want: map[string]Entry{}, len: 1,
		},
		{
			name: "invalidate of an unknown version creates nothing",
			run: func(db *DB) int {
				db.Invalidate(missing, "a")
				db.Invalidate(missing)
				return 0
			},
			ref: missing, want: map[string]Entry{}, len: 0,
		},
		{
			name: "invalidated attribute is measured again",
			run: func(db *DB) int {
				db.Set(v1, "area", "1", "")
				db.Invalidate(v1, "area")
				_, _ = db.Get(v1, "area", obj)
				return 0
			},
			ref: v1, want: map[string]Entry{"area": {Value: "m:area", Computed: true, Source: "measured"}}, len: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := New(func(attr string, _ *oct.Object) (string, error) { return "m:" + attr, nil })
			if n := tc.run(db); n != tc.inherited {
				t.Errorf("Inherit copied %d, want %d", n, tc.inherited)
			}
			if db.Len() != tc.len {
				t.Errorf("Len = %d, want %d", db.Len(), tc.len)
			}
			names := make([]string, 0, len(tc.want))
			for a := range tc.want {
				names = append(names, a)
			}
			sort.Strings(names)
			if got := db.Attrs(tc.ref); !reflect.DeepEqual(got, names) {
				t.Errorf("Attrs = %v, want %v", got, names)
			}
			for a, want := range tc.want {
				if got, ok := db.Peek(tc.ref, a); !ok || got != want {
					t.Errorf("Peek(%s) = %+v, %v; want %+v", a, got, ok, want)
				}
			}
		})
	}
}

func TestAttrsSortedRegardlessOfInsertion(t *testing.T) {
	db := New(nil)
	ref := oct.Ref{Name: "x", Version: 1}
	for _, a := range []string{"zeta", "mid", "alpha", "beta"} {
		db.Set(ref, a, "1", "")
	}
	db.Inherit(ref, oct.Ref{Name: "x", Version: 2}, []string{"zeta", "alpha"})
	if got := db.Attrs(ref); !reflect.DeepEqual(got, []string{"alpha", "beta", "mid", "zeta"}) {
		t.Errorf("Attrs = %v", got)
	}
	if got := db.Attrs(oct.Ref{Name: "x", Version: 2}); !reflect.DeepEqual(got, []string{"alpha", "zeta"}) {
		t.Errorf("inherited Attrs = %v", got)
	}
	if got := db.Attrs(oct.Ref{Name: "none"}); got == nil || len(got) != 0 {
		t.Errorf("Attrs of an unknown version = %#v, want an empty slice", got)
	}
}

// TestConcurrentGetInherit runs measurement and inheritance across a ring
// of versions at once (CI runs it under -race). Each goroutine measures
// its own version, so afterwards every version holds its measurement.
func TestConcurrentGetInherit(t *testing.T) {
	const n = 8
	db := New(func(attr string, obj *oct.Object) (string, error) { return obj.Name, nil })
	store := oct.NewStore()
	obj, _ := store.Put("x", oct.TypeText, oct.Text("b"), "")
	refs := make([]oct.Ref, n)
	for i := range refs {
		refs[i] = oct.Ref{Name: "x", Version: i + 1}
	}
	db.Set(refs[0], "seed", "s", "")
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			next := refs[(i+1)%n]
			for j := 0; j < 200; j++ {
				if _, err := db.Get(refs[i], "size", obj); err != nil {
					t.Error(err)
					return
				}
				db.Inherit(refs[i], next, []string{"size", "seed"})
				db.Peek(next, "seed")
				db.Attrs(next)
				if j%50 == 0 {
					db.Invalidate(refs[i], "size")
				}
			}
		}(i)
	}
	wg.Wait()
	if db.Len() != n {
		t.Errorf("Len = %d, want %d", db.Len(), n)
	}
	for _, r := range refs {
		if e, ok := db.Peek(r, "size"); !ok || e.Value != "x" {
			t.Errorf("%s size = %+v, %v", r, e, ok)
		}
	}
}
