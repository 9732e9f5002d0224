package render

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"papyrus/internal/history"
)

var update = flag.Bool("update", false, "rewrite golden files")

// controlStreamCases builds the streams whose Fig 5.1 renderings are
// pinned byte for byte in testdata/controlstream_<name>.golden.
var controlStreamCases = []struct {
	name  string
	build func() (*history.Stream, *history.Record)
}{
	{"forks", func() (*history.Stream, *history.Record) {
		s := history.NewStream()
		a := s.Append(&history.Record{TaskName: "create-logic", Time: 100}, nil)
		b := s.Append(&history.Record{TaskName: "simulate", Time: 200}, a)
		s.Append(&history.Record{TaskName: "pla-gen", Time: 300}, a)
		s.Append(&history.Record{TaskName: "place", Time: 400}, b)
		c := s.Append(&history.Record{TaskName: "route", Time: 500}, b)
		s.Append(&history.Record{TaskName: "second-root", Time: 600}, nil)
		return s, c
	}},
	{"insert_before", func() (*history.Stream, *history.Record) {
		// Splicing puts a higher ID ahead of its siblings, in a child
		// list and in the root list.
		s := history.NewStream()
		a := s.Append(&history.Record{TaskName: "a", Time: 1}, nil)
		b := s.Append(&history.Record{TaskName: "b", Time: 2}, a)
		s.Append(&history.Record{TaskName: "c", Time: 3}, a)
		r2 := s.Append(&history.Record{TaskName: "root2", Time: 4}, nil)
		mid, err := s.InsertBefore(&history.Record{TaskName: "spliced", Time: 5}, a, b)
		if err != nil {
			panic(err)
		}
		if _, err := s.InsertBefore(&history.Record{TaskName: "new-root", Time: 6}, nil, a); err != nil {
			panic(err)
		}
		if _, err := s.InsertBefore(&history.Record{TaskName: "new-root2", Time: 7}, nil, r2); err != nil {
			panic(err)
		}
		return s, mid
	}},
	{"erased", func() (*history.Stream, *history.Record) {
		s := history.NewStream()
		a := s.Append(&history.Record{TaskName: "a", Time: 10}, nil)
		b := s.Append(&history.Record{TaskName: "b", Time: 20}, a)
		s.Append(&history.Record{TaskName: "b-child", Time: 30}, b)
		c := s.Append(&history.Record{TaskName: "c", Time: 40}, a)
		s.Append(&history.Record{TaskName: "d", Time: 50}, a)
		s.Erase(b)
		return s, c
	}},
	{"see_above", func() (*history.Stream, *history.Record) {
		s := history.NewStream()
		a := s.Append(&history.Record{TaskName: "a", Time: 1}, nil)
		b := s.Append(&history.Record{TaskName: "b", Time: 2}, nil)
		j := s.Append(&history.Record{TaskName: "<join>", Time: 3}, a)
		history.LinkParent(j, b)
		s.Append(&history.Record{TaskName: "after-join", Time: 4}, j)
		return s, j
	}},
	{"annotated_collapsed", func() (*history.Stream, *history.Record) {
		s := history.NewStream()
		a := s.Append(&history.Record{TaskName: "a", Time: -5, Annotation: `say "hi"` + "\nnext line\t\x01é"}, nil)
		b := s.Append(&history.Record{TaskName: "b", Time: 7}, a)
		b.Collapsed = true
		c := s.Append(&history.Record{TaskName: "c", Time: 9, Annotation: "both"}, a)
		c.Collapsed = true
		return s, b
	}},
	{"initial_cursor", func() (*history.Stream, *history.Record) {
		s := history.NewStream()
		a := s.Append(&history.Record{TaskName: "a", Time: 1}, nil)
		s.Append(&history.Record{TaskName: "b", Time: 2}, a)
		return s, nil
	}},
	{"empty", func() (*history.Stream, *history.Record) {
		return history.NewStream(), nil
	}},
}

// TestControlStreamGolden pins ControlStream's output byte for byte.
// Regenerate with: go test ./internal/render -run Golden -update
func TestControlStreamGolden(t *testing.T) {
	for _, tc := range controlStreamCases {
		t.Run(tc.name, func(t *testing.T) {
			got := ControlStream(tc.build())
			path := filepath.Join("testdata", "controlstream_"+tc.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("ControlStream differs from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}

// BenchmarkControlStream redraws a depth-50 stream with a fork every
// tenth record, the browser view a designer reworks from.
func BenchmarkControlStream(b *testing.B) {
	s := history.NewStream()
	var cur *history.Record
	for i := 0; i < 50; i++ {
		parent := cur
		cur = s.Append(&history.Record{TaskName: "WLChain", Time: int64(i) * 100}, parent)
		if i%10 == 9 {
			s.Append(&history.Record{TaskName: "fork", Time: int64(i)*100 + 1}, parent)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ControlStream(s, cur)
	}
}
