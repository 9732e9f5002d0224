// Package obs is the observability layer of the Papyrus reproduction:
// dependency-free counters, fixed-bucket histograms, and a structured
// trace sink stamped with the sprite simulation's virtual time.
//
// Design constraints (documented in docs/OBSERVABILITY.md):
//
//   - nil-safety: every method on a nil *Registry or nil *Tracer is a
//     no-op, so subsystems carry optional observability handles and
//     existing call sites and tests need no setup;
//   - determinism: snapshots and exports iterate names in sorted order,
//     so two runs of a seeded workload produce byte-identical output;
//   - naming: metric names follow `subsystem.noun.verb` (counters) and
//     `subsystem.noun.unit` (histograms), e.g. `task.step.issue` and
//     `task.step.ticks`;
//   - the trace exports as Chrome trace_event JSON, so a task's
//     parallelism profile opens directly in chrome://tracing or Perfetto.
//
// The served front-end (internal/server) records its wire latencies and
// admission counters here too (server.* namespace) and serves the whole
// snapshot at GET /v1/stats (docs/SERVER.md).
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// DefaultBuckets are the histogram bucket upper bounds used when a
// histogram is created implicitly by Observe: exponential in virtual
// ticks, 1 .. 65536, plus an implicit overflow bucket.
var DefaultBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536}

// Registry holds named atomic counters and fixed-bucket histograms. The
// zero registry is unusable; a nil *Registry is a valid no-op sink.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*int64
	hists    map[string]*histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*int64),
		hists:    make(map[string]*histogram),
	}
}

// Inc adds 1 to the named counter. No-op on a nil registry.
func (r *Registry) Inc(name string) { r.Add(name, 1) }

// Add adds delta to the named counter, creating it on first use. Safe for
// concurrent use; no-op on a nil registry.
func (r *Registry) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		if c, ok = r.counters[name]; !ok {
			c = new(int64)
			r.counters[name] = c
		}
		r.mu.Unlock()
	}
	atomic.AddInt64(c, delta)
}

// Counter returns the current value of a counter (0 when absent or on a
// nil registry).
func (r *Registry) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if !ok {
		return 0
	}
	return atomic.LoadInt64(c)
}

// histogram is a fixed-bucket histogram: counts[i] tallies observations v
// with v <= bounds[i] (and > bounds[i-1]); counts[len(bounds)] is the
// overflow bucket.
type histogram struct {
	mu     sync.Mutex
	bounds []int64
	counts []int64
	sum    int64
	n      int64
	min    int64
	max    int64
}

// SetBuckets pre-registers a histogram with explicit ascending bucket
// upper bounds. When the histogram already exists with identical bounds
// its accumulated state is kept, so several subsystem instances sharing a
// registry (e.g. benchtool building one cluster per experiment case) can
// each declare the same histogram; differing bounds replace the state.
// No-op on a nil registry or non-ascending bounds.
func (r *Registry) SetBuckets(name string, bounds []int64) {
	if r == nil || len(bounds) == 0 {
		return
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.hists[name]; ok {
		prev.mu.Lock()
		same := len(prev.bounds) == len(bounds)
		for i := 0; same && i < len(bounds); i++ {
			same = prev.bounds[i] == bounds[i]
		}
		prev.mu.Unlock()
		if same {
			return
		}
	}
	h := &histogram{bounds: append([]int64(nil), bounds...)}
	h.counts = make([]int64, len(h.bounds)+1)
	r.hists[name] = h
}

// Observe records v into the named histogram, creating it with
// DefaultBuckets on first use. Safe for concurrent use; no-op on a nil
// registry.
func (r *Registry) Observe(name string, v int64) {
	if r == nil {
		return
	}
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		if h, ok = r.hists[name]; !ok {
			h = &histogram{bounds: DefaultBuckets}
			h.counts = make([]int64, len(h.bounds)+1)
			r.hists[name] = h
		}
		r.mu.Unlock()
	}
	h.mu.Lock()
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })
	h.counts[i]++
	h.sum += v
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	h.mu.Unlock()
}

// Bucket is one histogram bucket in a snapshot. Le is the inclusive upper
// bound; the overflow bucket has Le == -1.
type Bucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is the frozen state of one histogram.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Min     int64    `json:"min"`
	Max     int64    `json:"max"`
	Buckets []Bucket `json:"buckets"`
}

// Snapshot is a frozen, export-ready view of a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot freezes the registry. A nil registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = atomic.LoadInt64(c)
	}
	for name, h := range r.hists {
		h.mu.Lock()
		hs := HistogramSnapshot{Count: h.n, Sum: h.sum, Min: h.min, Max: h.max}
		for i, b := range h.bounds {
			if h.counts[i] > 0 {
				hs.Buckets = append(hs.Buckets, Bucket{Le: b, Count: h.counts[i]})
			}
		}
		if over := h.counts[len(h.bounds)]; over > 0 {
			hs.Buckets = append(hs.Buckets, Bucket{Le: -1, Count: over})
		}
		h.mu.Unlock()
		s.Histograms[name] = hs
	}
	return s
}

// WriteText writes the snapshot in a sorted, human-readable form (the
// `papyrus stats` command and the -stats flags print this).
func (r *Registry) WriteText(w io.Writer) error {
	return r.WriteTextFiltered(w, nil)
}

// WriteTextFiltered writes the snapshot like WriteText, restricted to the
// metric names keep returns true for (nil keeps everything). Counter and
// histogram headers count only the kept entries. internal/oracle uses it
// to leave the namespaces the determinism contract excludes out of every
// stats fingerprint (DESIGN.md §5b).
func (r *Registry) WriteTextFiltered(w io.Writer, keep func(name string) bool) error {
	s := r.Snapshot()
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		if keep == nil || keep(n) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	if _, err := fmt.Fprintf(w, "counters (%d):\n", len(names)); err != nil {
		return err
	}
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "  %-32s %d\n", n, s.Counters[n]); err != nil {
			return err
		}
	}
	hnames := make([]string, 0, len(s.Histograms))
	for n := range s.Histograms {
		if keep == nil || keep(n) {
			hnames = append(hnames, n)
		}
	}
	sort.Strings(hnames)
	if _, err := fmt.Fprintf(w, "histograms (%d):\n", len(hnames)); err != nil {
		return err
	}
	for _, n := range hnames {
		h := s.Histograms[n]
		if _, err := fmt.Fprintf(w, "  %-32s count=%d sum=%d min=%d max=%d\n", n, h.Count, h.Sum, h.Min, h.Max); err != nil {
			return err
		}
		for _, b := range h.Buckets {
			label := fmt.Sprintf("le %d", b.Le)
			if b.Le < 0 {
				label = "overflow"
			}
			if _, err := fmt.Fprintf(w, "    %-12s %d\n", label, b.Count); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteJSON writes the snapshot as indented JSON with sorted keys.
func (r *Registry) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
