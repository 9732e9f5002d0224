package oracle

// The E11 scale matrix (EXPERIMENTS.md E11): N independent Fanout4
// sessions over one shared striped store. TestScaleFingerprints pins the
// matrix's stats and version-map fingerprints at every worker count and
// under every durability and memo setting; TestScaleOverlap measures how
// far extra workers overlap injected tool latency.

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"papyrus/internal/cad/logic"
	"papyrus/internal/core"
	"papyrus/internal/memo"
	"papyrus/internal/obs"
	"papyrus/internal/oct"
	"papyrus/internal/task"
	"papyrus/internal/workload"
)

// fanoutTemplate is the E11 unit of work: four independent one-step
// branches.
var fanoutTemplate = workload.FanTemplate("Fanout4", 4)

// bound fails the test on a missed wall-clock bound when assertBounds is
// set, and only logs it under the race detector.
func bound(t *testing.T, ok bool, format string, args ...any) {
	t.Helper()
	switch {
	case ok:
	case assertBounds:
		t.Errorf(format, args...)
	default:
		t.Logf("race build, bound not asserted: "+format, args...)
	}
}

// scaleCell is one E11 configuration. FsyncEvery > 0 arms a fresh
// write-ahead log that flushes every FsyncEvery acknowledgements (1 is
// strict); Memo arms a fresh step-result cache.
type scaleCell struct {
	Sessions, Workers int
	Latency           time.Duration
	FsyncEvery        int64
	Memo              bool
}

// scaleRow is one measured cell.
type scaleRow struct {
	Steps           int64
	Wall            time.Duration
	Stats, Versions string
}

func (r scaleRow) stepsPerSec() float64 { return float64(r.Steps) / r.Wall.Seconds() }

// runScaleCell executes N independent Fanout4 sessions against one shared
// store with the given worker count and returns the measured row.
func runScaleCell(t *testing.T, c scaleCell) scaleRow {
	t.Helper()
	reg := obs.NewRegistry()
	cfg := core.Config{
		Nodes:            4,
		Workers:          c.Workers,
		StepLatency:      c.Latency,
		DisableInference: true,
		Metrics:          reg,
		ExtraTemplates:   map[string]string{"Fanout4": fanoutTemplate},
	}
	if c.FsyncEvery > 0 {
		// A fresh log per cell: the point is the invariance of the
		// fingerprints, not the log's content.
		cfg.Durability = &core.DurabilityConfig{Dir: t.TempDir(), FsyncEvery: c.FsyncEvery}
	}
	if c.Memo {
		// A fresh cache per cell keeps the workload all-miss: the point is
		// that keying and populating change no fingerprint, not hit speed.
		cfg.Memo = memo.NewCache()
	}
	sys, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]core.SessionSpec, c.Sessions)
	for i := range specs {
		specs[i] = core.SessionSpec{
			Name: fmt.Sprintf("s%d", i),
			Run: func(s *core.Session) error {
				inputs := map[string]oct.Ref{}
				for _, n := range []string{"A", "B", "C", "D"} {
					obj, err := sys.Store.Put(fmt.Sprintf("/s%d/%s", s.Index, n),
						oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(4)), "seed")
					if err != nil {
						return err
					}
					inputs[n] = oct.Ref{Name: obj.Name, Version: obj.Version}
				}
				// Direct store writes acknowledge themselves: one commit
				// makes the four seed puts durable (a no-op without a log).
				if err := sys.Store.WAL().Commit(); err != nil {
					return err
				}
				outputs := map[string]string{}
				for _, o := range []string{"O1", "O2", "O3", "O4"} {
					outputs[o] = fmt.Sprintf("/s%d/%s", s.Index, strings.ToLower(o))
				}
				rec, err := s.Tasks.RunTask(task.Invocation{
					Task: "Fanout4", Inputs: inputs, Outputs: outputs,
				})
				if cerr := sys.Store.WAL().Commit(); err == nil {
					err = cerr
				}
				if err != nil {
					return err
				}
				if len(rec.Steps) != 4 {
					return fmt.Errorf("session %d: %d steps recorded, want 4", s.Index, len(rec.Steps))
				}
				return nil
			},
		}
	}
	start := time.Now()
	_, err = sys.RunSessions(specs)
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	row := scaleRow{Steps: reg.Counter("task.step.complete"), Wall: wall,
		Stats: Stats(reg), Versions: Versions(sys.Store)}
	if want := int64(4 * c.Sessions); row.Steps != want {
		t.Fatalf("%+v: %d steps completed, want %d", c, row.Steps, want)
	}
	return row
}

// TestScaleFingerprints pins the E11 fingerprints: one stats and version
// pair per session count, whatever the worker count, write-ahead logging
// or memoization. Latency is 0 because no fingerprint depends on it.
func TestScaleFingerprints(t *testing.T) {
	pinned := []struct {
		sessions        int
		stats, versions string
	}{
		{1, "fd50a31d3c71646608ed424f3b3d8dbd2774c270b7d79404fc2274f4c0cc1b62",
			"be1a42bf486ecda2e157b0c50f684c515f45c3f4fff77a6ff098ecee2110275d"},
		{8, "144ef89a2797ba61d693200f7ad7be2ec9a5472a3a5f42bd20750c6e55a5ae82",
			"377992bed706f13d7e981e704201fd489c4a544b0dab47103d8668f0476c3acd"},
		{64, "9244cd1973298fea2e10528b04bbbda9aed5ade1bb43ae530ace0c1875dcd73a",
			"e9da4a4c173d49d367046f83342df6741eaa3b65f73c05f2be8eb89bd569e3b1"},
	}
	variants := []struct {
		workers []int
		cell    scaleCell
	}{
		{[]int{1, 2, 4, 8}, scaleCell{}},
		{[]int{1, 8}, scaleCell{FsyncEvery: 1}},
		{[]int{1, 8}, scaleCell{FsyncEvery: 50}},
		{[]int{1, 8}, scaleCell{Memo: true}},
	}
	for _, p := range pinned {
		for _, v := range variants {
			for _, w := range v.workers {
				c := v.cell
				c.Sessions, c.Workers = p.sessions, w
				row := runScaleCell(t, c)
				if row.Stats != p.stats || row.Versions != p.versions {
					t.Errorf("%+v: fingerprints %.12s/%.12s, want %.12s/%.12s",
						c, row.Stats, row.Versions, p.stats, p.versions)
				}
			}
		}
	}
}

// TestScaleOverlap is E11's wall-clock half: with injected tool latency,
// extra workers overlap the sleeps. Each configuration runs a warm-up
// cell at 1 worker and then overlapRuns rounds of 1, 4 and 8 workers;
// every fingerprint must match the warm-up's. A worker count's
// throughput is the median of its runs: other packages' tests share the
// cores under `go test ./...`, and interleaving the worker counts spreads
// a busy spell over all of them instead of one. The 16-session cells
// must reach 3x at 8 workers, and where regress is set the 8-worker cell
// must hold 0.75x its best lower-worker cell (an over-provisioned pool
// must be free).
func TestScaleOverlap(t *testing.T) {
	const overlapRuns = 5
	const ms = time.Millisecond
	for _, tc := range []struct {
		name       string
		cell       scaleCell
		minSpeedup float64
		regress    float64
	}{
		{"16 sessions", scaleCell{Sessions: 16, Latency: 2 * ms}, 3, 0.75},
		{"16 sessions, group-commit WAL", scaleCell{Sessions: 16, Latency: 2 * ms, FsyncEvery: 50}, 3, 0},
		{"16 sessions, memo", scaleCell{Sessions: 16, Latency: 2 * ms, Memo: true}, 3, 0},
		{"1 session", scaleCell{Sessions: 1, Latency: 10 * ms}, 0, 0.75},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cell := func(workers int) scaleRow {
				c := tc.cell
				c.Workers = workers
				return runScaleCell(t, c)
			}
			warm := cell(1)
			runs := map[int][]float64{}
			for range overlapRuns {
				for _, w := range []int{1, 4, 8} {
					row := cell(w)
					if row.Stats != warm.Stats || row.Versions != warm.Versions {
						t.Errorf("%d workers: fingerprints %.12s/%.12s, warm-up %.12s/%.12s",
							w, row.Stats, row.Versions, warm.Stats, warm.Versions)
					}
					runs[w] = append(runs[w], row.stepsPerSec())
				}
			}
			sps := map[int]float64{}
			for w, r := range runs {
				slices.Sort(r)
				sps[w] = r[len(r)/2]
			}
			speedup := sps[8] / sps[1]
			lowerBest := max(sps[1], sps[4])
			t.Logf("median steps/sec at 1, 4, 8 workers: %.1f, %.1f, %.1f; 8 workers %.2fx 1 worker, %.2fx the best lower cell",
				sps[1], sps[4], sps[8], speedup, sps[8]/lowerBest)
			if tc.minSpeedup > 0 {
				bound(t, speedup >= tc.minSpeedup, "8 workers ran %.2fx 1 worker, floor %.2f", speedup, tc.minSpeedup)
			}
			if tc.regress > 0 {
				bound(t, sps[8] >= tc.regress*lowerBest, "8 workers ran %.2fx the best lower-worker cell, floor %.2f",
					sps[8]/lowerBest, tc.regress)
			}
		})
	}
}
