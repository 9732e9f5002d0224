package oracle

import (
	"testing"

	"papyrus/internal/workload"
)

// TestWorkloadFloor is E15 (EXPERIMENTS.md E15, docs/WORKLOADS.md): every
// workload profile expanded from one spec runs twice in-process at 1
// worker (repeat), once at 4 (worker invariance) and once over the wire
// at 4 (cross-path). Every cell must leave the reference's fingerprint
// and step count. The profile's best in-process cell must reach 200
// steps/sec.
func TestWorkloadFloor(t *testing.T) {
	const floor = 200.0
	for _, profile := range workload.Profiles() {
		t.Run(profile, func(t *testing.T) {
			spec := workload.Spec{Profile: profile, Seed: 7, Sessions: 4, Depth: 6, Fanout: 4}
			run := func(c Cell) (Result, float64) {
				res, err := Run(c)
				if err != nil {
					t.Fatalf("workers=%d wire=%v: %v", c.Workers, c.Wire, err)
				}
				return res, float64(res.Steps) / res.Wall.Seconds()
			}
			ref, best := run(Cell{Spec: spec, Workers: 1})
			for _, c := range []Cell{
				{Spec: spec, Workers: 1},
				{Spec: spec, Workers: 4},
				{Spec: spec, Workers: 4, Wire: true},
			} {
				res, stepsPerSec := run(c)
				t.Logf("workers=%d wire=%v: %d rounds, %d steps, %.1f steps/sec",
					c.Workers, c.Wire, res.Rounds, res.Steps, stepsPerSec)
				if d := res.Diff(ref.Fingerprint); d != "" {
					t.Errorf("workers=%d wire=%v diverged: %s", c.Workers, c.Wire, d)
				}
				if res.Steps != ref.Steps {
					t.Errorf("workers=%d wire=%v completed %d steps, reference %d", c.Workers, c.Wire, res.Steps, ref.Steps)
				}
				// The repeat cell is a gate, not a measurement.
				if c.Workers > 1 && !c.Wire {
					best = max(best, stepsPerSec)
				}
			}
			bound(t, best >= floor, "best in-process cell %.1f steps/sec, floor %.1f", best, floor)
		})
	}
}
