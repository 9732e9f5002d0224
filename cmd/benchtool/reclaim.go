package main

// reclaim.go is E17: the bounded-memory soak (docs/RECLAIM.md,
// EXPERIMENTS.md E17). The deep-rework workload profile runs to large
// depth with the incremental reclaimer sweeping at every round barrier
// (grace 0, so candidate sets are exact at the barrier), and the
// experiment reports the live-set-vs-total-written bytes ratio at every
// round checkpoint. Gates:
//
//   - repeat: two swept runs produce identical stats + version-map
//     fingerprints (reclamation is deterministic);
//   - modulo-reclaimed: a sweep-free run's *visible* version map is
//     byte-identical to the swept run's — sweeping removes exactly the
//     invisible-past-grace versions and nothing else (version numbers
//     are never reused, so the visible lines cannot shift);
//   - bounded: at -rcdepth >= 128 the live/written ratio's peak over
//     the soak's second half must not exceed rcGrowth times its
//     first-half peak (CI ratchets the worst final ratio against
//     scripts/floors.txt through scripts/ratchet.sh reclaim);
//   - recovery: a WAL-armed swept run, killed and replayed through
//     core.Recover, converges to the pre-crash fingerprint — reclaim
//     records replay idempotently (the kill-at-every-byte matrix covers
//     every prefix; this covers the full log end-to-end) — and its
//     stats and version map equal the volatile swept run's.

import (
	"fmt"
	"log"
	"strings"

	"papyrus/internal/oracle"
	"papyrus/internal/workload"
)

// cellSpec holds the -seed, -sessions and -fanout flags that E17 fills
// its cells' workload.Spec from; it sets the profile and depth itself.
var cellSpec workload.Spec

var (
	rcDepth   int
	rcWorkers int
	rcSweep   int
	rcBudget  int
)

// rcGrowth bounds the second-half peak live/written ratio against the
// first-half peak. The gate runs at rcGrowthDepth and deeper, where
// both soak halves contain kept-chain rounds; shallower soaks have
// nothing to compare.
const (
	rcGrowth      = 1.05
	rcGrowthDepth = 128
)

// reclaimRow is one mode cell of BENCH_reclaim.json.
type reclaimRow struct {
	Mode     string `json:"mode"` // "swept", "unswept", or "durable"
	Seed     int64  `json:"seed"`
	Sessions int    `json:"sessions"`
	Depth    int    `json:"depth"`
	Rounds   int    `json:"rounds"`
	Steps    int64  `json:"steps"`
	// WrittenBytes is every payload byte ever stored; LiveBytes is what
	// the store still holds at the end. Ratio = live/written is the
	// bounded-memory figure of merit; Checkpoints samples it at every
	// round barrier (after the sweep, when one ran).
	WrittenBytes int64     `json:"written_bytes"`
	LiveBytes    int64     `json:"live_bytes"`
	Ratio        float64   `json:"ratio"`
	Checkpoints  []float64 `json:"checkpoints,omitempty"`
	// ReclaimedVersions/Bytes are the oct.reclaim.* counters: how much
	// the sweeps physically deleted.
	ReclaimedVersions int64   `json:"reclaimed_versions"`
	ReclaimedBytes    int64   `json:"reclaimed_bytes"`
	WallMS            float64 `json:"wall_ms"`
	StatsSHA          string  `json:"stats_sha256"`
	VersionSHA        string  `json:"version_sha256"`
	// VisibleSHA fingerprints only the visible version-map lines — the
	// sweep-invariant projection the modulo-reclaimed gate compares.
	VisibleSHA string `json:"visible_sha256"`
	// Recovered is set on the durable cell: the crash-replayed store
	// matched the pre-crash fingerprint.
	Recovered bool `json:"recovered,omitempty"`
}

// runReclaimCell drives one deep-rework soak. sweep arms barrier sweeps;
// durable arms a WAL, and oracle.Run kills the cell and recovers it.
func runReclaimCell(sweep, durable bool) (reclaimRow, oracle.Fingerprint) {
	spec := cellSpec
	spec.Profile, spec.Depth = "rework", rcDepth
	c := oracle.Cell{Spec: spec, Workers: rcWorkers, ForceRounds: true, SweepBudget: rcBudget, WAL: durable}
	mode := "unswept"
	if sweep {
		c.SweepEvery = rcSweep
		mode = "swept"
	}
	if durable {
		mode = "durable"
	}
	res, err := oracle.Run(c)
	must(err)
	row := reclaimRow{
		Mode:              mode,
		Seed:              spec.Seed,
		Sessions:          spec.Sessions,
		Depth:             spec.Depth,
		Rounds:            res.Rounds,
		Steps:             res.Steps,
		WrittenBytes:      res.Store.TotalWrittenBytes(),
		LiveBytes:         res.Store.TotalBytes(),
		Checkpoints:       res.Checkpoints,
		ReclaimedVersions: res.Metrics.Counter("oct.reclaim.versions"),
		ReclaimedBytes:    res.Metrics.Counter("oct.reclaim.bytes"),
		WallMS:            float64(res.Wall.Microseconds()) / 1000,
		StatsSHA:          res.Stats,
		VersionSHA:        res.Versions,
		VisibleSHA:        res.Visible,
		Recovered:         durable,
	}
	if row.WrittenBytes > 0 {
		row.Ratio = float64(row.LiveBytes) / float64(row.WrittenBytes)
	}
	return row, res.Fingerprint
}

// expReclaim is E17. Fingerprint and recovery divergence are hard
// failures; the growth gate is soft (rcGrowth) so CI's summary and
// table still flush.
func expReclaim() {
	fmt.Println("## E17: bounded-memory soak — incremental reclamation under deep rework")
	fmt.Printf("(seed %d, %d sessions, depth %d, fanout %d, sweep every %d round(s), budget %d)\n",
		cellSpec.Seed, cellSpec.Sessions, rcDepth, cellSpec.Fanout, rcSweep, rcBudget)
	fmt.Println("mode    | rounds | steps | written B | live B | ratio | reclaimed | gates")

	swept, want := runReclaimCell(true, false)
	if _, again := runReclaimCell(true, false); again != want {
		log.Fatalf("reclaim: repeat run diverged: %s", again.Diff(want))
	}
	unswept, _ := runReclaimCell(false, false)
	if unswept.VisibleSHA != swept.VisibleSHA {
		log.Fatalf("reclaim: sweep changed the visible version map (%.12s vs %.12s)",
			swept.VisibleSHA, unswept.VisibleSHA)
	}
	if unswept.Steps != swept.Steps {
		log.Fatalf("reclaim: sweep changed completed steps (%d vs %d)",
			swept.Steps, unswept.Steps)
	}
	durable, got := runReclaimCell(true, true)
	if d := got.Diff(want); d != "" {
		log.Fatalf("reclaim: WAL-armed run diverged from volatile: %s", d)
	}

	// Bounded-memory gates on the swept reference. The ratio oscillates
	// by design — every fourth OLAP chain is kept, so it steps up when
	// one lands — so "non-growing" compares the peak over the soak's
	// second half against the peak over its first half.
	n := len(swept.Checkpoints)
	if rcDepth >= rcGrowthDepth && n >= 2 {
		peak := func(cs []float64) float64 {
			m := cs[0]
			for _, c := range cs[1:] {
				if c > m {
					m = c
				}
			}
			return m
		}
		first, second := peak(swept.Checkpoints[:n/2]), peak(swept.Checkpoints[n/2:])
		if second > first*rcGrowth {
			gateFail("reclaim gate: live/written ratio peak grew %.4f -> %.4f (limit %.2fx)",
				first, second, rcGrowth)
		}
	}

	rows := []reclaimRow{swept, unswept, durable}
	for _, r := range rows {
		gate := "ok"
		if r.Mode == "durable" {
			gate = "ok (recovered)"
		}
		fmt.Printf("%-7s | %6d | %5d | %9d | %6d | %.4f | %9d | %s\n",
			r.Mode, r.Rounds, r.Steps, r.WrittenBytes, r.LiveBytes, r.Ratio,
			r.ReclaimedVersions, gate)
	}

	writeRows("reclaim", rows)
	// A stable line for scripts/ratchet.sh to ratchet on: the worst
	// final ratio across every sweep-enabled cell.
	maxRatio := 0.0
	for _, r := range rows {
		if r.Mode != "unswept" && r.Ratio > maxRatio {
			maxRatio = r.Ratio
		}
	}
	fmt.Printf("reclaim: max live/written ratio = %.4f\n", maxRatio)

	var md strings.Builder
	md.WriteString("### E17 reclaim: bounded-memory soak under deep rework\n\n")
	md.WriteString("| mode | rounds | steps | written B | live B | ratio | reclaimed versions | reclaimed B |\n")
	md.WriteString("|:---|---:|---:|---:|---:|---:|---:|---:|\n")
	for _, r := range rows {
		fmt.Fprintf(&md, "| %s | %d | %d | %d | %d | %.4f | %d | %d |\n",
			r.Mode, r.Rounds, r.Steps, r.WrittenBytes, r.LiveBytes, r.Ratio,
			r.ReclaimedVersions, r.ReclaimedBytes)
	}
	md.WriteString("\n")
	appendSummary(md.String())
}
