package main

// workload.go is E15: the generated-scenario sweep. Every named workload
// profile (internal/workload, docs/WORKLOADS.md) is expanded from one
// seed and run as a table of internal/oracle cells — twice in-process at
// the first worker count (repeat gate), once at every other worker count
// (invariance gate), and once over the papyrusd wire path on a
// single-shard server (cross-path gate). Every cell of a profile must
// leave the same fingerprint (oracle.WireStatsExempt's wire cell is
// compared on its version map only); wall-clock throughput is the one
// host-dependent column (EXPERIMENTS.md E15).

import (
	"fmt"
	"log"
	"strings"

	"papyrus/internal/oracle"
	"papyrus/internal/workload"
)

// cellSpec holds the -seed, -sessions and -fanout flags that E15 and E17
// fill their cells' workload.Spec from; each sets its own profile and depth.
var cellSpec workload.Spec

var (
	wlProfiles string
	wlDepth    int
	wlWorkers  string
	wlMin      float64
)

// workloadRow is one (profile, path, workers) cell of BENCH_workload.json.
type workloadRow struct {
	Profile  string `json:"profile"`
	Seed     int64  `json:"seed"`
	Sessions int    `json:"sessions"`
	Depth    int    `json:"depth"`
	Fanout   int    `json:"fanout"`
	Rounds   int    `json:"rounds"`
	// Path is "core" (in-process engine) or "wire" (papyrusd loopback).
	Path    string `json:"path"`
	Workers int    `json:"workers"`
	// Steps and StepsPerSec measure completed engine work; WallMS is the
	// whole drive (host-dependent, excluded from the fingerprints).
	Steps       int64   `json:"steps"`
	WallMS      float64 `json:"wall_ms"`
	StepsPerSec float64 `json:"steps_per_sec"`
	// StatsSHA and VersionSHA are the oracle's stats and version-map
	// fingerprints; both must be identical across every cell of a
	// profile, in-process and wire alike.
	StatsSHA   string `json:"stats_sha256"`
	VersionSHA string `json:"version_sha256"`
}

// runWorkloadCell runs one cell and fails hard if it cannot complete.
func runWorkloadCell(c oracle.Cell) (workloadRow, oracle.Fingerprint) {
	res, err := oracle.Run(c)
	must(err)
	path := "core"
	if c.Wire {
		path = "wire"
	}
	return workloadRow{
		Profile:     c.Profile,
		Seed:        c.Seed,
		Sessions:    c.Sessions,
		Depth:       c.Depth,
		Fanout:      c.Fanout,
		Rounds:      res.Rounds,
		Path:        path,
		Workers:     c.Workers,
		Steps:       res.Steps,
		WallMS:      float64(res.Wall.Microseconds()) / 1000,
		StepsPerSec: float64(res.Steps) / res.Wall.Seconds(),
		StatsSHA:    res.Stats,
		VersionSHA:  res.Versions,
	}, res.Fingerprint
}

// expWorkload is E15. Fingerprint divergence is a hard failure; the only
// soft gate is the -wlmin throughput floor.
func expWorkload() {
	fmt.Println("## E15: generated workloads — every scenario profile, in-process and over the wire")
	fmt.Printf("(seed %d, %d sessions, depth %d, fanout %d; fingerprints must match across every cell of a profile)\n",
		cellSpec.Seed, cellSpec.Sessions, wlDepth, cellSpec.Fanout)
	profiles := workload.Profiles()
	if wlProfiles != "all" && wlProfiles != "" {
		profiles = nil
		for _, p := range strings.Split(wlProfiles, ",") {
			if p = strings.TrimSpace(p); p != "" {
				profiles = append(profiles, p)
			}
		}
	}
	workerCounts := parseIntList(wlWorkers)
	if len(workerCounts) == 0 {
		workerCounts = []int{1}
	}

	fmt.Println("profile | path | workers | rounds | steps | wall ms | steps/sec | fingerprints")
	var rows []workloadRow
	for _, profile := range profiles {
		spec := cellSpec
		spec.Profile, spec.Depth = profile, wlDepth
		ref, want := runWorkloadCell(oracle.Cell{Spec: spec, Workers: workerCounts[0]})
		// The first cell re-runs the reference (repeat gate) and is not a
		// row; the last worker count also runs over the wire.
		cells := []oracle.Cell{{Spec: spec, Workers: workerCounts[0]}}
		for _, workers := range workerCounts[1:] {
			cells = append(cells, oracle.Cell{Spec: spec, Workers: workers})
		}
		cells = append(cells, oracle.Cell{Spec: spec, Workers: workerCounts[len(workerCounts)-1], Wire: true})

		best, profileRows := ref, []workloadRow{ref}
		for i, c := range cells {
			row, got := runWorkloadCell(c)
			if c.Wire && profile == oracle.WireStatsExempt {
				got.Stats = want.Stats
			}
			if d := got.Diff(want); d != "" {
				log.Fatalf("workload %s: %s cell at workers=%d diverged: %s", profile, row.Path, c.Workers, d)
			}
			if row.Steps != ref.Steps {
				log.Fatalf("workload %s: %s cell at workers=%d completed %d steps, reference %d",
					profile, row.Path, c.Workers, row.Steps, ref.Steps)
			}
			if i == 0 {
				continue
			}
			if !c.Wire && row.StepsPerSec > best.StepsPerSec {
				best = row
			}
			profileRows = append(profileRows, row)
		}
		for _, row := range profileRows {
			fmt.Printf("%-11s | %-4s | %7d | %6d | %5d | %7.1f | %9.1f | ok (%.12s/%.12s)\n",
				row.Profile, row.Path, row.Workers, row.Rounds, row.Steps, row.WallMS, row.StepsPerSec,
				row.StatsSHA, row.VersionSHA)
		}
		rows = append(rows, profileRows...)
		if wlMin > 0 && best.StepsPerSec < wlMin {
			gateFail("workload gate: profile %s best cell %.1f steps/sec < required %.1f",
				profile, best.StepsPerSec, wlMin)
		}
	}

	writeRows("workload", rows)

	var md strings.Builder
	md.WriteString("### E15 workload: generated scenario profiles\n\n")
	md.WriteString("| profile | path | workers | rounds | steps | steps/sec |\n")
	md.WriteString("|:---|:---|---:|---:|---:|---:|\n")
	for _, r := range rows {
		fmt.Fprintf(&md, "| %s | %s | %d | %d | %d | %.1f |\n",
			r.Profile, r.Path, r.Workers, r.Rounds, r.Steps, r.StepsPerSec)
	}
	md.WriteString("\n")
	appendSummary(md.String())
}
