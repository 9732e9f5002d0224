// Package oracle owns the determinism contract (DESIGN.md §5b): every
// matrix and experiment that asserts two runs are indistinguishable
// fingerprints them here, under one exclusion rule.
package oracle

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"papyrus/internal/client"
	"papyrus/internal/core"
	"papyrus/internal/memo"
	"papyrus/internal/obs"
	"papyrus/internal/oct"
	"papyrus/internal/server"
	"papyrus/internal/workload"
)

// excluded lists the metric namespaces no fingerprint includes: memo.* is
// what a step-result cache adds, wal.* counts depend on how fsyncs group,
// and server.* holds wall-clock histograms that exist only on the wire.
var excluded = []string{"memo.", "wal.", "server."}

func sum(text string) string {
	s := sha256.Sum256([]byte(text))
	return hex.EncodeToString(s[:])
}

// StatsText is the registry's export without the excluded namespaces.
func StatsText(reg *obs.Registry) string {
	var b strings.Builder
	// Writes to a strings.Builder cannot fail.
	_ = reg.WriteTextFiltered(&b, func(name string) bool {
		for _, p := range excluded {
			if strings.HasPrefix(name, p) {
				return false
			}
		}
		return true
	})
	return b.String()
}

// Stats is the SHA-256 of StatsText.
func Stats(reg *obs.Registry) string { return sum(StatsText(reg)) }

// Versions is the store's version-map fingerprint.
func Versions(s *oct.Store) string { return s.Fingerprint() }

// Visible fingerprints the visible lines of the store's version map: the
// projection physical reclamation must never change.
func Visible(s *oct.Store) string {
	var b strings.Builder
	for _, line := range strings.Split(s.VersionMapText(), "\n") {
		if strings.Contains(line, " visible=true ") {
			b.WriteString(line + "\n")
		}
	}
	return sum(b.String())
}

// Fingerprint is one cell's deterministic outcome.
type Fingerprint struct{ Stats, Versions, Visible string }

// Diff names the first of Versions and Stats that differs from ref, or
// returns "" when both match.
func (f Fingerprint) Diff(ref Fingerprint) string {
	if f.Versions != ref.Versions {
		return fmt.Sprintf("version map %.12s vs %.12s", f.Versions, ref.Versions)
	}
	if f.Stats != ref.Stats {
		return fmt.Sprintf("stats %.12s vs %.12s", f.Stats, ref.Stats)
	}
	return ""
}

// Cell is a generated workload plus the engine knobs that must not show in
// its fingerprint. Stripes 0 is the store default; SweepEvery > 0 sweeps
// at every Nth round barrier, SweepBudget records per slice. A WAL cell
// is killed after the run and recovered from its log. A Wire cell runs on
// a single-shard papyrusd and takes no WAL, Stripes, sweeps or ForceRounds.
type Cell struct {
	workload.Spec
	Workers, Stripes        int
	Memo, WAL               bool
	SweepEvery, SweepBudget int
	ForceRounds, Wire       bool
}

// Result is a finished cell. Wall is host-dependent; Checkpoints holds
// live/written bytes after every round barrier of a round-driven
// in-process cell. Metrics and Store are the cell's registry and store.
type Result struct {
	Fingerprint
	Rounds      int
	Steps       int64
	Wall        time.Duration
	Checkpoints []float64
	Metrics     *obs.Registry
	Store       *oct.Store
}

func (r *Result) finish(sys *core.System, wall time.Duration) {
	r.Fingerprint = Fingerprint{Stats(r.Metrics), Versions(sys.Store), Visible(sys.Store)}
	r.Steps = r.Metrics.Counter("task.step.complete")
	r.Wall, r.Store = wall, sys.Store
}

// Run generates the cell's workload, drives it and fingerprints the
// outcome. A WAL cell fails unless its recovered version map equals the
// pre-crash one.
func Run(c Cell) (Result, error) {
	w, err := workload.Generate(c.Spec)
	if err != nil {
		return Result{}, err
	}
	res := Result{Rounds: w.Rounds, Metrics: obs.NewRegistry()}
	switch {
	case !c.Wire:
		err = runCore(w, c, &res)
	case c.WAL || c.Stripes != 0 || c.SweepEvery > 0 || c.ForceRounds:
		err = fmt.Errorf("oracle: a wire cell takes no WAL, stripes, sweeps or forced rounds")
	default:
		err = runWire(w, c, &res)
	}
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

func runCore(w *workload.Workload, c Cell, res *Result) error {
	cfg := w.CoreConfig(core.Config{
		Nodes: 4, Workers: c.Workers, StoreStripes: c.Stripes,
		DisableInference: true, Metrics: res.Metrics,
	})
	if c.Memo {
		cfg.Memo = memo.NewCache()
	}
	if c.WAL {
		dir, err := os.MkdirTemp("", "papyrus-oracle-wal-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		cfg.Durability = &core.DurabilityConfig{Dir: dir, FsyncEvery: 64, SegmentBytes: 1 << 20}
	}
	sys, err := core.New(cfg)
	if err != nil {
		return err
	}
	// For a WAL cell this only releases the killed log's file handle.
	defer sys.Close()
	opts := workload.Options{ForceRounds: c.ForceRounds, SweepEveryRounds: c.SweepEvery, SweepBudget: c.SweepBudget}
	// Probe only cells that are round-driven anyway: a probe forces the
	// round driver.
	if w.Coop || c.ForceRounds || c.SweepEvery > 0 {
		opts.OnRound = func(int) error {
			if written := sys.Store.TotalWrittenBytes(); written > 0 {
				res.Checkpoints = append(res.Checkpoints, float64(sys.Store.TotalBytes())/float64(written))
			}
			return nil
		}
	}
	start := time.Now()
	if err := workload.RunInProcess(sys, w, opts); err != nil {
		return err
	}
	res.finish(sys, time.Since(start))
	if !c.WAL {
		return nil
	}
	// Kill: replay the still-open log into a fresh system with a fresh
	// registry, so recovery adds nothing to the cell's metrics.
	cfg.Metrics, cfg.Memo = obs.NewRegistry(), nil
	rec, _, err := core.Recover(cfg, "")
	if err != nil {
		return fmt.Errorf("oracle: recover: %w", err)
	}
	defer rec.Close()
	if got := Versions(rec.Store); got != res.Versions {
		return fmt.Errorf("oracle: recovered version map %.12s, pre-crash %.12s", got, res.Versions)
	}
	return nil
}

// runWire drives the cell through a single-shard papyrusd on a loopback
// listener. One shard means designer i lands on engine session index i,
// as in-process, so the stores must match byte for byte.
func runWire(w *workload.Workload, c Cell, res *Result) error {
	srv, err := server.New(server.Config{
		Shards: 1, Nodes: 4, Workers: c.Workers, Memo: c.Memo,
		ExtraTemplates: w.Templates, DisableInference: !w.Inference,
		Fault: w.Fault, Retry: w.Retry,
		Admission: server.AdmissionConfig{Workers: 8, MaxQueue: 1024},
		Metrics:   res.Metrics,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv}
	go func() { _ = httpSrv.Serve(ln) }()
	defer httpSrv.Close()

	cl := client.New("http://" + ln.Addr().String())
	cl.RetryBudget = 100
	cl.Backoff = func(hint time.Duration) { time.Sleep(hint / 4) }
	start := time.Now()
	if err := workload.RunWire(cl, w, "wl-"+w.Spec.Profile); err != nil {
		return err
	}
	res.finish(srv.ShardSystem(0), time.Since(start))
	return nil
}
