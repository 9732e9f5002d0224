package main

// serve.go is E13: the served-system load generator. It boots a papyrusd
// server (internal/server) in-process on a loopback listener and drives
// N concurrent designer sessions through the wire path with
// internal/client — open session, import seed objects, submit a TDL
// task through admission control, read back history, close — measuring
// wire latency (p50/p99 per request class) and sustained engine
// throughput (steps/sec). The workload is seeded and per-session
// namespaced, so the per-shard version maps it leaves behind are
// byte-identical across runs; wall-clock latency is the one
// host-dependent column (EXPERIMENTS.md E13, like E11).

import (
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"papyrus/internal/client"
	"papyrus/internal/obs"
	"papyrus/internal/oct"
	"papyrus/internal/oracle"
	"papyrus/internal/server"
)

var (
	serveSessions int
	serveShards   int
	serveWorkers  int
	serveTenants  int
	serveRate     float64
	serveBurst    float64
	serveQueue    int
	serveMin      float64
	serveP99      float64
)

// serveRow is the E13 result table (one row per run, plus the JSON file
// carries the per-request-class latency breakdown).
type serveRow struct {
	Sessions int `json:"sessions"`
	Shards   int `json:"shards"`
	Workers  int `json:"workers"`
	Tenants  int `json:"tenants"`
	// Steps and StepsPerSec measure engine work completed through the
	// wire; WallMS is the whole drive.
	Steps       int64   `json:"steps"`
	WallMS      float64 `json:"wall_ms"`
	StepsPerSec float64 `json:"steps_per_sec"`
	// TaskP50MS/TaskP99MS are the task-submission wire latencies — the
	// full path: admission queue, engine, JSON encode.
	TaskP50MS float64 `json:"task_p50_ms"`
	TaskP99MS float64 `json:"task_p99_ms"`
	// AllP50MS/AllP99MS cover every request class.
	AllP50MS float64 `json:"all_p50_ms"`
	AllP99MS float64 `json:"all_p99_ms"`
	// Throttled and Shed count admission-control rejections the clients
	// retried through; Retries is the client-side retry total.
	Throttled int64 `json:"throttled"`
	Shed      int64 `json:"shed"`
	Retries   int64 `json:"retries"`
	// VersionSHA fingerprints the concatenated per-shard version maps:
	// the workload is deterministic, so repeated runs must match.
	VersionSHA string `json:"version_sha256"`
}

// expServe is E13. Latency is measured client-side around each wire
// call and recorded in microsecond histograms; quantiles come from
// obs.HistogramSnapshot.Quantile.
func expServe() {
	fmt.Println("## E13: served-system load — concurrent designer sessions through the papyrusd wire path")
	fmt.Printf("(%d sessions over %d tenants, %d shards, %d admission workers; latency is wall-clock, fingerprint is deterministic)\n",
		serveSessions, serveTenants, serveShards, serveWorkers)

	reg := obs.NewRegistry()
	srv, err := server.New(server.Config{
		Shards:           serveShards,
		Nodes:            4,
		DisableInference: true,
		ExtraTemplates:   map[string]string{"Fanout4": fanoutTemplate},
		Admission: server.AdmissionConfig{
			RatePerSec: serveRate,
			Burst:      serveBurst,
			MaxQueue:   serveQueue,
			Workers:    serveWorkers,
		},
		Metrics: reg,
	})
	must(err)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	must(err)
	httpSrv := &http.Server{Handler: srv}
	go func() { _ = httpSrv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	// Client-side latency histograms, microseconds.
	lat := obs.NewRegistry()
	usBuckets := []int64{100, 200, 400, 800, 1600, 3200, 6400, 12800, 25600, 51200,
		102400, 204800, 409600, 819200, 1638400, 3276800, 6553600, 13107200, 26214400}
	for _, h := range []string{"e13.open.us", "e13.import.us", "e13.task.us", "e13.history.us", "e13.close.us", "e13.all.us"} {
		lat.SetBuckets(h, usBuckets)
	}
	var retries int64
	var retriesMu sync.Mutex
	timed := func(name string, f func() error) error {
		start := time.Now()
		err := f()
		us := time.Since(start).Microseconds()
		lat.Observe(name, us)
		lat.Observe("e13.all.us", us)
		return err
	}

	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, serveSessions)
	for i := 0; i < serveSessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := client.New(base)
			// The load generator must finish every session even under a
			// deliberately tight -serverate: give throttled submits a deep
			// retry budget with a trimmed backoff.
			cl.RetryBudget = 100
			cl.Backoff = func(hint time.Duration) {
				retriesMu.Lock()
				retries++
				retriesMu.Unlock()
				time.Sleep(hint / 4) // trimmed backoff keeps the drive moving
			}
			tenant := fmt.Sprintf("t%02d", i%serveTenants)
			ns := fmt.Sprintf("/e13/%s/s%d", tenant, i)
			var info server.SessionInfo
			run := func() error {
				if err := timed("e13.open.us", func() error {
					var err error
					info, err = cl.OpenSession(tenant, fmt.Sprintf("e13-%d", i))
					return err
				}); err != nil {
					return err
				}
				inputs := map[string]string{}
				for _, n := range []string{"A", "B", "C", "D"} {
					name := ns + "/" + strings.ToLower(n)
					if err := timed("e13.import.us", func() error {
						_, err := cl.Import(info.ID, server.ImportRequest{Name: name, Kind: "shifter", Width: 4})
						return err
					}); err != nil {
						return err
					}
					inputs[n] = name
				}
				var steps int
				if err := timed("e13.task.us", func() error {
					rec, err := cl.SubmitTask(info.ID, server.TaskRequest{
						Task:   "Fanout4",
						Inputs: inputs,
						Outputs: map[string]string{
							"O1": ns + "/o1", "O2": ns + "/o2", "O3": ns + "/o3", "O4": ns + "/o4",
						},
					})
					if err != nil {
						return err
					}
					steps = len(rec.Steps)
					return nil
				}); err != nil {
					return err
				}
				if steps != 4 {
					return fmt.Errorf("session %d: %d steps recorded, want 4", i, steps)
				}
				if err := timed("e13.history.us", func() error {
					recs, err := cl.History(info.ID)
					if err != nil {
						return err
					}
					if len(recs) != 1 {
						return fmt.Errorf("session %d: %d history records, want 1", i, len(recs))
					}
					return nil
				}); err != nil {
					return err
				}
				return timed("e13.close.us", func() error { return cl.CloseSession(info.ID) })
			}
			errs[i] = run()
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	for i, err := range errs {
		if err != nil {
			log.Fatalf("serve: session %d failed: %v", i, err)
		}
	}

	stores := make([]*oct.Store, serveShards)
	for i := range stores {
		stores[i] = srv.ShardSystem(i).Store
	}
	versionSHA := oracle.Sharded(stores...)
	must(httpSrv.Close())
	must(srv.Close())

	snap := lat.Snapshot()
	q := func(h string, quantile float64) float64 {
		return float64(snap.Histograms[h].Quantile(quantile)) / 1000
	}
	steps := reg.Counter("task.step.complete")
	row := serveRow{
		Sessions:    serveSessions,
		Shards:      serveShards,
		Workers:     serveWorkers,
		Tenants:     serveTenants,
		Steps:       steps,
		WallMS:      float64(wall.Microseconds()) / 1000,
		StepsPerSec: float64(steps) / wall.Seconds(),
		TaskP50MS:   q("e13.task.us", 0.50),
		TaskP99MS:   q("e13.task.us", 0.99),
		AllP50MS:    q("e13.all.us", 0.50),
		AllP99MS:    q("e13.all.us", 0.99),
		Throttled:   reg.Counter("server.admit.throttle"),
		Shed:        reg.Counter("server.admit.shed"),
		Retries:     retries,
		VersionSHA:  versionSHA,
	}

	fmt.Println("sessions | steps | wall ms | steps/sec | task p50 ms | task p99 ms | all p99 ms | throttled | shed | retries | versions")
	fmt.Printf("%8d | %5d | %7.1f | %9.1f | %11.2f | %11.2f | %10.2f | %9d | %4d | %7d | %s\n",
		row.Sessions, row.Steps, row.WallMS, row.StepsPerSec,
		row.TaskP50MS, row.TaskP99MS, row.AllP99MS,
		row.Throttled, row.Shed, row.Retries, row.VersionSHA[:12])
	fmt.Println("request class | p50 ms | p99 ms | count")
	for _, h := range []string{"e13.open.us", "e13.import.us", "e13.task.us", "e13.history.us", "e13.close.us"} {
		hs := snap.Histograms[h]
		fmt.Printf("%13s | %6.2f | %6.2f | %5d\n",
			strings.TrimSuffix(strings.TrimPrefix(h, "e13."), ".us"), q(h, 0.50), q(h, 0.99), hs.Count)
	}

	writeRows("serve", []serveRow{row})

	wantSteps := int64(serveSessions) * 4
	if steps != wantSteps {
		log.Fatalf("serve gate: %d steps completed, want %d (every session must run its 4-step task)", steps, wantSteps)
	}
	if serveMin > 0 && row.StepsPerSec < serveMin {
		gateFail("serve gate: %.1f steps/sec < required %.1f", row.StepsPerSec, serveMin)
	}
	if serveP99 > 0 && row.TaskP99MS > serveP99 {
		gateFail("serve gate: task p99 %.1f ms > ceiling %.1f ms", row.TaskP99MS, serveP99)
	}

	var md strings.Builder
	md.WriteString("### E13 serve: wire-path load\n\n")
	md.WriteString("| sessions | steps | steps/sec | task p50 ms | task p99 ms | all p99 ms | throttled | shed | retries |\n")
	md.WriteString("|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n")
	fmt.Fprintf(&md, "| %d | %d | %.1f | %.2f | %.2f | %.2f | %d | %d | %d |\n\n",
		row.Sessions, row.Steps, row.StepsPerSec, row.TaskP50MS, row.TaskP99MS,
		row.AllP99MS, row.Throttled, row.Shed, row.Retries)
	md.WriteString("| request class | p50 ms | p99 ms | count |\n|:---|---:|---:|---:|\n")
	for _, h := range []string{"e13.open.us", "e13.import.us", "e13.task.us", "e13.history.us", "e13.close.us"} {
		fmt.Fprintf(&md, "| %s | %.2f | %.2f | %d |\n",
			strings.TrimSuffix(strings.TrimPrefix(h, "e13."), ".us"), q(h, 0.50), q(h, 0.99), snap.Histograms[h].Count)
	}
	md.WriteString("\n")
	appendSummary(md.String())
}
