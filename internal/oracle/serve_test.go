package oracle

// TestServeLoad is E13 (EXPERIMENTS.md E13, docs/SERVER.md): it boots
// papyrusd in-process on a loopback listener and drives concurrent
// designer sessions through internal/client — open, import four seeds,
// submit Fanout4 through admission control, read back history, close.
// The workload is seeded and namespaced per session, so the per-shard
// version maps it leaves behind are pinned; wire latency and throughput
// are the host-dependent columns.

import (
	"fmt"
	"math"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"papyrus/internal/client"
	"papyrus/internal/obs"
	"papyrus/internal/server"
)

// sharded fingerprints a multi-shard server's stores as one: each version
// map in shard order, headed by its index.
func sharded(srv *server.Server, shards int) string {
	var b strings.Builder
	for i := range shards {
		fmt.Fprintf(&b, "shard %d\n%s", i, srv.ShardSystem(i).Store.VersionMapText())
	}
	return sum(b.String())
}

// quantile is the nearest-rank q-quantile of samples: the ceil(q·n)-th
// smallest.
func quantile(samples []time.Duration, q float64) time.Duration {
	s := slices.Clone(samples)
	slices.Sort(s)
	return s[max(1, int(math.Ceil(q*float64(len(s)))))-1]
}

// serveCell is one E13 drive: Sessions sessions spread over 16 tenants on
// 4 shards with 8 admission workers. Rate > 0 rate-limits each tenant,
// so submits are throttled and clients retry through 429s.
type serveCell struct {
	Sessions    int
	Rate, Burst float64
}

// serveResult is one finished drive. Latencies holds every request's
// wall-clock duration by class (open, import, task, history, close).
type serveResult struct {
	Steps, Throttled, Retries int64
	Wall                      time.Duration
	Latencies                 map[string][]time.Duration
	Versions                  string
}

func runServeCell(t *testing.T, c serveCell) serveResult {
	t.Helper()
	const shards, tenants = 4, 16
	reg := obs.NewRegistry()
	srv, err := server.New(server.Config{
		Shards:           shards,
		Nodes:            4,
		DisableInference: true,
		ExtraTemplates:   map[string]string{"Fanout4": fanoutTemplate},
		Admission: server.AdmissionConfig{
			RatePerSec: c.Rate,
			Burst:      c.Burst,
			MaxQueue:   1024,
			Workers:    8,
		},
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv}
	go func() { _ = httpSrv.Serve(ln) }()
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()

	var mu sync.Mutex
	lat := map[string][]time.Duration{}
	timed := func(class string, f func() error) error {
		start := time.Now()
		err := f()
		d := time.Since(start)
		mu.Lock()
		lat[class] = append(lat[class], d)
		mu.Unlock()
		return err
	}
	var retries atomic.Int64

	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, c.Sessions)
	for i := range c.Sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := client.New(base)
			// Every session must finish even under a deliberately tight
			// rate: give throttled submits a deep retry budget with a
			// trimmed backoff.
			cl.RetryBudget = 100
			cl.Backoff = func(hint time.Duration) {
				retries.Add(1)
				time.Sleep(hint / 4)
			}
			tenant := fmt.Sprintf("t%02d", i%tenants)
			ns := fmt.Sprintf("/e13/%s/s%d", tenant, i)
			var info server.SessionInfo
			errs[i] = func() error {
				if err := timed("open", func() error {
					var err error
					info, err = cl.OpenSession(tenant, fmt.Sprintf("e13-%d", i))
					return err
				}); err != nil {
					return err
				}
				inputs := map[string]string{}
				for _, n := range []string{"A", "B", "C", "D"} {
					name := ns + "/" + strings.ToLower(n)
					if err := timed("import", func() error {
						_, err := cl.Import(info.ID, server.ImportRequest{Name: name, Kind: "shifter", Width: 4})
						return err
					}); err != nil {
						return err
					}
					inputs[n] = name
				}
				if err := timed("task", func() error {
					rec, err := cl.SubmitTask(info.ID, server.TaskRequest{
						Task:   "Fanout4",
						Inputs: inputs,
						Outputs: map[string]string{
							"O1": ns + "/o1", "O2": ns + "/o2", "O3": ns + "/o3", "O4": ns + "/o4",
						},
					})
					if err == nil && len(rec.Steps) != 4 {
						err = fmt.Errorf("%d steps recorded, want 4", len(rec.Steps))
					}
					return err
				}); err != nil {
					return err
				}
				if err := timed("history", func() error {
					recs, err := cl.History(info.ID)
					if err == nil && len(recs) != 1 {
						err = fmt.Errorf("%d history records, want 1", len(recs))
					}
					return err
				}); err != nil {
					return err
				}
				return timed("close", func() error { return cl.CloseSession(info.ID) })
			}()
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	res := serveResult{
		Steps:     reg.Counter("task.step.complete"),
		Throttled: reg.Counter("server.admit.throttle"),
		Retries:   retries.Load(),
		Wall:      wall,
		Latencies: lat,
		Versions:  sharded(srv, shards),
	}
	if want := int64(4 * c.Sessions); res.Steps != want {
		t.Fatalf("%d steps completed, want %d (every session runs a 4-step task)", res.Steps, want)
	}
	return res
}

// TestServeLoad runs an unthrottled 256-session drive and a 64-session
// drive at 2 submits per second per tenant. Each must pin its version
// maps and meet its throughput floor and task-p99 ceiling; the throttled
// one must also have been throttled and have retried.
func TestServeLoad(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cell     serveCell
		minSteps float64       // steps/sec floor
		maxP99   time.Duration // task-submission p99 ceiling
		versions string
	}{
		{"256 sessions", serveCell{Sessions: 256}, 25, 5 * time.Second,
			"eef97d382aecd44af1997e60a6a1f1069372db666f2860f1cb36441a9dd5dac3"},
		{"64 sessions, rate 2", serveCell{Sessions: 64, Rate: 2, Burst: 2}, 5, 30 * time.Second,
			"1ac3f9ad85b37e6b0dda4a690bc25a5534b62c16ecd8cf1b1a885da86f02e182"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := runServeCell(t, tc.cell)
			if res.Versions != tc.versions {
				t.Errorf("sharded version maps %.12s, want %.12s", res.Versions, tc.versions)
			}
			if tc.cell.Rate > 0 && (res.Throttled == 0 || res.Retries == 0) {
				t.Errorf("rate-limited drive: %d throttles, %d retries; want both > 0", res.Throttled, res.Retries)
			}
			for _, class := range []string{"open", "import", "task", "history", "close"} {
				s := res.Latencies[class]
				t.Logf("%-7s p50 %v, p99 %v, %d requests", class, quantile(s, 0.50), quantile(s, 0.99), len(s))
			}
			stepsPerSec := float64(res.Steps) / res.Wall.Seconds()
			p99 := quantile(res.Latencies["task"], 0.99)
			t.Logf("%d steps in %v: %.1f steps/sec; %d throttles, %d retries",
				res.Steps, res.Wall, stepsPerSec, res.Throttled, res.Retries)
			bound(t, stepsPerSec >= tc.minSteps, "%.1f steps/sec, floor %.1f", stepsPerSec, tc.minSteps)
			bound(t, p99 <= tc.maxP99, "task p99 %v, ceiling %v", p99, tc.maxP99)
		})
	}
}
