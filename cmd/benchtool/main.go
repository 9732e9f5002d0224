// benchtool regenerates the quantitative experiment tables recorded in
// EXPERIMENTS.md. All numbers are deterministic: workloads are seeded and
// execution time is the simulated cluster's virtual clock, so the tables
// reproduce bit-for-bit across runs and machines.
//
// Usage: benchtool [-exp all|speedup|remigration|scopecache|storage|rework|viewport|inference|abort|rebuild|faults|replay|reclaim]
//
// E17 (reclaim) holds the one wall-clock column left: it soaks a deep
// rework history under background sweeps and reports how long the soak
// took, so it is not part of -exp all. Its ratios and fingerprints are
// still bit-reproducible. The wall-clock experiments E11, E13 and E15 are
// internal/oracle tests (TestScaleOverlap, TestServeLoad,
// TestWorkloadFloor).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"papyrus/internal/activity"
	"papyrus/internal/attr"
	"papyrus/internal/baseline"
	"papyrus/internal/cad"
	"papyrus/internal/cad/logic"
	"papyrus/internal/core"
	"papyrus/internal/fault"
	"papyrus/internal/history"
	"papyrus/internal/infer"
	"papyrus/internal/memo"
	"papyrus/internal/obs"
	"papyrus/internal/oct"
	"papyrus/internal/oracle"
	"papyrus/internal/reclaim"
	"papyrus/internal/sprite"
	"papyrus/internal/task"
	"papyrus/internal/templates"
	"papyrus/internal/viewport"
	"papyrus/internal/workload"
)

// fanoutTemplate is the E11 unit of work, now drawn from the workload
// generator; templates_test.go pins it byte-identical to the hand-written
// template every historical fingerprint was produced with.
var fanoutTemplate = workload.FanTemplate("Fanout4", 4)

// benchMetrics aggregates makespan observations across every experiment
// run in the process (bench.<case>.ticks histograms); -stats prints it.
// benchTracer is non-nil only under -trace and collects the typed event
// stream of every simulated system the experiments build.
var (
	benchMetrics = obs.NewRegistry()
	benchTracer  *obs.Tracer
	// benchFaults optionally replaces the last fault plan of the recovery
	// experiment (the -faults flag).
	benchFaults string
	// outDir is the -out directory every experiment writes its
	// BENCH_<exp>.json table to.
	outDir string
	// summaryPath is the -summary file: experiments append GitHub-flavored
	// markdown tables to it (CI points this at $GITHUB_STEP_SUMMARY).
	summaryPath string
	// benchGateErrs collects threshold-gate violations. Gates record here
	// via gateFail instead of exiting on the spot so the deferred profile,
	// trace and summary writers flush first; main exits non-zero at the
	// very end if any gate tripped. Correctness failures (fingerprint
	// divergence, lost steps) still log.Fatal immediately — a wrong answer
	// has no profile worth keeping.
	benchGateErrs []string
)

// gateFail records a threshold-gate violation and keeps going.
func gateFail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	log.Print(msg)
	benchGateErrs = append(benchGateErrs, msg)
}

// appendSummary appends one markdown section to the -summary file.
func appendSummary(section string) {
	if summaryPath == "" {
		return
	}
	f, err := os.OpenFile(summaryPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	must(err)
	_, err = f.WriteString(section)
	must(err)
	must(f.Close())
}

// writeRows writes an experiment's rows, indented, to
// BENCH_<name>.json in the -out directory.
func writeRows[T any](name string, rows []T) {
	must(os.MkdirAll(outDir, 0o755))
	path := filepath.Join(outDir, "BENCH_"+name+".json")
	f, err := os.Create(path)
	must(err)
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	must(enc.Encode(rows))
	must(f.Close())
	fmt.Printf("wrote %d rows to %s\n", len(rows), path)
}

// measureVT records a system's final virtual clock under
// bench.<name>.ticks and returns it — the single timing path for
// experiment tables, replacing per-experiment Cluster.Now() bookkeeping.
func measureVT(name string, now int64) int64 {
	benchMetrics.Observe("bench."+name+".ticks", now)
	return now
}

// experiments is the -exp table. inAll marks the virtual-time
// experiments -exp all runs; reclaim runs only by name.
var experiments = []struct {
	name  string
	run   func()
	inAll bool
}{
	{"speedup", expSpeedup, true},
	{"remigration", expReMigration, true},
	{"scopecache", expScopeCache, true},
	{"storage", expStorage, true},
	{"rework", expRework, true},
	{"viewport", expViewport, true},
	{"inference", expInference, true},
	{"abort", expAbort, true},
	{"rebuild", expRebuild, true},
	{"faults", expFaults, true},
	{"replay", expReplay, true},
	{"reclaim", expReclaim, false},
}

// The flags are registered at init, not in main, so tests see the same
// flag set the binary parses.
var (
	expName    string
	stats      = flag.Bool("stats", false, "print the aggregated metrics registry after the experiments")
	tracePath  = flag.String("trace", "", "write a Chrome trace_event JSON file covering all runs")
	cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	memProfile = flag.String("memprofile", "", "write a pprof heap profile (post-GC) to this file at exit")
)

func init() {
	names := []string{"all"}
	for _, e := range experiments {
		names = append(names, e.name)
	}
	flag.StringVar(&expName, "exp", "all", "experiment to run: "+strings.Join(names, "|"))
	flag.StringVar(&outDir, "out", ".", "directory each experiment writes its BENCH_<exp>.json table to")
	flag.StringVar(&benchFaults, "faults", "", "extra fault plan for the recovery experiment, e.g. seed=3,crash=2@60-500 (docs/FAULTS.md)")
	flag.StringVar(&summaryPath, "summary", "", "append markdown result tables to this file (CI: $GITHUB_STEP_SUMMARY)")
	flag.StringVar(&replayWorkers, "replayworkers", "1,8", "comma-separated worker counts for -exp replay")
	flag.Int64Var(&cellSpec.Seed, "seed", 7, "workload generator seed for -exp reclaim")
	flag.IntVar(&cellSpec.Sessions, "sessions", 4, "designer sessions per cell for -exp reclaim")
	flag.IntVar(&cellSpec.Fanout, "fanout", 4, "fanout knob (burst width, fan arity) for -exp reclaim")
	flag.IntVar(&rcDepth, "rcdepth", 64, "rework depth (rounds = depth/8) for -exp reclaim")
	flag.IntVar(&rcWorkers, "rcworkers", 4, "worker-pool size for -exp reclaim cells")
	flag.IntVar(&rcSweep, "rcsweep", 1, "sweep at every Nth round barrier for -exp reclaim")
	flag.IntVar(&rcBudget, "rcbudget", 0, "index records scanned per sweep slice for -exp reclaim (0 = whole store)")
}

func main() {
	flag.Parse()
	if *tracePath != "" {
		benchTracer = obs.NewTracer()
	}
	// Registered first so it runs LAST: every writer below (profiles,
	// trace, stats, summaries) must flush before a tripped gate exits.
	defer func() {
		if len(benchGateErrs) > 0 {
			log.Printf("benchtool: %d perf gate(s) failed", len(benchGateErrs))
			os.Exit(1)
		}
	}()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		must(err)
		must(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			must(f.Close())
			fmt.Printf("cpu profile written to %s\n", *cpuProfile)
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			must(err)
			runtime.GC() // settle the heap so the profile shows live objects
			must(pprof.WriteHeapProfile(f))
			must(f.Close())
			fmt.Printf("heap profile written to %s\n", *memProfile)
		}()
	}
	defer func() {
		if benchTracer != nil {
			f, err := os.Create(*tracePath)
			must(err)
			must(benchTracer.WriteChromeTrace(f))
			must(f.Close())
			fmt.Printf("trace: %d events written to %s\n", benchTracer.Len(), *tracePath)
		}
		if *stats {
			fmt.Println()
			must(benchMetrics.WriteText(os.Stdout))
		}
	}()
	if expName == "all" {
		for _, e := range experiments {
			if e.inAll {
				e.run()
				fmt.Println()
			}
		}
		return
	}
	for _, e := range experiments {
		if e.name == expName {
			e.run()
			return
		}
	}
	fmt.Fprintf(os.Stderr, "unknown experiment %q\n", expName)
	os.Exit(2)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func newSystem(cfg core.Config) *core.System {
	cfg.Metrics = benchMetrics
	cfg.Trace = benchTracer
	sys, err := core.New(cfg)
	must(err)
	return sys
}

// --- Experiment: parallel speedup (Figs 4.2/4.3) ----------------------

func expSpeedup() {
	fmt.Println("## E1: task speedup vs cluster size (Figs 4.2/4.3, §4.3.2)")
	fmt.Println("nodes | Fanout4 ticks | speedup | Structure_Synthesis ticks | speedup | Mosaico ticks | speedup")

	runTask := func(nodes int, taskName string, inputs, outputs map[string]string, seed func(*core.System)) int64 {
		sys := newSystem(core.Config{Nodes: nodes, ReMigrateEvery: 25,
			ExtraTemplates: map[string]string{"Fanout4": fanoutTemplate}})
		seed(sys)
		th := sys.NewThread("bench", "u")
		_, err := sys.Invoke(th, taskName, inputs, outputs)
		must(err)
		return measureVT(fmt.Sprintf("speedup.%s.n%d", taskName, nodes), sys.Cluster.Now())
	}
	seedFan := func(sys *core.System) {
		for _, n := range []string{"a", "b", "c", "d"} {
			_, err := sys.ImportObject("/"+n, oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(4)))
			must(err)
		}
	}
	seedSS := func(sys *core.System) {
		_, err := sys.ImportObject("/s", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(4)))
		must(err)
		_, err = sys.ImportObject("/c", oct.TypeText, oct.Text("set d0 1\nsim\nexpect q0 1\n"))
		must(err)
	}
	seedMo := func(sys *core.System) {
		_, err := sys.ImportObject("/m", oct.TypeBehavioral,
			oct.Text(logic.GenBehavior(logic.GenConfig{Seed: 7, Inputs: 6, Outputs: 4, Depth: 4})))
		must(err)
	}

	var base [3]int64
	for _, n := range []int{1, 2, 4, 8} {
		tf := runTask(n, "Fanout4",
			map[string]string{"A": "/a", "B": "/b", "C": "/c", "D": "/d"},
			map[string]string{"O1": "o1", "O2": "o2", "O3": "o3", "O4": "o4"}, seedFan)
		ts := runTask(n, "Structure_Synthesis",
			map[string]string{"Incell": "/s", "Musa_Command": "/c"},
			map[string]string{"Outcell": "out", "Cell_Statistics": "st"}, seedSS)
		tm := runTask(n, "Mosaico",
			map[string]string{"Incell": "/m"},
			map[string]string{"Outcell": "out", "Cell_statistics": "st"}, seedMo)
		if n == 1 {
			base = [3]int64{tf, ts, tm}
		}
		fmt.Printf("%5d | %13d | %7.2f | %25d | %7.2f | %13d | %7.2f\n",
			n, tf, ratio(base[0], tf), ts, ratio(base[1], ts), tm, ratio(base[2], tm))
	}
}

func ratio(base, now int64) float64 { return float64(base) / float64(now) }

// --- Experiment: re-migration (§4.3.3) ---------------------------------

func expReMigration() {
	fmt.Println("## E2: eviction and re-migration (§4.3.3)")
	fmt.Println("re-migration | makespan (ticks) | total migrations")
	runCase := func(remigrate bool) (int64, int) {
		cluster, err := sprite.NewCluster(sprite.Config{Nodes: 4, MigrationDelay: 2,
			Metrics: benchMetrics, Tracer: benchTracer})
		must(err)
		// Nodes 1-3 are owned; owners are active until t=60, return
		// again during [400, 500).
		for n := 1; n <= 3; n++ {
			cluster.ScheduleOwnerActivity(sprite.NodeID(n), 0, 60)
			cluster.ScheduleOwnerActivity(sprite.NodeID(n), 400, 500)
		}
		store := oct.NewStore()
		cfg := task.Config{
			Suite: cad.NewSuite(), Store: store, Cluster: cluster,
			Templates: templates.Source(map[string]string{"Fanout4": fanoutTemplate}),
			Metrics:   benchMetrics, Tracer: benchTracer,
		}
		if remigrate {
			cfg.ReMigrateEvery = 20
		}
		mgr, err := task.New(cfg)
		must(err)
		inputs := map[string]oct.Ref{}
		for _, n := range []string{"A", "B", "C", "D"} {
			obj, err := store.Put(n, oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(5)), "seed")
			must(err)
			inputs[n] = oct.Ref{Name: obj.Name, Version: obj.Version}
		}
		rec, err := mgr.RunTask(task.Invocation{
			Task: "Fanout4", Inputs: inputs,
			Outputs: map[string]string{"O1": "o1", "O2": "o2", "O3": "o3", "O4": "o4"},
		})
		must(err)
		migrations := 0
		for _, s := range rec.Steps {
			migrations += s.Migrations
		}
		return measureVT(fmt.Sprintf("remigration.re=%v", remigrate), cluster.Now()), migrations
	}
	for _, re := range []bool{false, true} {
		t, m := runCase(re)
		fmt.Printf("%12v | %16d | %16d\n", re, t, m)
	}
}

// --- Experiment: data-scope caching (§5.3) ------------------------------

func expScopeCache() {
	fmt.Println("## E3: data-scope computation, cached vs uncached thread states (§5.3)")
	fmt.Println("history depth | records visited (no cache) | records visited (cache at midpoint)")
	for _, depth := range []int{50, 200, 800} {
		s := history.NewStream()
		var prev *history.Record
		var recs []*history.Record
		for i := 0; i < depth; i++ {
			r := &history.Record{TaskName: "t", Time: int64(i),
				Outputs: []oct.Ref{{Name: fmt.Sprintf("o%d", i), Version: 1}}}
			s.Append(r, prev)
			prev = r
			recs = append(recs, r)
		}
		tip := recs[depth-1]
		_, uncached := s.ThreadState(tip)
		s.CacheState(recs[depth/2])
		_, cached := s.ThreadState(tip)
		fmt.Printf("%13d | %27d | %36d\n", depth, uncached, cached)
	}
}

// --- Experiment: storage reclamation (§5.4, Figs 5.7-5.9) ---------------

func expStorage() {
	fmt.Println("## E4: single-assignment storage vs reclamation (§5.4, Fig 5.9)")
	fmt.Println("iterations | bytes (no reclamation) | bytes (iteration GC + sweep) | versions before | versions after")
	for _, rounds := range []int{4, 8, 16} {
		build := func() (*core.System, *activity.Thread, [][]*history.Record) {
			sys := newSystem(core.Config{Nodes: 2})
			_, err := sys.ImportObject("/spec", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(3)))
			must(err)
			_, err = sys.ImportObject("/cmd", oct.TypeText, oct.Text("set d0 1\nsim\n"))
			must(err)
			th := sys.NewThread("iter", "u")
			_, err = sys.Invoke(th, "create-logic-description",
				map[string]string{"Spec": "/spec"}, map[string]string{"Outlogic": "l"})
			must(err)
			var rr [][]*history.Record
			for i := 0; i < rounds; i++ {
				rec, err := sys.Invoke(th, "logic-simulator",
					map[string]string{"Inlogic": "l", "Commands": "/cmd"},
					map[string]string{"Report": "rep"})
				must(err)
				rr = append(rr, []*history.Record{rec})
			}
			return sys, th, rr
		}
		sysA, _, _ := build()
		without := sysA.Store.TotalBytes()

		sysB, th, rr := build()
		before := sysB.Store.ObjectCount()
		r := reclaim.New(sysB.Store, reclaim.Policy{Grace: 0})
		_, err := r.CollectIterations(th, reclaim.IterationHint{Rounds: rr})
		must(err)
		_, err = r.Sweep(0)
		must(err)
		with := sysB.Store.TotalBytes()
		after := sysB.Store.ObjectCount()
		fmt.Printf("%10d | %22d | %28d | %15d | %14d\n", rounds, without, with, before, after)
	}
}

// --- Experiment: rework vs retracing (§2.2.2 vs §3.3.3) ----------------

func expRework() {
	fmt.Println("## E5: exploring an alternative — Papyrus rework vs VOV retracing")
	fmt.Println("chain length | VOV tool re-runs after modify | Papyrus tool runs after rework (cursor move)")
	for _, chain := range []int{2, 4, 8} {
		// VOV: build a chain spec -> net -> o1 -> ... -> oN, then modify
		// the spec: everything downstream re-executes.
		suite := cad.NewSuite()
		store := oct.NewStore()
		vov := baseline.NewVOV(suite, store)
		spec, err := store.Put("spec", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(3)), "designer")
		must(err)
		vov.Checkin("spec", spec)
		must(vov.Run("bdsyn", nil, []string{"spec"}, []string{"net"}))
		prev := "net"
		for i := 0; i < chain; i++ {
			out := fmt.Sprintf("o%d", i)
			must(vov.Run("misII", nil, []string{prev}, []string{out}))
			prev = out
		}
		spec2, err := store.Put("spec", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(4)), "designer")
		must(err)
		reruns, err := vov.Modify("spec", spec2)
		must(err)

		// Papyrus: the same chain as history; "trying the alternative"
		// is a cursor move — zero tool executions; the new branch runs
		// only the tools the designer invokes next.
		sys := newSystem(core.Config{Nodes: 2})
		_, err = sys.ImportObject("/spec", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(3)))
		must(err)
		th := sys.NewThread("t", "u")
		_, err = sys.Invoke(th, "create-logic-description",
			map[string]string{"Spec": "/spec"}, map[string]string{"Outlogic": "net"})
		must(err)
		recs := th.SortedRecords()
		must(th.MoveCursor(recs[0]))
		fmt.Printf("%12d | %29d | %44d\n", chain+1, reruns, 0)
	}
}

// --- Experiment: lazy viewport transforms (§5.2) ------------------------

func expViewport() {
	fmt.Println("## E6: pan/zoom maintenance — lazy compressed transform vs eager rewrite (§5.2)")
	fmt.Println("records | gestures | coordinate updates (eager) | coordinate updates (lazy)")
	for _, n := range []int{100, 1000, 10000} {
		gestures := 50
		// Eager rewrites every item's coordinates on each gesture.
		eagerUpdates := n * gestures
		// Lazy maintains one compressed transform.
		lazyUpdates := gestures
		// Verify both agree on a sample point before reporting.
		lv := viewport.NewView()
		ev := viewport.NewEagerView()
		for i := 0; i < n; i++ {
			p := viewport.Point{X: float64(i % 37), Y: float64(i / 37)}
			lv.Add(i, p)
			ev.Add(i, p)
		}
		for g := 0; g < gestures; g++ {
			if g%3 == 0 {
				lv.Zoom(2)
				ev.Zoom(2)
			} else {
				lv.Pan(5, -3)
				ev.Pan(5, -3)
			}
			if g%2 == 1 {
				lv.Zoom(0.5)
				ev.Zoom(0.5)
			}
		}
		lp, _ := lv.Position(n / 2)
		ep, _ := ev.Position(n / 2)
		if lp != ep {
			log.Fatalf("viewport divergence: %+v vs %+v", lp, ep)
		}
		fmt.Printf("%7d | %8d | %26d | %25d\n", n, gestures, eagerUpdates, lazyUpdates)
	}
}

// --- Experiment: incremental metadata inference (§6.4.1) ----------------

func expInference() {
	fmt.Println("## E7: propagated-attribute evaluation — incremental vs full (Fig 6.5, §6.4.1)")
	fmt.Println("hierarchy leaves | leaf evaluations after 1 leaf update (incremental) | (full re-evaluation)")
	for _, leaves := range []int{16, 64, 256} {
		count := 0
		adb := attr.New(func(a string, obj *oct.Object) (string, error) {
			count++
			return "1", nil
		})
		suite := cad.NewSuite()
		store := oct.NewStore()
		eng := infer.NewEngine(suite, store, adb)
		// A binary configuration tree over `leaves` leaf cells.
		var build func(lo, hi int) oct.Ref
		id := 0
		build = func(lo, hi int) oct.Ref {
			id++
			name := fmt.Sprintf("n%d", id)
			ref := oct.Ref{Name: name, Version: 1}
			if hi-lo == 1 {
				adb.Set(ref, "power", "3", "")
				return ref
			}
			mid := (lo + hi) / 2
			l := build(lo, mid)
			r := build(mid, hi)
			must(eng.AddConfiguration(l, ref, "compose"))
			must(eng.AddConfiguration(r, ref, "compose"))
			return ref
		}
		root := build(0, leaves)
		_, err := eng.PropagatedAttr(root, "power")
		must(err)

		// Update one leaf: incremental invalidation re-evaluates only the
		// path to the root. Count composite evaluations by instrumenting
		// with a fresh counter pass.
		leaf := oct.Ref{Name: "n2", Version: 1} // leftmost descent
		// Find an actual leaf: walk down the left spine.
		cur := root
		for {
			comps := eng.RelatedBy(infer.RelConfiguration, cur)
			if len(comps) == 0 {
				leaf = cur
				break
			}
			cur = comps[0]
		}
		adb.Set(leaf, "power", "5", "")
		incr := countCompositeEvals(eng, root, leaf, false)
		full := countCompositeEvals(eng, root, leaf, true)
		fmt.Printf("%16d | %50d | %20d\n", leaves, incr, full)
	}
}

// countCompositeEvals measures how many composite nodes get recomputed
// after invalidation: incremental invalidates the leaf's ancestor path,
// full invalidates everything.
func countCompositeEvals(eng *infer.Engine, root, leaf oct.Ref, full bool) int {
	if full {
		eng.InvalidateAll()
	} else {
		must(eng.AddConfiguration(leaf, parentOf(eng, leaf), "compose")) // re-link triggers invalidateUp
	}
	return eng.CountedPropagate(root, "power")
}

func parentOf(eng *infer.Engine, child oct.Ref) oct.Ref {
	for _, r := range eng.Relationships(child) {
		if r.Kind == infer.RelConfiguration && r.From == child {
			return r.To
		}
	}
	return child
}

// --- Experiment: programmable abort (Fig 3.4, §4.3.4) -------------------

func expAbort() {
	fmt.Println("## E8: programmable abort — work preserved by resumed task states (Fig 3.4)")
	fmt.Println("abort policy | tool executions to finish after one failure")
	runCase := func(resumed string) int {
		execs := 0
		sys := newSystem(core.Config{Nodes: 2, ExtraTemplates: map[string]string{
			"Frag": fmt.Sprintf(`task Frag {A} {Out}
step {1 Build} {A} {m1} {bdsyn -o m1 A}
step {2 Optimize} {m1} {m2} {misII -o m2 m1}
step {3 Finish} {m2} {Out} {flaky -o Out m2} {ResumedStep %s}
`, resumed),
		}})
		attempts := 0
		sys.Suite.Register(&cad.Tool{
			Name: "flaky", Brief: "fails once", Man: "test tool",
			TSD:  cad.TSD{Writes: oct.TypeLogic},
			Cost: func(in []*oct.Object, o []string) float64 { return 10 },
			Run: func(ctx *cad.Ctx) error {
				attempts++
				if attempts == 1 {
					return fmt.Errorf("transient failure")
				}
				return ctx.PutOutput(0, oct.TypeLogic, ctx.Inputs[0].Data)
			},
		})
		// Count executions of every tool by wrapping the suite's bdsyn/misII.
		for _, name := range []string{"bdsyn", "misII"} {
			orig, _ := sys.Suite.Tool(name)
			origRun := orig.Run
			tool := *orig
			tool.Run = func(ctx *cad.Ctx) error {
				execs++
				return origRun(ctx)
			}
			sys.Suite.Register(&tool)
		}
		_, err := sys.ImportObject("/a", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(3)))
		must(err)
		th := sys.NewThread("t", "u")
		_, err = sys.Invoke(th, "Frag",
			map[string]string{"A": "/a"}, map[string]string{"Out": "out"})
		must(err)
		return execs + attempts
	}
	fmt.Printf("%12s | %d\n", "ResumedStep 2", runCase("2"))
	fmt.Printf("%12s | %d\n", "ResumedStep 0", runCase("0"))
}

// --- Experiment: demand-driven rebuild vs retracing (§1.4 extension) ----

func expRebuild() {
	fmt.Println("## E9: source edit on a fan-out DAG — demand-driven rebuild vs VOV retracing")
	fmt.Println("derived objects | VOV retrace tool re-runs | Papyrus Rebuild(one target) tool re-runs")
	for _, fanout := range []int{2, 4, 8} {
		// Shared shape: spec -> net, then `fanout` independent misII
		// derivatives of net. Editing spec invalidates everything; the
		// designer only needs one derivative refreshed.
		suite := cad.NewSuite()
		store := oct.NewStore()
		vov := baseline.NewVOV(suite, store)
		spec, err := store.Put("spec", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(3)), "d")
		must(err)
		vov.Checkin("spec", spec)
		must(vov.Run("bdsyn", nil, []string{"spec"}, []string{"net"}))
		for i := 0; i < fanout; i++ {
			must(vov.Run("misII", nil, []string{"net"}, []string{fmt.Sprintf("d%d", i)}))
		}
		spec2, err := store.Put("spec", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(4)), "d")
		must(err)
		retrace, err := vov.Modify("spec", spec2)
		must(err)

		// Papyrus: same DAG recorded by the inference engine; rebuild
		// exactly one derivative.
		sys := newSystem(core.Config{Nodes: 2, ExtraTemplates: map[string]string{
			"Fan": fanTemplate(fanout),
		}})
		_, err = sys.ImportObject("/spec", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(3)))
		must(err)
		th := sys.NewThread("t", "u")
		outputs := map[string]string{}
		for i := 0; i < fanout; i++ {
			outputs[fmt.Sprintf("D%d", i)] = fmt.Sprintf("d%d", i)
		}
		_, err = sys.Invoke(th, "Fan", map[string]string{"A": "/spec"}, outputs)
		must(err)
		_, err = sys.ImportObject("/spec", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(4)))
		must(err)
		target, err := th.ResolveInput("d0")
		must(err)
		before := sys.Store.ObjectCount()
		_, err = sys.Rebuild(th, target)
		must(err)
		rebuilt := sys.Store.ObjectCount() - before // new versions == tool runs here
		fmt.Printf("%15d | %24d | %41d\n", fanout+1, retrace, rebuilt)
	}
}

// --- Experiment: fault injection and recovery (docs/FAULTS.md) ----------

func expFaults() {
	fmt.Println("## E10: fault injection and recovery — retry + re-migration under a seeded fault plan")
	fmt.Println("fault plan | makespan (ticks) | retries | crashkills | migrations | committed")
	plans := []string{
		"seed=7",
		"seed=7,stepfail=*:0.4:2",
		"seed=7,crash=1@40-600",
		"seed=7,stall=0.5:25",
		"seed=7,crash=1@40-600,stepfail=*:0.3:2,stall=0.5:25",
	}
	if benchFaults != "" {
		plans = append(plans, benchFaults)
	}
	for i, planText := range plans {
		plan, err := fault.ParsePlan(planText)
		must(err)
		retryBefore := benchMetrics.Counter("task.step.retry")
		crashBefore := benchMetrics.Counter("sprite.proc.crashkill")
		sys := newSystem(core.Config{
			Nodes: 4, ReMigrateEvery: 20,
			ExtraTemplates: map[string]string{"Fanout4": fanoutTemplate},
			Fault:          &plan,
			Retry:          task.RetryPolicy{MaxAttempts: 4, BackoffBase: 8},
		})
		inputs := map[string]string{}
		for _, n := range []string{"A", "B", "C", "D"} {
			_, err := sys.ImportObject("/"+n, oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(5)))
			must(err)
			inputs[n] = "/" + n
		}
		th := sys.NewThread("faults", "u")
		rec, err := sys.Invoke(th, "Fanout4", inputs,
			map[string]string{"O1": "o1", "O2": "o2", "O3": "o3", "O4": "o4"})
		migrations := 0
		if rec != nil {
			for _, s := range rec.Steps {
				migrations += s.Migrations
			}
		}
		makespan := measureVT(fmt.Sprintf("faults.case%d", i), sys.Cluster.Now())
		fmt.Printf("%-52s | %16d | %7d | %10d | %10d | %v\n",
			planText, makespan,
			benchMetrics.Counter("task.step.retry")-retryBefore,
			benchMetrics.Counter("sprite.proc.crashkill")-crashBefore,
			migrations, err == nil)
	}
}

// --- Experiment: rework replay with memoization (E12) -------------------

var replayWorkers string

// replayMin is E12's floor on the memo-on replay speedup at the largest
// worker count. Both sides are virtual ticks, so the gate is exact on
// any host.
const replayMin = 3.0

// replayChainTemplate threads two intermediates (m1, m2) through the
// chain, so replay hits depend on instance-suffix normalization and
// content-addressed version tokens (docs/CACHING.md), not just stable
// input names. Drawn from the workload generator; templates_test.go pins
// the bytes against the original hand-written template.
var replayChainTemplate = workload.ChainTemplate("ReplayChain", []string{"Build", "Optimize", "Finish"})

// replayRow is one (workers, memo) cell of BENCH_replay.json.
type replayRow struct {
	Workers     int     `json:"workers"`
	Memo        bool    `json:"memo"`
	FirstTicks  int64   `json:"first_run_ticks"`
	ReplayTicks int64   `json:"replay_ticks"`
	Speedup     float64 `json:"replay_speedup"`
	MemoHits    int64   `json:"memo_hits"`
	MemoMisses  int64   `json:"memo_misses"`
	// StatsSHA is the oracle's stats fingerprint: constant across
	// worker counts within a memo setting. VersionSHA is the final OCT
	// version map: constant across every cell — memoized replay must
	// produce byte-identical store content to re-running the tools.
	StatsSHA   string `json:"stats_sha256"`
	VersionSHA string `json:"version_sha256"`
}

// runReplayCell runs the E12 workload once: a fan-out task plus an
// intermediate chain, then a cursor move back to the initial state and a
// redo of both records (§3.3.3). Returns the measured cell.
func runReplayCell(workers int, withMemo bool) replayRow {
	reg := obs.NewRegistry()
	cfg := core.Config{
		Nodes: 4, Workers: workers, DisableInference: true, Metrics: reg,
		ExtraTemplates: map[string]string{
			"Fanout4":     fanoutTemplate,
			"ReplayChain": replayChainTemplate,
		},
	}
	if withMemo {
		cfg.Memo = memo.NewCache()
	}
	sys, err := core.New(cfg)
	must(err)
	for _, n := range []string{"a", "b", "c", "d"} {
		_, err := sys.ImportObject("/replay/"+n, oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(4)))
		must(err)
	}
	th := sys.NewThread("replay", "u")
	recFan, err := sys.Invoke(th, "Fanout4",
		map[string]string{"A": "/replay/a", "B": "/replay/b", "C": "/replay/c", "D": "/replay/d"},
		map[string]string{"O1": "o1", "O2": "o2", "O3": "o3", "O4": "o4"})
	must(err)
	recChain, err := sys.Invoke(th, "ReplayChain",
		map[string]string{"A": "/replay/a"}, map[string]string{"Out": "chain.out"})
	must(err)
	first := measureVT(fmt.Sprintf("replay.first.w%d.memo=%v", workers, withMemo), sys.Cluster.Now())

	// Rework: back to the initial design state, then redo both records.
	must(th.MoveCursor(nil))
	_, err = sys.Activity.ReplayRecord(th, recFan)
	must(err)
	_, err = sys.Activity.ReplayRecord(th, recChain)
	must(err)
	replay := sys.Cluster.Now() - first
	benchMetrics.Observe(fmt.Sprintf("bench.replay.redo.w%d.memo=%v.ticks", workers, withMemo), replay)

	return replayRow{
		Workers:     workers,
		Memo:        withMemo,
		FirstTicks:  first,
		ReplayTicks: replay,
		Speedup:     float64(first) / float64(max(1, replay)),
		MemoHits:    reg.Counter("memo.hit"),
		MemoMisses:  reg.Counter("memo.miss"),
		StatsSHA:    oracle.Stats(reg),
		VersionSHA:  oracle.Versions(sys.Store),
	}
}

// expReplay is E12: virtual-tick cost of redoing work after a cursor
// move, with and without the step-result cache. The version-map
// fingerprint must be identical across every cell — memoization may only
// change how fast the store reaches a state, never which state — and the
// oracle's stats fingerprint must be worker-count invariant within
// each memo setting.
func expReplay() {
	fmt.Println("## E12: rework replay — redo cost after a cursor move, memo off vs on")
	fmt.Println("workers | memo | first run (ticks) | replay (ticks) | speedup | hits | misses | fingerprints")
	workerCounts := parseIntList(replayWorkers)
	var rows []replayRow
	var gate replayRow
	for _, withMemo := range []bool{false, true} {
		var base replayRow
		for i, w := range workerCounts {
			row := runReplayCell(w, withMemo)
			if i == 0 {
				base = row
			}
			if row.StatsSHA != base.StatsSHA {
				log.Fatalf("replay: memo=%v workers=%d: stats fingerprint diverged from workers=%d (%s vs %s)",
					withMemo, w, base.Workers, row.StatsSHA[:12], base.StatsSHA[:12])
			}
			if len(rows) > 0 && row.VersionSHA != rows[0].VersionSHA {
				log.Fatalf("replay: memo=%v workers=%d: version map diverged from the memo-off reference (%s vs %s)",
					withMemo, w, row.VersionSHA[:12], rows[0].VersionSHA[:12])
			}
			rows = append(rows, row)
			if withMemo {
				gate = row
			}
			fmt.Printf("%7d | %4v | %17d | %14d | %7.2f | %4d | %6d | ok (%s/%s)\n",
				w, withMemo, row.FirstTicks, row.ReplayTicks, row.Speedup,
				row.MemoHits, row.MemoMisses, row.StatsSHA[:12], row.VersionSHA[:12])
		}
	}
	writeRows("replay", rows)
	if gate.Speedup < replayMin {
		gateFail("replay gate: workers=%d memo=on speedup %.2f < required %.2f",
			gate.Workers, gate.Speedup, replayMin)
	}
	var md strings.Builder
	md.WriteString("### E12 replay: redo cost after a cursor move\n\n")
	md.WriteString("| workers | memo | first run (ticks) | replay (ticks) | speedup | hits | misses |\n")
	md.WriteString("|---:|:---:|---:|---:|---:|---:|---:|\n")
	for _, r := range rows {
		fmt.Fprintf(&md, "| %d | %v | %d | %d | %.2f | %d | %d |\n",
			r.Workers, r.Memo, r.FirstTicks, r.ReplayTicks, r.Speedup, r.MemoHits, r.MemoMisses)
	}
	md.WriteString("\n")
	appendSummary(md.String())
}

func parseIntList(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			log.Fatalf("bad count %q in list %q", part, s)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		log.Fatal("empty count list")
	}
	return out
}

func fanTemplate(fanout int) string {
	s := "task Fan {A} {"
	for i := 0; i < fanout; i++ {
		s += fmt.Sprintf("D%d ", i)
	}
	s += "}\nstep S0 {A} {net} {bdsyn -o net A}\n"
	for i := 0; i < fanout; i++ {
		s += fmt.Sprintf("step S%d {net} {D%d} {misII -o D%d net}\n", i+1, i, i)
	}
	return s
}
