package papyrus

// The benchmark harness: one benchmark per table/figure of the
// dissertation's evaluation, as indexed in DESIGN.md §3. Wall-clock
// numbers (ns/op) measure this reproduction's algorithms; the paper-shape
// results (speedups, storage, traversal counts) are deterministic
// virtual-time quantities printed by `go run ./cmd/benchtool` and recorded
// in EXPERIMENTS.md.

import (
	"bytes"
	"fmt"
	"testing"

	"papyrus/internal/activity"
	"papyrus/internal/baseline"
	"papyrus/internal/cad"
	"papyrus/internal/cad/layout"
	"papyrus/internal/cad/logic"
	"papyrus/internal/core"
	"papyrus/internal/history"
	"papyrus/internal/infer"
	"papyrus/internal/memo"
	"papyrus/internal/obs"
	"papyrus/internal/oct"
	"papyrus/internal/reclaim"
	"papyrus/internal/tcl"
	"papyrus/internal/viewport"
	"papyrus/internal/workload"
)

func mustSystem(b *testing.B, cfg core.Config) *core.System {
	b.Helper()
	sys, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

func seedShifter(b *testing.B, sys *core.System, width int) {
	b.Helper()
	if _, err := sys.ImportObject("/spec", oct.TypeBehavioral,
		oct.Text(logic.ShifterBehavior(width))); err != nil {
		b.Fatal(err)
	}
	if _, err := sys.ImportObject("/cmd", oct.TypeText,
		oct.Text("set d0 1\nsim\nexpect q0 1\n")); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTableI_FeatureProbe — Table I: regenerating the feature matrix
// from the implemented systems.
func BenchmarkTableI_FeatureProbe(b *testing.B) {
	sys := mustSystem(b, core.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := sys.TableI()
		if len(rows) != 14 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkFig33_TaskTrace — Fig 3.3: instantiating a fork/join template
// and recording its history trace.
func BenchmarkFig33_TaskTrace(b *testing.B) {
	tpl := map[string]string{"ForkJoin": `task ForkJoin {A} {Out}
step S0 {A} {m0} {bdsyn -o m0 A}
step S1 {m0} {m1} {misII -o m1 m0}
step S2 {m0} {m2} {espresso -o m2 m0}
step S3 {m1 m2} {Out} {musa -i m1 m2}
`}
	_ = tpl
	// The join step would need matching tools; bench the shipped
	// Padp single-step trace instead plus the two-branch template above
	// is exercised in tests. Here: trace-recording overhead.
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys := mustSystem(b, core.Config{Nodes: 2})
		seedShifter(b, sys, 3)
		th := sys.NewThread("t", "u")
		b.StartTimer()
		if _, err := sys.Invoke(th, "Padp",
			map[string]string{"Incell": "/spec"},
			map[string]string{"Outcell": "out"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig34_AbortRestart — Fig 3.4: a programmable abort with a
// resumed task state, including side-effect removal and re-interpretation.
func BenchmarkFig34_AbortRestart(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		attempts := 0
		sys := mustSystem(b, core.Config{Nodes: 2, ExtraTemplates: map[string]string{
			"Frag": `task Frag {A} {Out}
step {1 Build} {A} {m1} {bdsyn -o m1 A}
step {2 Opt} {m1} {m2} {misII -o m2 m1}
step {3 Fin} {m2} {Out} {flaky -o Out m2} {ResumedStep 2}
`}})
		sys.Suite.Register(&cad.Tool{
			Name: "flaky", Brief: "b", Man: "m",
			TSD:  cad.TSD{Writes: oct.TypeLogic},
			Cost: func(in []*oct.Object, o []string) float64 { return 10 },
			Run: func(ctx *cad.Ctx) error {
				attempts++
				if attempts == 1 {
					return fmt.Errorf("transient")
				}
				return ctx.PutOutput(0, oct.TypeLogic, ctx.Inputs[0].Data)
			},
		})
		seedShifter(b, sys, 3)
		th := sys.NewThread("t", "u")
		b.StartTimer()
		if _, err := sys.Invoke(th, "Frag",
			map[string]string{"A": "/spec"}, map[string]string{"Out": "out"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig37_Exploration — Fig 3.7: the full shifter exploration
// (standard-cell branch, rework, PLA branch).
func BenchmarkFig37_Exploration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys := mustSystem(b, core.Config{Nodes: 4})
		seedShifter(b, sys, 4)
		th := sys.NewThread("t", "u")
		b.StartTimer()
		if _, err := sys.Invoke(th, "create-logic-description",
			map[string]string{"Spec": "/spec"}, map[string]string{"Outlogic": "l"}); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Invoke(th, "standard-cell-place-and-route",
			map[string]string{"Inlogic": "l"}, map[string]string{"Outcell": "sc"}); err != nil {
			b.Fatal(err)
		}
		recs := th.SortedRecords()
		if err := th.MoveCursor(recs[0]); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Invoke(th, "PLA-generation",
			map[string]string{"Inlogic": "l"}, map[string]string{"Outcell": "pla"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig42_StructureSynthesis — Fig 4.2: the Structure_Synthesis
// task at several cluster sizes (virtual speedups are in EXPERIMENTS.md;
// this measures harness wall-clock).
func BenchmarkFig42_StructureSynthesis(b *testing.B) {
	for _, nodes := range []int{1, 4} {
		b.Run(fmt.Sprintf("nodes%d", nodes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys := mustSystem(b, core.Config{Nodes: nodes})
				seedShifter(b, sys, 4)
				th := sys.NewThread("t", "u")
				b.StartTimer()
				if _, err := sys.Invoke(th, "Structure_Synthesis",
					map[string]string{"Incell": "/spec", "Musa_Command": "/cmd"},
					map[string]string{"Outcell": "out", "Cell_Statistics": "st"}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig43_Mosaico — Fig 4.3: the Mosaico macro-cell pipeline.
func BenchmarkFig43_Mosaico(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys := mustSystem(b, core.Config{Nodes: 4})
		if _, err := sys.ImportObject("/m", oct.TypeBehavioral,
			oct.Text(logic.GenBehavior(logic.GenConfig{Seed: 7, Inputs: 6, Outputs: 4, Depth: 4}))); err != nil {
			b.Fatal(err)
		}
		th := sys.NewThread("t", "u")
		b.StartTimer()
		if _, err := sys.Invoke(th, "Mosaico",
			map[string]string{"Incell": "/m"},
			map[string]string{"Outcell": "out", "Cell_statistics": "st"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelismExtraction — §4.3.2: registration + dependency
// resolution for a wide dependency-rich template.
func BenchmarkParallelismExtraction(b *testing.B) {
	var buf bytes.Buffer
	buf.WriteString("task Wide {A} {Out}\nstep S0 {A} {m0} {bdsyn -o m0 A}\n")
	for i := 1; i <= 12; i++ {
		fmt.Fprintf(&buf, "step S%d {m0} {m%d} {misII -o m%d m0}\n", i, i, i)
	}
	buf.WriteString("step SZ {m1} {Out} {espresso -o Out m1}\n")
	tpl := map[string]string{"Wide": buf.String()}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys := mustSystem(b, core.Config{Nodes: 8, ExtraTemplates: tpl})
		seedShifter(b, sys, 3)
		th := sys.NewThread("t", "u")
		b.StartTimer()
		if _, err := sys.Invoke(th, "Wide",
			map[string]string{"A": "/spec"}, map[string]string{"Out": "out"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchPipeline runs the phased batch schedule end to end —
// prepare, tool bodies on the run-scoped worker pool, sequential apply
// with its commits — over a wide fan-out template. The
// worker count changes only phase overlap (the byte-identical-exports
// guarantee), so the deltas here are pure scheduling and allocation
// cost: the perf campaign's task-layer hot path (docs/PERFORMANCE.md).
func BenchmarkBatchPipeline(b *testing.B) {
	var buf bytes.Buffer
	buf.WriteString("task Wide {A} {Out}\nstep S0 {A} {m0} {bdsyn -o m0 A}\n")
	for i := 1; i <= 8; i++ {
		fmt.Fprintf(&buf, "step S%d {m0} {m%d} {misII -o m%d m0}\n", i, i, i)
	}
	buf.WriteString("step SZ {m1} {Out} {espresso -o Out m1}\n")
	tpl := map[string]string{"Wide": buf.String()}
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys := mustSystem(b, core.Config{Nodes: 8, Workers: workers, ExtraTemplates: tpl})
				seedShifter(b, sys, 3)
				th := sys.NewThread("t", "u")
				b.StartTimer()
				if _, err := sys.Invoke(th, "Wide",
					map[string]string{"A": "/spec"}, map[string]string{"Out": "out"}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReplayChainHit — history-based redo avoidance (docs/CACHING.md):
// one op reworks a thread to its start and replays a recorded 6-deep
// WLChain whose every step is a memo hit, so it measures the engine's own
// per-replay cost (key derivation, lookup, materialization, history) with
// no tool body run. Each hit hands its payload's digest to the version it
// materializes, so the next step's key derivation does not re-encode it.
// Replays run in episodes of 32 on a fresh system, set up off the clock:
// inference and history costs grow with a thread's depth, and an
// unbounded thread would measure that growth instead.
func BenchmarkReplayChainHit(b *testing.B) {
	const episode = 32
	w, err := workload.Generate(workload.Spec{Profile: "replay", Fanout: 4, Depth: 6})
	if err != nil {
		b.Fatal(err)
	}
	spec := oct.Text(logic.GenBehavior(logic.GenConfig{Seed: 1, Inputs: 6, Outputs: 4, Depth: 4}))
	var (
		sys   *core.System
		th    *activity.Thread
		chain *history.Record
		reg   *obs.Registry
		hits  int64
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%episode == 0 {
			b.StopTimer()
			if reg != nil {
				hits += reg.Counter("memo.hit")
			}
			reg = obs.NewRegistry()
			sys = mustSystem(b, core.Config{ExtraTemplates: w.Templates, Memo: memo.NewCache(), Metrics: reg})
			th = sys.NewThread("d0", "bench")
			if _, err := sys.ImportObject("/spec", oct.TypeBehavioral, spec); err != nil {
				b.Fatal(err)
			}
			if chain, err = sys.Invoke(th, "WLChain", map[string]string{"A": "/spec"}, map[string]string{"Out": "/chain"}); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if err := th.MoveCursor(nil); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Activity.ReplayRecord(th, chain); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if hits += reg.Counter("memo.hit"); hits != int64(6*b.N) {
		b.Fatalf("memo.hit = %d over %d replays, want every step a hit", hits, b.N)
	}
}

// BenchmarkDataScope_CachedVsUncached — §5.3: thread-state computation.
func BenchmarkDataScope_CachedVsUncached(b *testing.B) {
	build := func(depth int) (*history.Stream, *history.Record) {
		s := history.NewStream()
		var prev *history.Record
		for i := 0; i < depth; i++ {
			r := &history.Record{TaskName: "t", Time: int64(i),
				Outputs: []oct.Ref{{Name: fmt.Sprintf("o%d", i), Version: 1}}}
			s.Append(r, prev)
			prev = r
		}
		return s, prev
	}
	const depth = 500
	b.Run("uncached", func(b *testing.B) {
		s, tip := build(depth)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			state, _ := s.ThreadState(tip)
			if len(state) != depth {
				b.Fatal("bad state")
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		s, tip := build(depth)
		// Cache near the tip, as the activity manager does.
		parent := tip.Parents()[0]
		s.CacheState(parent)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			state, _ := s.ThreadState(tip)
			if len(state) != depth {
				b.Fatal("bad state")
			}
		}
	})
}

// BenchmarkReclamation_StorageOverhead — §5.4/Fig 5.9: iteration GC plus
// the object sweep.
func BenchmarkReclamation_StorageOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys := mustSystem(b, core.Config{Nodes: 2})
		seedShifter(b, sys, 3)
		th := sys.NewThread("t", "u")
		if _, err := sys.Invoke(th, "create-logic-description",
			map[string]string{"Spec": "/spec"}, map[string]string{"Outlogic": "l"}); err != nil {
			b.Fatal(err)
		}
		var rounds [][]*history.Record
		for r := 0; r < 6; r++ {
			rec, err := sys.Invoke(th, "logic-simulator",
				map[string]string{"Inlogic": "l", "Commands": "/cmd"},
				map[string]string{"Report": "rep"})
			if err != nil {
				b.Fatal(err)
			}
			rounds = append(rounds, []*history.Record{rec})
		}
		rc := reclaim.New(sys.Store, reclaim.Policy{Grace: 0})
		b.StartTimer()
		if _, err := rc.CollectIterations(th, reclaim.IterationHint{Rounds: rounds}); err != nil {
			b.Fatal(err)
		}
		if _, err := rc.Sweep(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkViewport_LazyVsEager — §5.2: gesture handling cost.
func BenchmarkViewport_LazyVsEager(b *testing.B) {
	const items = 2000
	b.Run("lazy", func(b *testing.B) {
		v := viewport.NewView()
		for i := 0; i < items; i++ {
			v.Add(i, viewport.Point{X: float64(i), Y: float64(i % 13)})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v.Pan(3, 1)
			v.Zoom(2)
			v.Zoom(0.5)
		}
	})
	b.Run("eager", func(b *testing.B) {
		v := viewport.NewEagerView()
		for i := 0; i < items; i++ {
			v.Add(i, viewport.Point{X: float64(i), Y: float64(i % 13)})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v.Pan(3, 1)
			v.Zoom(2)
			v.Zoom(0.5)
		}
	})
}

// BenchmarkInference_IncrementalVsFull — Fig 6.5/§6.4.1: propagated
// attribute re-evaluation after a single leaf update.
func BenchmarkInference_IncrementalVsFull(b *testing.B) {
	build := func() (*infer.Engine, oct.Ref, oct.Ref) {
		sys := mustSystem(b, core.Config{Nodes: 1})
		eng := sys.Inference
		id := 0
		var mk func(depth int) oct.Ref
		mk = func(depth int) oct.Ref {
			id++
			ref := oct.Ref{Name: fmt.Sprintf("n%d", id), Version: 1}
			if depth == 0 {
				sys.Attrs.Set(ref, "power", "3", "")
				return ref
			}
			l := mk(depth - 1)
			r := mk(depth - 1)
			eng.AddConfiguration(l, ref, "c")
			eng.AddConfiguration(r, ref, "c")
			return ref
		}
		root := mk(6)
		leaf := oct.Ref{Name: "n3", Version: 1}
		if _, err := eng.PropagatedAttr(root, "power"); err != nil {
			b.Fatal(err)
		}
		return eng, root, leaf
	}
	b.Run("incremental", func(b *testing.B) {
		eng, root, leaf := build()
		parent := oct.Ref{Name: "n2", Version: 1}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.AddConfiguration(leaf, parent, "c") // invalidates the path
			eng.CountedPropagate(root, "power")
		}
	})
	b.Run("full", func(b *testing.B) {
		eng, root, _ := build()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.InvalidateAll()
			eng.CountedPropagate(root, "power")
		}
	})
}

// BenchmarkReMigration_OnVsOff — §4.3.3 (virtual-time shapes in
// EXPERIMENTS.md E2; wall-clock of the simulation here).
func BenchmarkReMigration_OnVsOff(b *testing.B) {
	run := func(b *testing.B, every int64) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sys := mustSystem(b, core.Config{Nodes: 4, ReMigrateEvery: every,
				ExtraTemplates: map[string]string{"F": `task F {A B} {O1 O2}
step S1 {A} {O1} {misII -o O1 A}
step S2 {B} {O2} {misII -o O2 B}
`}})
			seedShifter(b, sys, 4)
			if _, err := sys.ImportObject("/spec2", oct.TypeBehavioral,
				oct.Text(logic.ShifterBehavior(4))); err != nil {
				b.Fatal(err)
			}
			th := sys.NewThread("t", "u")
			b.StartTimer()
			if _, err := sys.Invoke(th, "F",
				map[string]string{"A": "/spec", "B": "/spec2"},
				map[string]string{"O1": "o1", "O2": "o2"}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, 0) })
	b.Run("on", func(b *testing.B) { run(b, 20) })
}

// BenchmarkRework_PapyrusVsVOV — the architectural comparison: cost of
// switching to an alternative under each model.
func BenchmarkRework_PapyrusVsVOV(b *testing.B) {
	b.Run("papyrus-rework", func(b *testing.B) {
		sys := mustSystem(b, core.Config{Nodes: 2})
		seedShifter(b, sys, 3)
		th := sys.NewThread("t", "u")
		if _, err := sys.Invoke(th, "create-logic-description",
			map[string]string{"Spec": "/spec"}, map[string]string{"Outlogic": "l"}); err != nil {
			b.Fatal(err)
		}
		recs := th.SortedRecords()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := th.MoveCursor(recs[0]); err != nil {
				b.Fatal(err)
			}
			_ = th.DataScope()
			if err := th.MoveCursor(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("vov-retrace", func(b *testing.B) {
		suite := cad.NewSuite()
		store := oct.NewStore()
		vov := baseline.NewVOV(suite, store)
		spec, _ := store.Put("spec", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(3)), "d")
		vov.Checkin("spec", spec)
		if err := vov.Run("bdsyn", nil, []string{"spec"}, []string{"net"}); err != nil {
			b.Fatal(err)
		}
		if err := vov.Run("misII", nil, []string{"net"}, []string{"opt"}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s2, _ := store.Put("spec", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(3)), "d")
			if _, err := vov.Modify("spec", s2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Algorithm-level benchmarks (substrate costs) ----------------------

// BenchmarkTclEval measures the TDL substrate's interpreter.
func BenchmarkTclEval(b *testing.B) {
	in := tcl.New()
	script := `
set sum 0
for {set i 0} {$i < 50} {incr i} {
    set sum [expr {$sum + $i * 2}]
}
set sum
`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := in.Eval(script)
		if err != nil || out != "2450" {
			b.Fatalf("eval: %q %v", out, err)
		}
	}
}

// BenchmarkEspressoMinimize measures two-level minimization.
func BenchmarkEspressoMinimize(b *testing.B) {
	bh, err := logic.ParseBehavior(logic.GenBehavior(logic.GenConfig{Seed: 3, Inputs: 8, Outputs: 4, Depth: 5}))
	if err != nil {
		b.Fatal(err)
	}
	nw, err := bh.Synthesize()
	if err != nil {
		b.Fatal(err)
	}
	cv, err := nw.Collapse()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		min := cv.Minimize()
		if min.NumTerms() > cv.NumTerms() {
			b.Fatal("grew")
		}
	}
}

// BenchmarkWolfePlace measures standard-cell placement.
func BenchmarkWolfePlace(b *testing.B) {
	bh, _ := logic.ParseBehavior(logic.GenBehavior(logic.GenConfig{Seed: 5, Inputs: 8, Outputs: 6, Depth: 5}))
	nw, _ := bh.Synthesize()
	nl, err := layout.FromNetwork(nw)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := layout.Place(nl, layout.PlaceConfig{Passes: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLeftEdgeRouter measures detailed channel routing.
func BenchmarkLeftEdgeRouter(b *testing.B) {
	bh, _ := logic.ParseBehavior(logic.GenBehavior(logic.GenConfig{Seed: 5, Inputs: 8, Outputs: 6, Depth: 5}))
	nw, _ := bh.Synthesize()
	nl, _ := layout.FromNetwork(nw)
	pl, _ := layout.Place(nl, layout.PlaceConfig{})
	ch, _ := layout.DefineChannels(pl)
	gr, _ := layout.GlobalRoute(ch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := layout.DetailRoute(gr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotRestore measures store persistence.
func BenchmarkSnapshotRestore(b *testing.B) {
	store := oct.NewStore()
	for i := 0; i < 50; i++ {
		bh, _ := logic.ParseBehavior(logic.ShifterBehavior(3))
		nw, _ := bh.Synthesize()
		store.Put(fmt.Sprintf("net%d", i), oct.TypeLogic, nw, "bdsyn")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := store.Snapshot(&buf); err != nil {
			b.Fatal(err)
		}
		restored := oct.NewStore()
		if err := restored.Restore(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSDSMove — §3.3.4.2: the MOVE operation with notification.
func BenchmarkSDSMove(b *testing.B) {
	sys := mustSystem(b, core.Config{Nodes: 2})
	seedShifter(b, sys, 3)
	randy := sys.NewThread("r", "randy")
	mary := sys.NewThread("m", "mary")
	if _, err := sys.Invoke(randy, "create-logic-description",
		map[string]string{"Spec": "/spec"}, map[string]string{"Outlogic": "l"}); err != nil {
		b.Fatal(err)
	}
	space := sys.Space("A")
	space.Register(randy.ID())
	space.Register(mary.ID())
	if _, err := sys.Activity.MoveFromSDS(space, "l", 0, mary, "ml", true); err == nil {
		b.Fatal("retrieve before contribute should fail")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Activity.MoveToSDS(randy, "l", space); err != nil {
			b.Fatal(err)
		}
	}
}

// dummy usage keeps the activity import (InvokeOption types appear above).
var _ = activity.WithOptionOverrides

// BenchmarkHistorySaveLoad measures control-stream persistence (§5.3's
// third data structure).
func BenchmarkHistorySaveLoad(b *testing.B) {
	s := history.NewStream()
	var prev *history.Record
	for i := 0; i < 200; i++ {
		r := &history.Record{TaskName: "t", Time: int64(i),
			Outputs: []oct.Ref{{Name: fmt.Sprintf("o%d", i), Version: 1}},
			Steps:   []history.StepRecord{{Name: "s", Tool: "misII"}}}
		s.Append(r, prev)
		prev = r
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := history.Load(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkADGDerivation measures derivation-recipe extraction on a deep
// chain (the Make-style rebuild planning cost).
func BenchmarkADGDerivation(b *testing.B) {
	sys := mustSystem(b, core.Config{Nodes: 1})
	g := sys.Inference.Graph()
	prev := oct.Ref{Name: "src", Version: 1}
	for i := 0; i < 300; i++ {
		out := oct.Ref{Name: fmt.Sprintf("d%d", i), Version: 1}
		g.AddStep(history.StepRecord{Name: "s", Tool: "misII",
			Inputs: []oct.Ref{prev}, Outputs: []oct.Ref{out}})
		prev = out
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops, err := g.Derivation(prev)
		if err != nil || len(ops) != 300 {
			b.Fatal("bad derivation")
		}
	}
}
