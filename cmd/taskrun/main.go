// taskrun runs one TDL task template standalone, the way the
// dissertation's task manager was spawned per invocation (§4.1). It
// generates (or loads) a behavioral specification, binds the template's
// formal arguments, executes on a simulated cluster, and prints the
// history record.
//
// Usage:
//
//	taskrun -task Structure_Synthesis -nodes 4 -seed 7
//	taskrun -task Mosaico -shifter 4
//	taskrun -list
//	taskrun -man wolfe
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"papyrus/internal/cad/logic"
	"papyrus/internal/core"
	"papyrus/internal/fault"
	"papyrus/internal/memo"
	"papyrus/internal/obs"
	"papyrus/internal/oct"
	"papyrus/internal/render"
	"papyrus/internal/task"
	"papyrus/internal/tdl"
	"papyrus/internal/templates"
)

func main() {
	taskName := flag.String("task", "Structure_Synthesis", "task template to run")
	nodes := flag.Int("nodes", 4, "simulated workstations")
	seed := flag.Int64("seed", 1, "workload generator seed")
	inputsN := flag.Int("inputs", 5, "generated spec inputs")
	outputsN := flag.Int("outputs", 3, "generated spec outputs")
	depth := flag.Int("depth", 4, "generated spec expression depth")
	shifter := flag.Int("shifter", 0, "use a shifter spec of this width instead of a random one")
	list := flag.Bool("list", false, "list shipped templates and exit")
	man := flag.String("man", "", "print a tool's manual page and exit")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON file of the run")
	stats := flag.Bool("stats", false, "print the metrics registry after the run")
	faults := flag.String("faults", "", "fault-injection plan, e.g. seed=7,crash=1@100-300,stepfail=Optimize:0.5,stall=0.25:10 (see docs/FAULTS.md)")
	retries := flag.Int("retries", 3, "max attempts per step for transient failures (1 disables retries)")
	backoff := flag.Int64("backoff", 8, "virtual-tick backoff before the first retry (doubles per attempt)")
	workers := flag.Int("workers", 0, "tool-body worker pool size (0 = default; any value yields identical results)")
	stepLatency := flag.Duration("steplatency", 0, "wall-clock latency injected per tool body, e.g. 2ms (models real tool spawn cost)")
	walDir := flag.String("wal-dir", "", "write-ahead log directory; enables durability (docs/DURABILITY.md)")
	fsyncEvery := flag.Int64("fsync-every", 1, "group-commit flush interval in virtual ticks (<=1 fsyncs once per acknowledged operation)")
	useMemo := flag.Bool("memo", false, "enable the history-based step-result cache (docs/CACHING.md)")
	flag.Parse()

	var metrics *obs.Registry
	var tracer *obs.Tracer
	if *stats {
		metrics = obs.NewRegistry()
	}
	if *tracePath != "" {
		tracer = obs.NewTracer()
		if metrics == nil {
			metrics = obs.NewRegistry()
		}
	}
	var plan *fault.Plan
	if *faults != "" {
		p, err := fault.ParsePlan(*faults)
		if err != nil {
			log.Fatal(err)
		}
		plan = &p
	}
	cfg := core.Config{
		Nodes: *nodes, ReMigrateEvery: 25, Metrics: metrics, Trace: tracer,
		Fault:   plan,
		Retry:   task.RetryPolicy{MaxAttempts: *retries, BackoffBase: *backoff},
		Workers: *workers, StepLatency: *stepLatency,
	}
	if *walDir != "" {
		cfg.Durability = &core.DurabilityConfig{Dir: *walDir, FsyncEvery: *fsyncEvery}
	}
	if *useMemo {
		cfg.Memo = memo.NewCache()
	}
	sys, err := core.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := sys.Close(); err != nil {
			log.Fatal(err)
		}
	}()
	if plan != nil {
		fmt.Printf("faults armed: %s (retries=%d, backoff=%d)\n", plan, *retries, *backoff)
	}

	if *list {
		fmt.Print(render.TaskList(templates.Names()))
		return
	}
	if *man != "" {
		page, err := sys.Suite.ManPage(*man)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(page)
		return
	}

	text, err := templates.Lookup(*taskName)
	if err != nil {
		log.Fatal(err)
	}
	tpl, err := tdl.Parse(text)
	if err != nil {
		log.Fatal(err)
	}

	spec := logic.GenBehavior(logic.GenConfig{
		Seed: *seed, Inputs: *inputsN, Outputs: *outputsN, Depth: *depth,
	})
	if *shifter > 0 {
		spec = logic.ShifterBehavior(*shifter)
	}
	if _, err := sys.ImportObject("/gen/spec", oct.TypeBehavioral, oct.Text(spec)); err != nil {
		log.Fatal(err)
	}
	if _, err := sys.ImportObject("/gen/cmd", oct.TypeText, oct.Text("sim\n")); err != nil {
		log.Fatal(err)
	}

	// Bind formals generically: behavioral-spec-shaped inputs get the
	// generated spec; command-shaped inputs get the command file.
	inputs := map[string]string{}
	for _, formal := range tpl.Inputs {
		switch formal {
		case "Musa_Command", "Commands":
			inputs[formal] = "/gen/cmd"
		default:
			inputs[formal] = "/gen/spec"
		}
	}
	outputs := map[string]string{}
	for _, formal := range tpl.Outputs {
		outputs[formal] = "out." + formal
	}

	th := sys.NewThread("taskrun", os.Getenv("USER"))
	rec, err := sys.Invoke(th, *taskName, inputs, outputs)
	if err != nil {
		log.Fatalf("task failed: %v", err)
	}
	fmt.Print(render.ProgressFromRecord(rec))
	fmt.Printf("\nvirtual time: %d ticks on %d workstations\n", sys.Cluster.Now(), *nodes)
	if sys.Memo != nil {
		st := sys.Memo.Snapshot()
		fmt.Printf("memo: %d entries, %d hits, %d misses, %d bytes served\n",
			st.Entries, st.Hits, st.Misses, st.BytesServed)
	}
	for _, ref := range rec.Outputs {
		typ, _ := sys.Inference.TypeOf(ref)
		fmt.Printf("output %-24s type=%s\n", ref, typ)
	}
	if tracer != nil {
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		if err := tracer.WriteChromeTrace(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ntrace: %d events written to %s (open in chrome://tracing)\n", tracer.Len(), *tracePath)
	}
	if *stats {
		sys.Cluster.ObserveUtilization()
		fmt.Println()
		if err := metrics.WriteText(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
}
