package task

import (
	"reflect"
	"testing"

	"papyrus/internal/adg"
	"papyrus/internal/cad"
	"papyrus/internal/cad/logic"
	"papyrus/internal/history"
	"papyrus/internal/memo"
	"papyrus/internal/oct"
)

// inPlaceTpl's Optimize step reads and rewrites the same intermediate:
// it must record the version it read as its input and the version it
// wrote as its output, whether its tool ran or a memo hit served it.
const inPlaceTpl = `task InPlace {Spec} {Out}
step {1 Synth} {Spec} {m1} {bdsyn -o m1 Spec}
step {2 Optimize} {m1} {m1} {misII -o m1 m1}
step {3 Finish} {m1} {Out} {misII -o Out m1} {ControlDependency 2}
`

// normalized strips the instance suffix from refs, so records of two
// instances of one template compare equal.
func normalized(refs []oct.Ref) []oct.Ref {
	out := make([]oct.Ref, len(refs))
	for i, ref := range refs {
		out[i] = oct.Ref{Name: memo.NormalizeName(ref.Name), Version: ref.Version}
	}
	return out
}

func TestInPlaceStepRecordsReadVersion(t *testing.T) {
	run := func(t *testing.T, e *env, spec oct.Ref) history.StepRecord {
		t.Helper()
		rec, err := e.mgr.RunTask(Invocation{
			Task:    "InPlace",
			Inputs:  map[string]oct.Ref{"Spec": spec},
			Outputs: map[string]string{"Out": "inplace.out"},
		})
		if err != nil {
			t.Fatal(err)
		}
		g := adg.New()
		var opt history.StepRecord
		for _, s := range rec.Steps {
			g.AddStep(s)
			if s.Name == "Optimize" {
				opt = s
			}
		}
		in, out := normalized(opt.Inputs), normalized(opt.Outputs)
		if !reflect.DeepEqual(in, []oct.Ref{{Name: "m1", Version: 1}}) || !reflect.DeepEqual(out, []oct.Ref{{Name: "m1", Version: 2}}) {
			t.Errorf("Optimize records in=%v out=%v, want in=[m1@1] out=[m1@2]", opt.Inputs, opt.Outputs)
		}
		for _, ref := range rec.Outputs {
			if _, err := g.Derivation(ref); err != nil {
				t.Errorf("Derivation(%s): %v", ref, err)
			}
		}
		return opt
	}
	seed := func(t *testing.T, e *env) oct.Ref {
		return e.seed(t, "inplace.spec", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(2)))
	}
	tpl := map[string]string{"InPlace": inPlaceTpl}

	t.Run("memo off", func(t *testing.T) {
		e := newEnv(t, 2, tpl, nil)
		run(t, e, seed(t, e))
	})
	t.Run("memo on", func(t *testing.T) {
		cache := memo.NewCache()
		e := newEnv(t, 2, tpl, func(c *Config) { c.Memo = cache })
		spec := seed(t, e)
		miss := run(t, e, spec)
		hitsBefore := cache.Snapshot().Hits
		hit := run(t, e, spec)
		if got := cache.Snapshot().Hits - hitsBefore; got != 3 {
			t.Fatalf("replay served %d steps from the cache, want 3", got)
		}
		// A hit completes at dispatch, on the home node, in zero ticks;
		// everything else it records must match the tool run it replays.
		strip := func(rec history.StepRecord) history.StepRecord {
			rec.StartedAt, rec.CompletedAt, rec.Node, rec.Migrations = 0, 0, 0, 0
			rec.Inputs, rec.Outputs = normalized(rec.Inputs), normalized(rec.Outputs)
			return rec
		}
		if !reflect.DeepEqual(strip(miss), strip(hit)) {
			t.Errorf("miss records %+v, hit records %+v", miss, hit)
		}
	})
}

// readerTpl issues Reader beside Optimize, which rewrites m1 in place.
// Nothing orders the two, so Reader issues on m1@1; it runs for 1000
// ticks, long enough for Optimize to write m1@2 before Reader completes.
const readerTpl = `task P {Spec} {Out}
step {1 Synth} {Spec} {m1} {bdsyn -o m1 Spec}
step {2 Optimize} {m1} {m1} {misII -o m1 m1}
step {3 Reader} {m1} {Out} {slowcpy -o Out m1}
`

// readerOnlyTpl is readerTpl without Optimize.
const readerOnlyTpl = `task Q {Spec} {Out}
step {1 Synth} {Spec} {m1} {bdsyn -o m1 Spec}
step {3 Reader} {m1} {Out} {slowcpy -o Out m1}
`

// TestStepReadsTheVersionItIssuedOn: a step's inputs are bound when it
// issues. Reader records, reads and — with the cache on — is keyed by
// the m1 it issued on, even though Optimize writes a newer m1 first. A
// later task that reaches Reader on the same m1 therefore gets from the
// cache the bytes a run without the cache writes.
func TestStepReadsTheVersionItIssuedOn(t *testing.T) {
	tpl := map[string]string{"P": readerTpl, "Q": readerOnlyTpl}
	setup := func(t *testing.T, cache *memo.Cache) (*env, oct.Ref) {
		e := newEnv(t, 2, tpl, func(c *Config) {
			if cache != nil {
				c.Memo = cache
			}
		})
		e.suite.Register(&cad.Tool{
			Name: "slowcpy", Brief: "slow copy", Man: "copies its input slowly",
			TSD:  cad.TSD{Writes: oct.TypeLogic},
			Cost: func(in []*oct.Object, opts []string) float64 { return 1000 },
			Run: func(ctx *cad.Ctx) error {
				return ctx.PutOutput(0, ctx.Inputs[0].Type, ctx.Inputs[0].Data)
			},
		})
		return e, e.seed(t, "p.spec", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(3)))
	}
	run := func(t *testing.T, e *env, task string, spec oct.Ref, out string) (*history.Record, *oct.Object) {
		t.Helper()
		rec, err := e.mgr.RunTask(Invocation{
			Task:    task,
			Inputs:  map[string]oct.Ref{"Spec": spec},
			Outputs: map[string]string{"Out": out},
		})
		if err != nil {
			t.Fatal(err)
		}
		obj, err := e.store.Peek(oct.Ref{Name: out})
		if err != nil {
			t.Fatal(err)
		}
		return rec, obj
	}
	step := func(rec *history.Record, name string) history.StepRecord {
		for _, s := range rec.Steps {
			if s.Name == name {
				return s
			}
		}
		return history.StepRecord{}
	}

	t.Run("memo off", func(t *testing.T) {
		e, spec := setup(t, nil)
		rec, out := run(t, e, "P", spec, "out")
		synth, opt, reader := step(rec, "Synth"), step(rec, "Optimize"), step(rec, "Reader")
		if reader.CompletedAt <= opt.CompletedAt {
			t.Fatalf("Reader completed at %d, not after Optimize at %d", reader.CompletedAt, opt.CompletedAt)
		}
		if !reflect.DeepEqual(reader.Inputs, synth.Outputs) {
			t.Errorf("Reader records inputs %v, want Synth's output %v", reader.Inputs, synth.Outputs)
		}
		m1, err := e.store.Peek(synth.Outputs[0])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out.Data, m1.Data) {
			t.Errorf("Reader wrote %v, want a copy of %s", out.Data, synth.Outputs[0])
		}
	})
	t.Run("memo on", func(t *testing.T) {
		plain, spec := setup(t, nil)
		_, want := run(t, plain, "Q", spec, "out")

		cache := memo.NewCache()
		e, spec := setup(t, cache)
		run(t, e, "P", spec, "out")
		hits := cache.Snapshot().Hits
		_, got := run(t, e, "Q", spec, "out")
		if n := cache.Snapshot().Hits - hits; n != 2 {
			t.Fatalf("Q served %d steps from the cache, want 2", n)
		}
		if !reflect.DeepEqual(got.Data, want.Data) {
			t.Errorf("Q with the cache wrote %v, without it %v", got.Data, want.Data)
		}
	})
}
