package task

import (
	"reflect"
	"testing"

	"papyrus/internal/adg"
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
