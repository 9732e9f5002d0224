package workload

// run.go drives a generated Workload in-process. Independent profiles
// run as free-running core.RunSessions sessions (maximum concurrency,
// the engine's own determinism contract). Cooperating profiles — and any
// run that wants round-granular side work like reclaim sweeps — run in
// barrier-separated rounds over core.OpenSession stacks: every designer
// finishes round r before any starts r+1, which is what makes shared-
// space observations (sequence numbers, notification state) exact.

import (
	"fmt"
	"sync"

	"papyrus/internal/core"
)

// Options tunes RunInProcess.
type Options struct {
	// ForceRounds drives an independent profile with the round-barrier
	// driver anyway. The store content must come out byte-identical to
	// the free-running drive (the determinism property test proves it).
	ForceRounds bool
	// SweepEveryRounds > 0 runs a reclaim sweep at every Nth round
	// barrier (implies the round driver). Sweeps with a non-zero grace
	// are sensitive to put-order timing; deterministic soaks use
	// ReclaimGrace 0, where every hidden version is already past due.
	SweepEveryRounds int
	// SweepBudget caps index records scanned per barrier sweep slice
	// (reclaim.Reclaimer.Sweep); <= 0 sweeps the whole store. Budgeted
	// slices resume from the reclaimer's cursor, so a long soak
	// amortizes full-store scans across rounds.
	SweepBudget int
	// OnRound, when set, is called at every round barrier after the
	// round's designers (and any sweep) finish — the E17 soak's
	// checkpoint probe. Errors abort the run.
	OnRound func(round int) error
}

// CoreConfig overlays the workload's needs on a base engine config: the
// generated templates, the storm fault plan and its retry budget, and
// inference when the profile queries the ADG. The base is copied, never
// mutated.
func (w *Workload) CoreConfig(base core.Config) core.Config {
	merged := make(map[string]string, len(base.ExtraTemplates)+len(w.Templates))
	for k, v := range base.ExtraTemplates {
		merged[k] = v
	}
	for k, v := range w.Templates {
		merged[k] = v
	}
	base.ExtraTemplates = merged
	if w.Fault != nil {
		plan := *w.Fault
		base.Fault = &plan
		base.Retry = w.Retry
		if base.Nodes == 1 {
			// A planned crash on a one-node cluster would strand every
			// process; the storm plan assumes a second workstation.
			base.Nodes = 2
		}
	}
	if w.Inference {
		base.DisableInference = false
	}
	return base
}

// newDesigner binds designer index i of the workload to an Env.
func newDesigner(w *Workload, index int, env Env) *Designer {
	return &Designer{
		Env:   env,
		Index: index,
		w:     w,
		ns:    fmt.Sprintf("/w/%s/d%d", w.Spec.Profile, index),
	}
}

// RunInProcess drives the workload against a System built from
// CoreConfig. It picks the free-running or round-barrier driver from
// Workload.Coop and the Options.
func RunInProcess(sys *core.System, w *Workload, opts Options) error {
	if w.Coop || opts.ForceRounds || opts.SweepEveryRounds > 0 || opts.OnRound != nil {
		return runRounds(sys, w, opts)
	}
	specs := make([]core.SessionSpec, w.Spec.Sessions)
	for i := range specs {
		i := i
		specs[i] = core.SessionSpec{
			Name: fmt.Sprintf("d%d", i),
			Run: func(s *core.Session) error {
				d := newDesigner(w, i, newProcEnv(sys, s, fmt.Sprintf("wl-%s-d%d", w.Spec.Profile, i), "workload"))
				if err := w.runAll(d); err != nil {
					return fmt.Errorf("workload %s d%d %w", w.Spec.Profile, i, err)
				}
				return nil
			},
		}
	}
	_, err := sys.RunSessions(specs)
	return err
}

// runRounds is the in-process barrier driver: per-designer OpenSession
// stacks, a sweep and the OnRound probe at every round barrier.
func runRounds(sys *core.System, w *Workload, opts Options) error {
	restore := sys.SuppressSharedTraces()
	defer restore()

	designers := make([]*Designer, w.Spec.Sessions)
	for i := range designers {
		sess, err := sys.OpenSession(i, fmt.Sprintf("d%d", i))
		if err != nil {
			return err
		}
		designers[i] = newDesigner(w, i, newProcEnv(sys, sess, fmt.Sprintf("wl-%s-d%d", w.Spec.Profile, i), "workload"))
	}
	return w.drive(designers, true, func(r int) error {
		if opts.SweepEveryRounds > 0 && (r+1)%opts.SweepEveryRounds == 0 {
			if _, err := sys.Reclaimer.Sweep(opts.SweepBudget); err != nil {
				return err
			}
		}
		if opts.OnRound != nil {
			return opts.OnRound(r)
		}
		return nil
	})
}

// runAll runs one designer's setup and every round.
func (w *Workload) runAll(d *Designer) error {
	if err := w.prof.setup(d); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	for r := 0; r < w.Rounds; r++ {
		if err := w.prof.round(d, r); err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
	}
	return nil
}

// drive runs the designers concurrently. Without barriers each runs its
// whole script in one phase; with them every designer finishes a phase
// (setup, then each round) before any starts the next, and barrier runs
// after each round.
func (w *Workload) drive(designers []*Designer, barriers bool, barrier func(r int) error) error {
	phase := func(label string, fn func(d *Designer) error) error {
		errs := make([]error, len(designers))
		var wg sync.WaitGroup
		for i, d := range designers {
			wg.Add(1)
			go func(i int, d *Designer) {
				defer wg.Done()
				errs[i] = fn(d)
			}(i, d)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("workload %s d%d %s: %w", w.Spec.Profile, i, label, err)
			}
		}
		return nil
	}

	if !barriers {
		return phase("run", w.runAll)
	}
	if err := phase("setup", w.prof.setup); err != nil {
		return err
	}
	for r := 0; r < w.Rounds; r++ {
		r := r
		if err := phase(fmt.Sprintf("round %d", r), func(d *Designer) error {
			return w.prof.round(d, r)
		}); err != nil {
			return err
		}
		if barrier != nil {
			if err := barrier(r); err != nil {
				return err
			}
		}
	}
	return nil
}
