package papyrus

// The striped-apply invariance matrix (docs/PERFORMANCE.md). Concurrent
// sessions commit into one shared store, each commit locking only the
// stripes it touches, and the worker count sizes both the session
// fan-out and each session's tool-body pool. So the stripe layout and
// the worker count are pure performance knobs: every cell of stripes
// {1, 64} x workers {1, 8} must export byte-identical stats, a
// byte-identical merged trace, and a byte-identical store version map.
// A single stripe serializes every commit across sessions; 64 stripes
// let commits of disjoint sessions proceed side by side — neither may
// be observable in any output.
// CI runs this file under -race -count=2 (.github/workflows/ci.yml).

import (
	"bytes"
	"fmt"
	"testing"

	"papyrus/internal/cad/logic"
	"papyrus/internal/core"
	"papyrus/internal/obs"
	"papyrus/internal/oct"
	"papyrus/internal/oracle"
)

// runStripedCell executes 4 disjoint fan-out sessions over a shared
// store with the given stripe and worker counts and returns the
// deterministic exports. With workers > 1 the sessions run, and commit,
// concurrently across the store's stripes; multi-session runs suppress
// the store-level tracer (docs/OBSERVABILITY.md), so the session-level
// trace stays comparable.
func runStripedCell(t *testing.T, stripes, workers int) (stats, versions, trace string) {
	t.Helper()
	reg := obs.NewRegistry()
	tracer := obs.NewTracer()
	sys, err := core.New(core.Config{
		Workers:          workers,
		StoreStripes:     stripes,
		DisableInference: true,
		Metrics:          reg,
		Trace:            tracer,
		ExtraTemplates:   map[string]string{"Fanout4": memoFanoutTpl},
	})
	if err != nil {
		t.Fatal(err)
	}
	const sessions = 4
	specs := make([]core.SessionSpec, sessions)
	for i := 0; i < sessions; i++ {
		i := i
		specs[i] = core.SessionSpec{
			Name: fmt.Sprintf("designer%d", i),
			Run: func(s *core.Session) error {
				inputs := map[string]string{}
				for _, formal := range []string{"A", "B", "C", "D"} {
					name := fmt.Sprintf("/s%d/%s", i, formal)
					if _, err := sys.ImportObject(name, oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(4))); err != nil {
						return err
					}
					inputs[formal] = name
				}
				outputs := map[string]string{}
				for j := 1; j <= 4; j++ {
					outputs[fmt.Sprintf("O%d", j)] = fmt.Sprintf("/s%d/out%d", i, j)
				}
				th := s.Activity.NewThread(s.Name, "test")
				_, err := s.Invoke(th, "Fanout4", inputs, outputs)
				return err
			},
		}
	}
	if _, err := sys.RunSessions(specs); err != nil {
		t.Fatal(err)
	}
	var traceBuf bytes.Buffer
	if err := tracer.WriteChromeTrace(&traceBuf); err != nil {
		t.Fatal(err)
	}
	return oracle.StatsText(reg), sys.Store.VersionMapText(), traceBuf.String()
}

func TestStripedApplyInvariance(t *testing.T) {
	baseStats, baseVersions, baseTrace := runStripedCell(t, 1, 1)
	if baseVersions == "" {
		t.Fatal("empty version map from the serial reference cell")
	}
	for _, stripes := range []int{1, 64} {
		for _, workers := range []int{1, 8} {
			if stripes == 1 && workers == 1 {
				continue
			}
			stats, versions, trace := runStripedCell(t, stripes, workers)
			if stats != baseStats {
				t.Errorf("stripes=%d workers=%d: stats diverge from the 1-stripe serial cell:\n%s\nvs\n%s",
					stripes, workers, stats, baseStats)
			}
			if versions != baseVersions {
				t.Errorf("stripes=%d workers=%d: version map diverges:\n%s\nvs\n%s",
					stripes, workers, versions, baseVersions)
			}
			if trace != baseTrace {
				t.Errorf("stripes=%d workers=%d: merged trace diverges", stripes, workers)
			}
		}
	}
}
