package core

// Memoization wiring. The step-result cache (internal/memo) is pure
// derived data: its keys and payloads are functions of the design history
// and the store's immutable versions, so it keeps no write-ahead log of
// its own. Recover rebuilds it by re-keying every cleanly completed step
// of every recovered thread — rederive below — which makes "crash
// mid-populate" harmless by construction: an entry the crash lost is
// recomputed from the same history that produced it (docs/CACHING.md).

import (
	"fmt"

	"papyrus/internal/obs"
)

// rederive rebuilds, in one pass over the recovered steps, the state
// derived from design history: inference re-observes every step (Ch. 6:
// the history subsumes the metadata), and the memo cache re-keys every
// completed step whose versions are still materialized in the store.
func (s *System) rederive() {
	warmed := 0
	for _, t := range s.Activity.Threads() {
		for _, rec := range t.Stream().Records() {
			for _, step := range rec.Steps {
				if s.Inference != nil {
					s.Inference.ObserveStep(step)
				}
				if s.Memo != nil && s.Memo.WarmStep(s.Store, step) {
					warmed++
				}
			}
		}
	}
	if s.Memo == nil {
		return
	}
	s.Metrics.Add("memo.warm", int64(warmed))
	if s.Trace != nil && warmed > 0 {
		s.Trace.Emit(obs.Event{
			VT: s.Cluster.Now(), Type: obs.EvMemoWarm,
			Args: map[string]string{"entries": fmt.Sprintf("%d", warmed)},
		})
	}
}
