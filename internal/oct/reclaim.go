package oct

// Physical reclamation support (§5.4, docs/RECLAIM.md). The background
// reclaimer (internal/reclaim) discovers candidates with InvisibleSlice —
// the store's one candidate scan, budgeted and resumable — and deletes
// them with ReclaimVersions, the store's one physical delete, which
// appends one RecReclaim WAL record per lock stripe *while that
// stripe's lock is still held*: commit-before-ack, exactly like every
// other store mutation, so a crash at any log byte leaves the index and
// the log agreeing about which versions still exist and the
// kill-at-every-byte matrix converges with sweeps enabled.

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"papyrus/internal/obs"
	"papyrus/internal/wal"
)

// walReclaim is the RecReclaim payload: the versions one sweep slice
// physically deleted from a single lock stripe, in deletion order.
type walReclaim struct {
	Removes []Ref `json:"removes"`
	Clock   int64 `json:"clock"`
}

// InvisibleSlice returns the reclaim candidates: invisible versions whose
// last access stamp is at or below the cutoff. It scans whole stripes
// starting at stripe `start`, stopping after `budget` records have been
// examined (a stripe is never split, so the overshoot is bounded by one
// stripe's population; budget <= 0 scans everything). It returns the
// candidate refs sorted by (name, version), the stripe to resume from,
// and how many records were scanned. When next wraps back to where a
// full cycle began, the reclaimer has seen every stripe once at this
// cutoff.
func (s *Store) InvisibleSlice(cutoff int64, start, budget int) (refs []Ref, next int, scanned int) {
	n := len(s.stripes)
	if start < 0 || start >= n {
		start = 0
	}
	next = start
	for i := 0; i < n; i++ {
		idx := (start + i) % n
		st := &s.stripes[idx]
		st.mu.RLock()
		st.index.Range(func(v *Object) bool {
			scanned++
			if !v.visible && v.lastAccess <= cutoff {
				refs = append(refs, Ref{Name: v.Name, Version: v.Version})
			}
			return true
		})
		st.mu.RUnlock()
		next = (idx + 1) % n
		if budget > 0 && scanned >= budget {
			break
		}
	}
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Name != refs[j].Name {
			return refs[i].Name < refs[j].Name
		}
		return refs[i].Version < refs[j].Version
	})
	return refs, next, scanned
}

// ReclaimVersions physically deletes the given candidate versions,
// re-checking each one under its stripe lock: versions that no longer
// exist, are visible, or have been accessed after the cutoff are skipped
// (the candidate scan runs outside the locks, so a concurrent Get must
// win the race). Deletions are grouped by stripe and applied in
// ascending stripe order; with a WAL attached, each stripe's batch is
// logged as one RecReclaim record before the stripe lock is released.
// Returns the deleted objects sorted by (name, version).
func (s *Store) ReclaimVersions(refs []Ref, cutoff int64) ([]*Object, error) {
	byStripe := make(map[int][]Ref)
	for _, ref := range refs {
		idx := s.stripeIndex(ref.Name)
		byStripe[idx] = append(byStripe[idx], ref)
	}
	order := make([]int, 0, len(byStripe))
	for idx := range byStripe {
		order = append(order, idx)
	}
	sort.Ints(order)
	var removed []*Object
	var freed int64
	for _, idx := range order {
		st := &s.stripes[idx]
		s.lock(st)
		var batch []Ref
		for _, ref := range byStripe[idx] {
			obj := st.index.Get(ref.Name, ref.Version)
			if obj == nil || obj.visible || obj.lastAccess > cutoff {
				continue
			}
			st.index.Delete(ref.Name, ref.Version)
			size := int64(obj.Data.Size())
			s.bytes.Add(-size)
			freed += size
			removed = append(removed, obj)
			batch = append(batch, ref)
		}
		var err error
		if len(batch) > 0 && s.wal != nil {
			err = s.appendReclaim(batch)
		}
		st.mu.Unlock()
		if err != nil {
			return removed, err
		}
	}
	sort.Slice(removed, func(i, j int) bool {
		if removed[i].Name != removed[j].Name {
			return removed[i].Name < removed[j].Name
		}
		return removed[i].Version < removed[j].Version
	})
	if len(removed) > 0 {
		s.metrics.Add("oct.reclaim.versions", int64(len(removed)))
		s.metrics.Add("oct.reclaim.bytes", freed)
		if s.tracer != nil {
			s.tracer.Emit(obs.Event{
				VT: s.vt(), Type: obs.EvReclaim,
				Name: removed[0].Name + "@" + strconv.Itoa(removed[0].Version),
				Args: map[string]string{
					"versions": strconv.Itoa(len(removed)),
					"bytes":    strconv.FormatInt(freed, 10),
				},
			})
		}
	}
	return removed, nil
}

// appendReclaim logs one stripe's reclaim batch. The caller holds the
// stripe lock, so log order matches deletion order for every name in
// the batch.
func (s *Store) appendReclaim(removes []Ref) error {
	p := walReclaim{Removes: removes, Clock: s.clock.Load()}
	payload, err := json.Marshal(&p)
	if err != nil {
		return fmt.Errorf("oct: encode WAL reclaim: %w", err)
	}
	return s.wal.Append(wal.Record{Type: wal.RecReclaim, Payload: payload})
}

// applyWALReclaim replays one reclaim batch during recovery. Deletes of
// versions the snapshot or an earlier replayed record no longer carries
// are skipped, making replay idempotent at any cut.
func (s *Store) applyWALReclaim(p walReclaim) (bool, error) {
	applied := false
	for _, rm := range p.Removes {
		st := s.stripeFor(rm.Name)
		s.lock(st)
		if obj := st.index.Delete(rm.Name, rm.Version); obj != nil {
			s.bytes.Add(-int64(obj.Data.Size()))
			applied = true
		}
		st.mu.Unlock()
	}
	if s.clock.Load() < p.Clock {
		s.clock.Store(p.Clock)
	}
	return applied, nil
}

// TotalWrittenBytes returns the cumulative payload bytes ever written
// into this store — committed writes plus replayed WAL writes; never
// decremented by Hide or reclamation. Like StripeContention it is a
// probe, not a registry metric. The bounded-memory experiment
// (EXPERIMENTS.md E17) reports TotalBytes()/TotalWrittenBytes() as the
// live-set ratio.
func (s *Store) TotalWrittenBytes() int64 { return s.written.Load() }
