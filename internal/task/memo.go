package task

import (
	"papyrus/internal/history"
	"papyrus/internal/memo"
	"papyrus/internal/obs"
	"papyrus/internal/oct"
)

// History-based redo avoidance (docs/CACHING.md). With a memo cache
// configured, dispatch fingerprints each ready step before spawning its
// sprite: on a hit the cached output payloads are materialized as fresh
// store versions through a normal transaction — so WAL appending and
// stripe locking apply exactly as if the tool had run — and the step
// completes synchronously at the current virtual time without ever
// touching the cluster. On a miss the step runs normally and populates
// the cache at its first clean completion; faulted or retried attempts
// never populate, because apply only reaches the populate path after a
// committed, fault-free run.

// memoKeyFor fingerprints a step from its bound inputs, recording the
// input identity tokens on p for populate-time invalidation tracking.
// Returns "" when the step cannot be keyed (no cache, or a bound input
// could not be read), which disables memoization for the step.
func (r *run) memoKeyFor(p *pending) string {
	c := r.m.cfg.Memo
	if c == nil {
		return ""
	}
	p.memoTokens = p.memoTokens[:0]
	key := memo.StepKey{Tool: p.tool.Name, Options: p.options}
	for _, b := range p.bound {
		if b.obj == nil {
			return ""
		}
		id := c.InputID(b.obj)
		key.Inputs = append(key.Inputs, id)
		p.memoTokens = append(p.memoTokens, id.Version)
	}
	for _, phys := range p.outputs {
		key.Outputs = append(key.Outputs, memo.NormalizeName(phys))
	}
	return key.Sum()
}

// memoHandoff lets a hit hand each cached output's content digest to the
// version it materializes (memo.Cache.Adopt). Tests switch it off to
// compare against the encode-every-input reference path.
var memoHandoff = true

// tryMemoHit checks the cache for p and, on a hit, commits the cached
// payloads and completes the step in place. Returns true when the step
// was fully applied and must not be dispatched. A materialization failure
// (e.g. a WAL append error) falls back to the normal issue path so the
// error surfaces through the machinery that already handles it. The cache
// and the registry count the same outcome: a found entry that cannot be
// materialized is a miss in both.
func (r *run) tryMemoHit(p *pending) bool {
	cache := r.m.cfg.Memo
	if cache == nil {
		return false
	}
	p.memoKey = r.memoKeyFor(p)
	if p.memoKey == "" {
		return false
	}
	e, ok := cache.Lookup(p.memoKey)
	if !ok {
		r.m.cfg.Metrics.Inc("memo.miss")
		return false
	}
	objs, served, ok := r.materializeHit(p, e)
	if !ok {
		cache.Miss()
		r.m.cfg.Metrics.Inc("memo.miss")
		return false
	}
	cache.Hit(e)

	now := r.m.cfg.Cluster.Now()
	p.startedAt = now
	p.attempts++
	stepRec := r.record(p, history.StepRecord{
		StartedAt:   now,
		CompletedAt: now,
		Node:        int(home),
		Log:         e.Log,
	}, objs)

	r.m.cfg.Metrics.Inc("memo.hit")
	r.m.cfg.Metrics.Add("memo.bytes", served)
	r.m.cfg.Metrics.Inc("task.step.complete")
	r.m.cfg.Metrics.Observe("task.step.ticks", 0)
	if tr := r.m.cfg.Tracer; tr != nil {
		tr.Emit(obs.Event{
			VT: now, Type: obs.EvMemoHit, Name: p.spec.Name,
			Task: r.id, Node: stepRec.Node,
			Args: map[string]string{"tool": p.tool.Name, "key": p.memoKey[:12]},
		})
		tr.Emit(obs.Event{
			VT: now, Type: obs.EvStepCompleted, Name: p.spec.Name,
			Task: r.id, Node: stepRec.Node, Start: now,
			Args: map[string]string{"tool": p.tool.Name, "memo": "hit"},
		})
	}
	r.complete(p, stepRec)

	r.activateSuspended()
	return true
}

// materializeHit commits e's payloads under p's physical output names in
// one transaction and hands each cached output's digest to the version it
// became. It reports false, with nothing committed, when e does not match
// p's outputs or the commit fails.
func (r *run) materializeHit(p *pending, e *memo.Entry) ([]*oct.Object, int64, bool) {
	if len(e.Outputs) != len(p.outputs) {
		return nil, 0, false
	}
	outs := make([]*memo.Output, 0, 4)
	txn := r.m.cfg.Store.Begin()
	var served int64
	for _, phys := range p.outputs {
		out := e.Output(memo.NormalizeName(phys))
		if out == nil {
			txn.Abort()
			return nil, 0, false
		}
		if _, err := txn.Put(phys, out.Type, out.Data, p.tool.Name); err != nil {
			txn.Abort()
			return nil, 0, false
		}
		outs = append(outs, out)
		served += int64(out.Data.Size())
	}
	objs, err := txn.Commit()
	if err != nil {
		return nil, 0, false
	}
	if memoHandoff {
		// Commit returns the objects in Put order.
		for i, obj := range objs {
			r.m.cfg.Memo.Adopt(oct.Ref{Name: obj.Name, Version: obj.Version}, outs[i])
		}
	}
	return objs, served, true
}

// populateMemo caches a cleanly completed step's outputs. Only apply's
// success path calls it, so a crashed, faulted, retried-and-still-dirty,
// or aborted attempt can never install an entry; a crash between the
// commit and this call merely loses the entry, which recovery rebuilds
// from history (Cache.WarmStep). Steps that wrote outside their declared
// output set are not memoizable and are skipped.
func (r *run) populateMemo(p *pending, createdRefs []oct.Ref, logText string) {
	cache := r.m.cfg.Memo
	if cache == nil || p.memoKey == "" {
		return
	}
	if len(createdRefs) != len(p.outputs) || len(createdRefs) == 0 {
		return
	}
	declared := make(map[string]bool, len(p.outputs))
	for _, phys := range p.outputs {
		declared[phys] = true
	}
	entry := &memo.Entry{Log: logText}
	tokens := append([]string(nil), p.memoTokens...)
	for _, ref := range createdRefs {
		if !declared[ref.Name] {
			return
		}
		obj, err := r.m.cfg.Store.Peek(ref)
		if err != nil {
			return
		}
		entry.Outputs = append(entry.Outputs, memo.Output{
			Name: memo.NormalizeName(ref.Name), Type: obj.Type, Data: obj.Data,
		})
		tokens = append(tokens, ref.String())
	}
	cache.PopulateTracked(p.memoKey, entry, tokens)
}
