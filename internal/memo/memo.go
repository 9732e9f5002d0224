// Package memo is the history-based redo-avoidance cache: a concurrent,
// content-addressed map from canonical step fingerprints to the output
// versions the step produced. The Papyrus dissertation's central claim is
// that recorded design history pays for itself; this package is where it
// pays. When the task manager is about to issue a step whose key is
// already cached, it materializes the cached payloads as fresh OCT
// versions instead of dispatching a sprite — so replaying a design
// thread's control stream after a cursor move (§3.3.3 rework) costs a few
// store commits instead of a full re-run of every CAD tool.
//
// The cache is derived data. It keeps no write-ahead log and needs no
// invalidation protocol: keys are built from immutable single-assignment
// versions (stale entries are simply never looked up again), and after a
// crash the cache is rebuilt from the recovered design history
// (core.Recover → WarmStep). It holds no metrics registry or tracer —
// observability is emitted by the task manager through per-session sinks
// so multi-session runs stay deterministic (docs/CACHING.md). In the
// served architecture each papyrusd engine shard arms its own cache
// (-memo), surfaced over the wire at GET /v1/memo (docs/SERVER.md).
package memo

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"sync/atomic"

	"papyrus/internal/history"
	"papyrus/internal/oct"
)

// Output is one cached output payload. Name is the normalized declared
// output name; the task manager maps it back to the physical name of the
// issuing step instance at materialization time.
type Output struct {
	Name string
	Type oct.Type
	Data oct.Value

	// digest is the payload's content digest, shared by every copy of the
	// Output and computed at most once. PopulateTracked installs it, so
	// every output of a cached entry has one.
	digest *lazyDigest
}

type lazyDigest struct {
	once sync.Once
	sum  string
}

// contentDigest returns the digest InputID derives for a version holding
// this payload: the same bytes, computed at most once per cached entry
// however many versions are materialized from it.
func (o *Output) contentDigest() string {
	if o.digest == nil {
		return digestOf(o.Type, o.Data)
	}
	o.digest.once.Do(func() { o.digest.sum = digestOf(o.Type, o.Data) })
	return o.digest.sum
}

// Entry is the cached result of one clean step completion.
type Entry struct {
	Outputs []Output
	Log     string
}

// Output returns the cached output with the given normalized name, or nil.
// Entries hold a handful of outputs, so a scan beats building an index.
func (e *Entry) Output(name string) *Output {
	for i := range e.Outputs {
		if e.Outputs[i].Name == name {
			return &e.Outputs[i]
		}
	}
	return nil
}

func (e *Entry) bytes() int64 {
	var n int64
	for _, o := range e.Outputs {
		n += int64(o.Data.Size())
	}
	return n
}

// Stats is a point-in-time snapshot of cache activity.
type Stats struct {
	Entries     int
	Hits        int64
	Misses      int64
	BytesStored int64 // payload bytes held by cached entries
	BytesServed int64 // payload bytes materialized from hits
}

// Cache is safe for concurrent use by any number of task-manager workers
// and sessions. Payload values are stored by reference; this is sound
// because OCT payloads are immutable once committed (single assignment).
type Cache struct {
	mu      sync.RWMutex
	entries map[string]*Entry
	digests map[string]string // "name@version" -> content digest (immutable)

	// adopted maps a version a hit materialized to the cached output it
	// was materialized from, until the version's first InputID promotes
	// the output's digest into digests. It is kept apart from digests so
	// that a handed-over digest never used as a key input never becomes a
	// "content:" token of Invalidate; Invalidate clears it like digests.
	adopted map[string]*Output

	// byToken / keyTokens are the reclamation reverse index: every entry
	// is registered under the identity tokens of the versions it depends
	// on (input InputID.Version strings plus output "name@version" refs),
	// so a sweep that physically deletes those versions can drop exactly
	// the affected entries — and their index bookkeeping — in O(tokens).
	// Without this the digests map alone would grow for the life of the
	// process, which is the failure mode reclamation exists to prevent.
	byToken   map[string]map[string]struct{} // token -> keys registered under it
	keyTokens map[string][]string            // key -> tokens it is registered under

	hits, misses, stored, served atomic.Int64
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{
		entries:   make(map[string]*Entry),
		digests:   make(map[string]string),
		adopted:   make(map[string]*Output),
		byToken:   make(map[string]map[string]struct{}),
		keyTokens: make(map[string][]string),
	}
}

// Lookup returns the entry for key, counting a miss when it is absent. A
// found entry is not yet a hit: the caller counts it with Hit once its
// payloads are materialized, or with Miss when it cannot use the entry,
// so Snapshot agrees with what the caller reports.
func (c *Cache) Lookup(key string) (*Entry, bool) {
	c.mu.RLock()
	e, ok := c.entries[key]
	c.mu.RUnlock()
	if !ok {
		c.misses.Add(1)
	}
	return e, ok
}

// Hit counts a found entry whose payloads were materialized.
func (c *Cache) Hit(e *Entry) {
	c.hits.Add(1)
	c.served.Add(e.bytes())
}

// Miss counts a found entry the caller could not materialize.
func (c *Cache) Miss() { c.misses.Add(1) }

// Adopt records that ref was materialized from the cached out, so the
// first InputID over ref takes out's digest instead of encoding and
// hashing the payload again. The task manager calls it for every output
// a hit commits.
func (c *Cache) Adopt(ref oct.Ref, out *Output) {
	name := ref.String()
	c.mu.Lock()
	c.adopted[name] = out
	c.mu.Unlock()
}

// Populate inserts the entry for key. First writer wins: concurrent
// identical steps (same key ⇒ same content, by construction) race
// harmlessly, and an entry is never partially visible — it is fully built
// before insertion, so a crash between a step's commit and its Populate
// simply leaves the entry absent, to be rebuilt by WarmStep on recovery.
// Returns false if the key was already present or the entry is empty.
func (c *Cache) Populate(key string, e *Entry) bool {
	return c.PopulateTracked(key, e, nil)
}

// PopulateTracked is Populate plus invalidation tracking: the entry is
// registered under each identity token so Invalidate can find it when a
// version it depends on is physically reclaimed (docs/RECLAIM.md). The
// task manager passes the step's input InputID.Version tokens and its
// output refs; an entry populated with no tokens is immune to
// invalidation (the pre-reclamation behavior).
func (c *Cache) PopulateTracked(key string, e *Entry, tokens []string) bool {
	if key == "" || e == nil || len(e.Outputs) == 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return false
	}
	for i := range e.Outputs {
		if e.Outputs[i].digest == nil {
			e.Outputs[i].digest = new(lazyDigest)
		}
	}
	c.entries[key] = e
	c.stored.Add(e.bytes())
	for _, tok := range tokens {
		if tok == "" {
			continue
		}
		set, ok := c.byToken[tok]
		if !ok {
			set = make(map[string]struct{})
			c.byToken[tok] = set
		}
		if _, dup := set[key]; !dup {
			set[key] = struct{}{}
			c.keyTokens[key] = append(c.keyTokens[key], tok)
		}
	}
	return true
}

// dropKeyLocked removes one entry and all its reverse-index bookkeeping.
// Caller holds c.mu.
func (c *Cache) dropKeyLocked(key string) bool {
	e, ok := c.entries[key]
	if ok {
		delete(c.entries, key)
		c.stored.Add(-e.bytes())
	}
	for _, tok := range c.keyTokens[key] {
		if set := c.byToken[tok]; set != nil {
			delete(set, key)
			if len(set) == 0 {
				delete(c.byToken, tok)
			}
		}
	}
	delete(c.keyTokens, key)
	return ok
}

// Invalidate drops every entry registered under any identity token of
// the given physically reclaimed versions — the plain "name@version"
// ref, the "opaque:" form, and the "content:" digest form if the
// content was ever digested by InputID — and forgets the versions'
// memoized and adopted digests. Called by the reclaimer at sweep time
// (docs/RECLAIM.md); returns the number of entries removed. A digest a
// hit handed over but no key ever used adds no "content:" token.
// Conservative by design: a content-pinned entry shared with a
// still-live identical version is dropped too, and simply repopulates on
// the next clean run.
func (c *Cache) Invalidate(refs []oct.Ref) int {
	if len(refs) == 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	removed := 0
	for _, ref := range refs {
		name := ref.String()
		tokens := []string{name, "opaque:" + name}
		if d, ok := c.digests[name]; ok && d != "" {
			tokens = append(tokens, "content:"+d)
		}
		delete(c.digests, name)
		delete(c.adopted, name)
		for _, tok := range tokens {
			set := c.byToken[tok]
			if set == nil {
				continue
			}
			keys := make([]string, 0, len(set))
			for key := range set {
				keys = append(keys, key)
			}
			for _, key := range keys {
				if c.dropKeyLocked(key) {
					removed++
				}
			}
		}
	}
	return removed
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// Snapshot returns current cache statistics.
func (c *Cache) Snapshot() Stats {
	c.mu.RLock()
	entries := len(c.entries)
	c.mu.RUnlock()
	return Stats{
		Entries:     entries,
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		BytesStored: c.stored.Load(),
		BytesServed: c.served.Load(),
	}
}

// digestOf is the content digest of a payload: SHA-256 over its type and
// codec bytes, or "" when the type has no codec.
func digestOf(t oct.Type, v oct.Value) string {
	raw, err := oct.EncodeValue(t, v)
	if err != nil {
		return ""
	}
	h := sha256.New()
	h.Write([]byte(t))
	h.Write([]byte{0})
	h.Write(raw)
	return hex.EncodeToString(h.Sum(nil))
}

// InputID derives the key component for one resolved input object,
// memoizing content digests per immutable name@version pair. A version a
// hit materialized takes the digest of the cached output it came from
// (Adopt), so each cached payload is encoded at most once per cache.
func (c *Cache) InputID(obj *oct.Object) InputID {
	ref := oct.Ref{Name: obj.Name, Version: obj.Version}.String()
	normalized := NormalizeName(obj.Name)

	c.mu.RLock()
	digest, ok := c.digests[ref]
	var from *Output
	if !ok {
		from = c.adopted[ref]
	}
	c.mu.RUnlock()
	if !ok {
		if from != nil {
			digest = from.contentDigest()
		} else {
			digest = digestOf(obj.Type, obj.Data)
		}
		c.mu.Lock()
		c.digests[ref] = digest
		delete(c.adopted, ref)
		c.mu.Unlock()
	}

	id := InputID{Name: normalized, Type: string(obj.Type), Digest: digest}
	switch {
	case normalized == obj.Name:
		// Stable name: name@version identifies immutable content.
		id.Version = ref
	case digest != "":
		// Task-internal intermediate: the physical name embeds the run
		// instance ID, so pin by content instead — that is what lets a
		// replayed chain hit on its intermediate-fed steps.
		id.Version = "content:" + digest
	default:
		// Intermediate with no codec: cannot prove content equality
		// across instances, so pin to this exact version (never hits
		// across runs, which is the safe direction).
		id.Version = "opaque:" + ref
	}
	return id
}

// WarmStep rebuilds the cache entry for one recorded step, keying it
// exactly as the live issue path would and fetching output payloads from
// the store. Used by crash recovery: history + store reproduce the cache,
// which is why the cache itself needs no log. Steps that failed, produced
// nothing, or whose versions are no longer materialized are skipped.
// Returns true when a new entry was added.
func (c *Cache) WarmStep(store *oct.Store, step history.StepRecord) bool {
	if step.ExitStatus != 0 || len(step.Outputs) == 0 {
		return false
	}
	key := StepKey{Tool: step.Tool, Options: step.Options}
	for _, ref := range step.Inputs {
		obj, err := store.Peek(ref)
		if err != nil {
			return false
		}
		key.Inputs = append(key.Inputs, c.InputID(obj))
	}
	entry := &Entry{Log: step.Log}
	tokens := make([]string, 0, len(key.Inputs)+len(step.Outputs))
	for _, in := range key.Inputs {
		tokens = append(tokens, in.Version)
	}
	for _, ref := range step.Outputs {
		obj, err := store.Peek(ref)
		if err != nil {
			return false
		}
		name := NormalizeName(obj.Name)
		key.Outputs = append(key.Outputs, name)
		entry.Outputs = append(entry.Outputs, Output{Name: name, Type: obj.Type, Data: obj.Data})
		tokens = append(tokens, ref.String())
	}
	return c.PopulateTracked(key.Sum(), entry, tokens)
}
