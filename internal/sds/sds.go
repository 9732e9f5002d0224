// Package sds implements synchronization data spaces (dissertation
// §3.3.4.2): the shared repositories through which design threads
// cooperate. With respect to an SDS, only registered threads can
// contribute or retrieve objects; objects are never updated in place, only
// new versions are added; and there is no locking — when a new version
// lands, a predicate-filtered notification is sent to the threads holding
// a notification flag on that object, leaving conflict resolution to the
// owning designers.
//
// Watch installs a notification flag without a Retrieve's MOVE; the
// served front-end (internal/server, docs/SERVER.md) gives each polling
// session its own flag and builds its long-poll endpoint on it, diffing
// the per-object Versions sequence so wire clients resume exactly once,
// in order. Closing a session drops its flags (DropWatches) and its
// registration (Unregister). Spaces are scoped to their owning store — in
// the served deployment, to one engine shard.
package sds

import (
	"fmt"
	"sort"
	"sync"

	"papyrus/internal/obs"
	"papyrus/internal/oct"
)

// Predicate filters notifications (§3.3.4.2: "notification is needed only
// when a new version is checked in and it is faster than the old one").
// prev is nil for the first version.
type Predicate func(prev, next *oct.Object) bool

// Notifier receives change notifications; design threads implement it.
type Notifier func(space, object string, ref oct.Ref)

// watch is one notification flag left behind by a MOVE out of the space.
type watch struct {
	threadID int
	notify   Notifier
	preds    []Predicate
}

// Space is one synchronization data space.
type Space struct {
	id    string
	store *oct.Store

	mu         sync.Mutex
	registered map[int]bool
	// versions maps a logical object name to the refs contributed, in
	// arrival order.
	versions map[string][]oct.Ref
	watches  map[string][]watch

	metrics *obs.Registry
	tracer  *obs.Tracer
	vtnow   func() int64
}

// SetObservability installs optional metrics/trace sinks (nil = off) and
// a virtual-time source for trace stamps; when now is nil, events fall
// back to the store clock.
func (s *Space) SetObservability(metrics *obs.Registry, tracer *obs.Tracer, now func() int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metrics = metrics
	s.tracer = tracer
	s.vtnow = now
}

func vtOr(now func() int64, store *oct.Store) int64 {
	if now != nil {
		return now()
	}
	return store.Clock()
}

// New creates a space backed by the shared design store.
func New(id string, store *oct.Store) *Space {
	return &Space{
		id:         id,
		store:      store,
		registered: make(map[int]bool),
		versions:   make(map[string][]oct.Ref),
		watches:    make(map[string][]watch),
	}
}

// ID returns the space identifier.
func (s *Space) ID() string { return s.id }

// Register admits a thread; the set of registered threads is dynamic
// (§3.3.4.2).
func (s *Space) Register(threadID int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.registered[threadID] = true
}

// Unregister removes a thread (its notification flags stay until dropped).
func (s *Space) Unregister(threadID int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.registered, threadID)
}

// Registered reports whether the thread may use the space.
func (s *Space) Registered(threadID int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.registered[threadID]
}

// Threads lists registered thread IDs, sorted.
func (s *Space) Threads() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int, 0, len(s.registered))
	for id := range s.registered {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// spaceName returns the store name under which the space keeps an object.
func (s *Space) spaceName(object string) string {
	return "sds/" + s.id + "/" + object
}

// Contribute moves an object version from a thread's workspace into the
// space: a physical copy under the space's namespace (§3.3.4.2's MOVE with
// an SDS destination). Watching threads are notified subject to their
// predicates, and only after the copy is durable: Contribute commits the
// store's write-ahead log (a no-op without one) before any watcher fires,
// so no thread is told of a version a crash could still take back.
func (s *Space) Contribute(threadID int, object string, src *oct.Object) (oct.Ref, error) {
	s.mu.Lock()
	if !s.registered[threadID] {
		s.mu.Unlock()
		return oct.Ref{}, fmt.Errorf("sds: thread %d is not registered with space %q", threadID, s.id)
	}
	s.mu.Unlock()

	var prev *oct.Object
	if refs := s.Versions(object); len(refs) > 0 {
		if p, err := s.store.Peek(refs[len(refs)-1]); err == nil {
			prev = p
		}
	}
	obj, err := s.store.Put(s.spaceName(object), src.Type, src.Data, "sds-move")
	if cerr := s.store.WAL().Commit(); err == nil {
		err = cerr
	}
	if err != nil {
		return oct.Ref{}, err
	}
	ref := oct.Ref{Name: obj.Name, Version: obj.Version}

	s.mu.Lock()
	s.versions[object] = append(s.versions[object], ref)
	watchers := append([]watch(nil), s.watches[object]...)
	metrics, tracer, vtnow := s.metrics, s.tracer, s.vtnow
	s.mu.Unlock()
	metrics.Inc("sds.object.contribute")

	for _, w := range watchers {
		fire := true
		for _, p := range w.preds {
			if !p(prev, obj) {
				fire = false
				break
			}
		}
		if !fire {
			metrics.Inc("sds.notify.filter")
			continue
		}
		metrics.Inc("sds.notify.fire")
		if tracer != nil {
			tracer.Emit(obs.Event{
				VT: vtOr(vtnow, s.store), Type: obs.EvSDSNotify, Name: s.id + "/" + object,
				Args: map[string]string{"thread": fmt.Sprintf("%d", w.threadID), "ref": ref.String()},
			})
		}
		if w.notify != nil {
			w.notify(s.id, object, ref)
		}
	}
	return ref, nil
}

// Retrieve moves the newest (or an explicit) version of an object from the
// space into a thread's workspace name (§3.3.4.2's MOVE with a thread
// destination): a physical copy plus, when notifyFlag is set, a
// notification flag with the given predicates. The copy is durable when
// Retrieve returns (it commits the store's write-ahead log).
func (s *Space) Retrieve(threadID int, object string, version int, destName string, notifyFlag bool, notify Notifier, preds ...Predicate) (oct.Ref, error) {
	s.mu.Lock()
	if !s.registered[threadID] {
		s.mu.Unlock()
		return oct.Ref{}, fmt.Errorf("sds: thread %d is not registered with space %q", threadID, s.id)
	}
	refs := s.versions[object]
	metrics := s.metrics
	s.mu.Unlock()
	if len(refs) == 0 {
		return oct.Ref{}, fmt.Errorf("sds: space %q has no object %q", s.id, object)
	}
	src := refs[len(refs)-1]
	if version != 0 {
		if version < 1 || version > len(refs) {
			return oct.Ref{}, fmt.Errorf("sds: space %q has no version %d of %q", s.id, version, object)
		}
		src = refs[version-1]
	}
	obj, err := s.store.Get(src)
	if err != nil {
		return oct.Ref{}, err
	}
	copied, err := s.store.Put(destName, obj.Type, obj.Data, "sds-move")
	if cerr := s.store.WAL().Commit(); err == nil {
		err = cerr
	}
	if err != nil {
		return oct.Ref{}, err
	}
	if notifyFlag {
		s.mu.Lock()
		s.watches[object] = append(s.watches[object], watch{threadID: threadID, notify: notify, preds: preds})
		s.mu.Unlock()
	}
	metrics.Inc("sds.object.retrieve")
	return oct.Ref{Name: copied.Name, Version: copied.Version}, nil
}

// Watch installs a notification flag without the MOVE a Retrieve
// performs: the thread is notified of every future Contribute of object
// that passes the predicates. This is the subscription primitive the
// served front-end (internal/server) exposes as the SDS long-poll
// endpoint; a designer holding only a flag is exactly the
// §3.3.4.2 notification contract with the retrieval deferred. The thread
// must be registered with the space.
func (s *Space) Watch(threadID int, object string, notify Notifier, preds ...Predicate) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.registered[threadID] {
		return fmt.Errorf("sds: thread %d is not registered with space %q", threadID, s.id)
	}
	s.watches[object] = append(s.watches[object], watch{threadID: threadID, notify: notify, preds: preds})
	return nil
}

// DropWatches removes a thread's notification flags on an object (users
// "can choose to disable this flag when appropriate").
func (s *Space) DropWatches(threadID int, object string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.watches[object][:0]
	for _, w := range s.watches[object] {
		if w.threadID != threadID {
			kept = append(kept, w)
		}
	}
	s.watches[object] = kept
}

// Versions lists the refs contributed under an object name, oldest first.
func (s *Space) Versions(object string) []oct.Ref {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]oct.Ref(nil), s.versions[object]...)
}

// Objects lists the space's object names, sorted.
func (s *Space) Objects() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.versions))
	for n := range s.versions {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
