package oct

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Persistence: the dissertation keeps a persistent version of design data
// and history for inter-process communication (§5.3). The store serializes
// to a JSON snapshot; payload types register codecs so the store need not
// know about CAD representations.

// Codec serializes one payload type.
type Codec struct {
	Marshal   func(Value) ([]byte, error)
	Unmarshal func([]byte) (Value, error)
}

var (
	codecMu sync.RWMutex
	codecs  = map[Type]Codec{}
)

// RegisterCodec installs the serializer for a payload type. The cad packages
// register theirs in init functions.
func RegisterCodec(t Type, c Codec) {
	codecMu.Lock()
	defer codecMu.Unlock()
	codecs[t] = c
}

func codecFor(t Type) (Codec, bool) {
	codecMu.RLock()
	defer codecMu.RUnlock()
	c, ok := codecs[t]
	return c, ok
}

// EncodeValue marshals a payload through its registered codec. Callers that
// need a canonical byte form of a payload — the memo cache digests input
// contents with it — get exactly the bytes the snapshot and WAL would
// store, so a content fingerprint agrees with what recovery reproduces.
// Returns an error when the type has no registered codec.
func EncodeValue(t Type, v Value) ([]byte, error) {
	c, ok := codecFor(t)
	if !ok {
		return nil, fmt.Errorf("oct: no codec registered for type %q", t)
	}
	return c.Marshal(v)
}

func init() {
	RegisterCodec(TypeText, Codec{
		Marshal: func(v Value) ([]byte, error) { return json.Marshal(string(v.(Text))) },
		Unmarshal: func(b []byte) (Value, error) {
			var s string
			if err := json.Unmarshal(b, &s); err != nil {
				return nil, err
			}
			return Text(s), nil
		},
	})
	RegisterCodec(TypeStats, Codec{
		Marshal: func(v Value) ([]byte, error) { return json.Marshal(string(v.(Text))) },
		Unmarshal: func(b []byte) (Value, error) {
			var s string
			if err := json.Unmarshal(b, &s); err != nil {
				return nil, err
			}
			return Text(s), nil
		},
	})
}

type snapshotObject struct {
	Name       string          `json:"name"`
	Version    int             `json:"version"`
	Type       Type            `json:"type"`
	Creator    string          `json:"creator,omitempty"`
	Stamp      int64           `json:"stamp"`
	Visible    bool            `json:"visible"`
	LastAccess int64           `json:"last_access"`
	Data       json.RawMessage `json:"data"`
}

type snapshot struct {
	Clock   int64            `json:"clock"`
	Objects []snapshotObject `json:"objects"`
	// Chains records the chain length of every name whose newest
	// versions were physically removed (trailing holes, or no live
	// version at all): Objects alone would imply a shorter chain, and a
	// restored store would then reassign a removed version number
	// (§3.2: never reused). Other names' lengths follow from Objects.
	// A snapshot without the field restores as before.
	Chains map[string]int `json:"chains,omitempty"`
}

// Snapshot writes the full store state as one JSON document, ordered by
// name then version so the output is independent of stripe layout, plus
// the length of every chain that ends in holes.
// Payload types without a registered codec cause an error rather than
// silent data loss. Snapshot locks stripes one at a time; take it at a
// quiescent point if a consistent cross-stripe cut is required (the
// shell and reclaimer both do).
func (s *Store) Snapshot(w io.Writer) error {
	snap := snapshot{Clock: s.clock.Load()}
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.RLock()
		var snapErr error
		st.index.Range(func(obj *Object) bool {
			c, ok := codecFor(obj.Type)
			if !ok {
				snapErr = fmt.Errorf("oct: no codec registered for type %q (object %s@%d)", obj.Type, obj.Name, obj.Version)
				return false
			}
			raw, err := c.Marshal(obj.Data)
			if err != nil {
				snapErr = fmt.Errorf("oct: marshal %s@%d: %w", obj.Name, obj.Version, err)
				return false
			}
			snap.Objects = append(snap.Objects, snapshotObject{
				Name: obj.Name, Version: obj.Version, Type: obj.Type,
				Creator: obj.Creator, Stamp: obj.Stamp, Visible: obj.visible,
				LastAccess: obj.lastAccess, Data: raw,
			})
			return true
		})
		st.index.HoleTails(func(name string, n int) {
			if snap.Chains == nil {
				snap.Chains = make(map[string]int)
			}
			snap.Chains[name] = n
		})
		st.mu.RUnlock()
		if snapErr != nil {
			return snapErr
		}
	}
	sort.Slice(snap.Objects, func(i, j int) bool {
		if snap.Objects[i].Name != snap.Objects[j].Name {
			return snap.Objects[i].Name < snap.Objects[j].Name
		}
		return snap.Objects[i].Version < snap.Objects[j].Version
	})
	enc := json.NewEncoder(w)
	return enc.Encode(&snap)
}

// Restore loads a snapshot into an empty store. It fails closed: a
// document that does not decode, an entry with a version below 1, a
// second entry for an already restored (name, version) slot, and a
// recorded chain length below 1 or below the name's highest restored
// version are errors, never a panic or a silently replaced slot.
func (s *Store) Restore(r io.Reader) error {
	raw, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("oct: read snapshot: %w", err)
	}
	var snap snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return fmt.Errorf("oct: decode snapshot: %w", err)
	}
	if s.ObjectCount() != 0 {
		return fmt.Errorf("oct: Restore requires an empty store")
	}
	// An empty store can still carry accounting drift — contention from
	// earlier traffic always, and a stale bytes gauge if every version
	// was individually removed — so both reset to reflect exactly the
	// snapshot.
	s.bytes.Store(0)
	s.contention.Store(0)
	s.clock.Store(snap.Clock)
	for _, so := range snap.Objects {
		if err := s.restoreObject(so); err != nil {
			return err
		}
	}
	for name, n := range snap.Chains {
		if n < 1 {
			return fmt.Errorf("oct: snapshot records chain length %d for %q", n, name)
		}
		st := s.stripeFor(name)
		s.lock(st)
		have := st.index.ChainLen(name)
		st.index.Reserve(name, n)
		st.mu.Unlock()
		if n < have {
			return fmt.Errorf("oct: snapshot records chain length %d for %q, below its restored version %d", n, name, have)
		}
	}
	return nil
}

// restoreObject decodes one snapshot entry through its codec and places
// it at its recorded slot.
func (s *Store) restoreObject(so snapshotObject) error {
	if so.Version < 1 {
		return fmt.Errorf("oct: snapshot entry %q has version %d", so.Name, so.Version)
	}
	c, ok := codecFor(so.Type)
	if !ok {
		return fmt.Errorf("oct: no codec registered for type %q (object %s@%d)", so.Type, so.Name, so.Version)
	}
	data, err := c.Unmarshal(so.Data)
	if err != nil {
		return fmt.Errorf("oct: unmarshal %s@%d: %w", so.Name, so.Version, err)
	}
	st := s.stripeFor(so.Name)
	s.lock(st)
	if st.index.Get(so.Name, so.Version) != nil {
		st.mu.Unlock()
		return fmt.Errorf("oct: snapshot has two entries for %s@%d", so.Name, so.Version)
	}
	st.index.Put(&Object{
		Name: so.Name, Version: so.Version, Type: so.Type, Data: data,
		Creator: so.Creator, Stamp: so.Stamp, visible: so.Visible,
		lastAccess: so.LastAccess,
	})
	st.mu.Unlock()
	s.bytes.Add(int64(data.Size()))
	s.written.Add(int64(data.Size()))
	return nil
}
