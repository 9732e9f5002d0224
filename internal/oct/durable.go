package oct

// Durability: the store appends one WAL record per committed version
// batch — a transaction commit (Store.Put is a one-write transaction), a
// Hide, or a reclaim batch (reclaim.go) — while the touched stripe locks
// are still held.
// Holding the locks across the append means WAL order agrees with
// version-assignment order for any single name, so a crash at any byte
// leaves a per-name contiguous committed prefix (docs/DURABILITY.md).
// The append does not wait for the disk under strict durability: the
// stripe locks are released first, and the operation that acknowledges
// the caller — a task invocation, a rework, an import, a sweep — commits
// the log once (wal.Log.Commit). A caller that mutates the store
// directly acknowledges its own writes with Store.WAL().Commit(), which
// is nil-safe. Recovery (core.Recover) restores the latest JSON snapshot
// with Restore and replays the log tail from that snapshot's checkpoint
// record through ReplayWALRecord; the checkpoint's fingerprint verifies
// the restored content, and commit replay is idempotent anyway.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"papyrus/internal/wal"
)

// AttachWAL installs the write-ahead log the store appends committed
// batches to (nil detaches). Like SetObservability, call it before the
// store is used concurrently.
func (s *Store) AttachWAL(l *wal.Log) { s.wal = l }

// WAL returns the attached log, if any.
func (s *Store) WAL() *wal.Log { return s.wal }

// walWrite is one created version inside a walCommit payload.
type walWrite struct {
	Name       string          `json:"name"`
	Version    int             `json:"version"`
	Type       Type            `json:"type"`
	Creator    string          `json:"creator,omitempty"`
	Stamp      int64           `json:"stamp"`
	LastAccess int64           `json:"last_access"`
	Data       json.RawMessage `json:"data"`
}

// walSet is one visibility change inside a walCommit payload.
type walSet struct {
	Name    string `json:"name"`
	Version int    `json:"version"`
	Visible bool   `json:"visible"`
}

// walCommit is the RecOCTCommit payload: everything one atomic store
// operation changed — the versions a commit created, or the visibility
// set a Hide made (physical deletion is RecReclaim). Writes carry
// explicit store-assigned version numbers, which is what makes replay
// idempotent and order-independent across disjoint names.
type walCommit struct {
	Writes []walWrite `json:"writes,omitempty"`
	Sets   []walSet   `json:"sets,omitempty"`
	Clock  int64      `json:"clock"`
}

// marshalValue encodes a payload through its registered codec.
func marshalValue(typ Type, data Value) (json.RawMessage, error) {
	c, ok := codecFor(typ)
	if !ok {
		return nil, fmt.Errorf("oct: no codec registered for type %q (required for WAL)", typ)
	}
	return c.Marshal(data)
}

// appendCommit writes one commit batch to the WAL. Callers hold the
// stripe locks the batch touched; durability waits for the caller's
// acknowledgement commit.
func (s *Store) appendCommit(c walCommit) error {
	c.Clock = s.clock.Load()
	payload, err := json.Marshal(&c)
	if err != nil {
		return fmt.Errorf("oct: encode WAL commit: %w", err)
	}
	return s.wal.Append(wal.Record{Type: wal.RecOCTCommit, Payload: payload})
}

// walWriteFor renders a created object as its WAL entry.
func walWriteFor(obj *Object, raw json.RawMessage) walWrite {
	return walWrite{
		Name: obj.Name, Version: obj.Version, Type: obj.Type,
		Creator: obj.Creator, Stamp: obj.Stamp, LastAccess: obj.lastAccess,
		Data: raw,
	}
}

// Fingerprint returns the SHA-256 of VersionMapText: a deterministic
// digest of the store's logical content, independent of stripe count and
// interleaving. Checkpoint records carry it so recovery can verify the
// snapshot and the log describe the same history.
func (s *Store) Fingerprint() string {
	sum := sha256.Sum256([]byte(s.VersionMapText()))
	return hex.EncodeToString(sum[:])
}

// CheckpointPayload is the RecCheckpoint payload written when a snapshot
// is taken: the snapshot's generation, store clock and version-map
// fingerprint.
type CheckpointPayload struct {
	Generation  int64  `json:"generation,omitempty"`
	Clock       int64  `json:"clock"`
	Fingerprint string `json:"fingerprint"`
}

// Checkpoint appends and fsyncs the checkpoint record of snapshot
// generation gen, describing the store's current clock and fingerprint.
// The caller writes that snapshot and then prunes the log
// (wal.Log.Prune). No-op without an attached log.
func (s *Store) Checkpoint(gen int64) error {
	if s.wal == nil {
		return nil
	}
	payload, err := json.Marshal(&CheckpointPayload{Generation: gen, Clock: s.Clock(), Fingerprint: s.Fingerprint()})
	if err != nil {
		return err
	}
	return s.wal.Checkpoint(payload)
}

// ReplayWALRecord applies one log record to the store during recovery.
// Records of other subsystems are ignored; checkpoint records verify that
// the store's current content matches the fingerprint taken when the
// snapshot was written. Returns whether the record was applied (vs
// skipped as already covered by the snapshot, or not an OCT record).
func (s *Store) ReplayWALRecord(r wal.Record) (applied bool, err error) {
	switch r.Type {
	case wal.RecOCTCommit:
		var c walCommit
		if err := json.Unmarshal(r.Payload, &c); err != nil {
			return false, fmt.Errorf("oct: decode WAL commit: %w", err)
		}
		return s.applyWALCommit(c)
	case wal.RecReclaim:
		var p walReclaim
		if err := json.Unmarshal(r.Payload, &p); err != nil {
			return false, fmt.Errorf("oct: decode WAL reclaim: %w", err)
		}
		return s.applyWALReclaim(p)
	case wal.RecCheckpoint:
		var p CheckpointPayload
		if err := json.Unmarshal(r.Payload, &p); err != nil {
			return false, fmt.Errorf("oct: decode WAL checkpoint: %w", err)
		}
		if got := s.Fingerprint(); got != p.Fingerprint {
			return false, fmt.Errorf("oct: checkpoint fingerprint mismatch: snapshot and WAL describe different histories (have %s, checkpoint recorded %s)", got, p.Fingerprint)
		}
		if s.Clock() < p.Clock {
			return false, fmt.Errorf("oct: checkpoint clock %d ahead of recovered clock %d", p.Clock, s.Clock())
		}
		return true, nil
	}
	return false, nil
}

// applyWALCommit replays one commit batch. Writes whose version slot is
// already occupied (covered by the snapshot) are skipped; visibility sets
// re-apply harmlessly in log order. Recovery is single-threaded, so plain
// lock/unlock per name suffices.
func (s *Store) applyWALCommit(c walCommit) (bool, error) {
	applied := false
	for _, w := range c.Writes {
		if w.Version < 1 {
			return applied, fmt.Errorf("oct: WAL write %q has version %d", w.Name, w.Version)
		}
		codec, ok := codecFor(w.Type)
		if !ok {
			return applied, fmt.Errorf("oct: no codec registered for type %q (object %s@%d)", w.Type, w.Name, w.Version)
		}
		data, err := codec.Unmarshal(w.Data)
		if err != nil {
			return applied, fmt.Errorf("oct: unmarshal WAL write %s@%d: %w", w.Name, w.Version, err)
		}
		st := s.stripeFor(w.Name)
		s.lock(st)
		if st.index.Get(w.Name, w.Version) == nil {
			st.index.Put(&Object{
				Name: w.Name, Version: w.Version, Type: w.Type, Data: data,
				Creator: w.Creator, Stamp: w.Stamp, visible: true,
				lastAccess: w.LastAccess,
			})
			s.bytes.Add(int64(data.Size()))
			s.written.Add(int64(data.Size()))
			applied = true
		}
		st.mu.Unlock()
		if s.clock.Load() < w.Stamp {
			s.clock.Store(w.Stamp)
		}
	}
	for _, set := range c.Sets {
		st := s.stripeFor(set.Name)
		s.lock(st)
		if obj, err := lookupOn(st, Ref{Name: set.Name, Version: set.Version}); err == nil {
			obj.visible = set.Visible
			applied = true
		}
		st.mu.Unlock()
	}
	if s.clock.Load() < c.Clock {
		s.clock.Store(c.Clock)
	}
	return applied, nil
}
