package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"papyrus/internal/history"
	"papyrus/internal/wal"
)

// Session persistence: the dissertation keeps design data and the history
// as one persistent state shared by the activity manager, the reclamation
// process, and later sessions (§5.3). SaveSession writes it as one file,
// session.json — the store, every thread's control stream and the
// checkpoint generation — in a crash-safe order: the log's checkpoint
// record first, then the snapshot via a fsynced temp file, a rename and a
// directory fsync, and only then the pruning of the log segments it
// covers. Recover (durable.go) is the only reader (docs/DURABILITY.md).

const (
	snapshotFile = "session.json"
	snapshotTemp = snapshotFile + ".tmp"
)

// sessionThread is one persisted thread. Its ID stays stable across
// save/recover, so log records, which name threads by ID, replay on it.
type sessionThread struct {
	ID       int             `json:"id"`
	Name     string          `json:"name"`
	Owner    string          `json:"owner"`
	CursorID int             `json:"cursor_id"`
	Stream   json.RawMessage `json:"stream"`
}

// sessionSnapshot is the content of session.json. Generation counts the
// checkpoints taken with a log attached; the log's checkpoint record of
// the same generation marks the end of what Store and Threads cover.
type sessionSnapshot struct {
	Generation int64           `json:"generation"`
	Store      json.RawMessage `json:"store"`
	Threads    []sessionThread `json:"threads"`
}

// saveStep runs after each filesystem step of SaveSession's write order,
// naming it; tests replace it to capture the on-disk state at every cut.
var saveStep = func(step string) {}

// SaveSession writes the store and all threads under dir as one snapshot
// and, with durability armed, makes it the log's next checkpoint. Call it
// at a quiescent point, so the snapshot and the checkpoint agree.
func (s *System) SaveSession(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	snap := sessionSnapshot{Generation: s.gen}
	if s.WAL != nil {
		snap.Generation++
	}
	var buf bytes.Buffer
	if err := s.Store.Snapshot(&buf); err != nil {
		return fmt.Errorf("core: snapshot store: %w", err)
	}
	snap.Store = buf.Bytes()
	for _, t := range s.Activity.Threads() {
		var streamBuf bytes.Buffer
		if err := t.Stream().Save(&streamBuf); err != nil {
			return fmt.Errorf("core: save thread %q: %w", t.Name(), err)
		}
		st := sessionThread{ID: t.ID(), Name: t.Name(), Owner: t.Owner(), Stream: streamBuf.Bytes()}
		if c := t.Cursor(); c != nil {
			st.CursorID = c.ID
		}
		snap.Threads = append(snap.Threads, st)
	}
	data, err := json.Marshal(&snap)
	if err != nil {
		return err
	}
	if err := s.Store.Checkpoint(snap.Generation); err != nil {
		return err
	}
	saveStep("checkpoint")
	if err := writeSnapshot(dir, append(data, '\n')); err != nil {
		return err
	}
	s.gen = snap.Generation
	err = s.WAL.Prune()
	saveStep("prune")
	return err
}

// writeSnapshot replaces dir's snapshot file with data crash-atomically:
// a temp file is written and fsynced, renamed into place, and the
// directory is fsynced so the rename itself is durable.
func writeSnapshot(dir string, data []byte) error {
	tmp := filepath.Join(dir, snapshotTemp)
	err := os.WriteFile(tmp, data, 0o644)
	saveStep("write")
	if err == nil {
		err = wal.Fsync(tmp)
	}
	saveStep("sync")
	if err == nil {
		err = os.Rename(tmp, filepath.Join(dir, snapshotFile))
	}
	saveStep("rename")
	if err == nil {
		err = wal.Fsync(dir)
	}
	saveStep("dirsync")
	return err
}

// restoreSnapshot, the one decoder of the snapshot file, restores dir's
// snapshot into the fresh System s; false means dir is "" or holds none.
// It fails closed: a document that does not decode, a thread ID below 1,
// two threads with one ID and a malformed control stream are errors.
func (s *System) restoreSnapshot(dir string) (bool, error) {
	if dir == "" {
		return false, nil
	}
	data, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("core: read snapshot: %w", err)
	}
	var snap sessionSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return false, fmt.Errorf("core: decode snapshot: %w", err)
	}
	if err := s.Store.Restore(bytes.NewReader(snap.Store)); err != nil {
		return false, err
	}
	seen := make(map[int]bool, len(snap.Threads))
	for _, st := range snap.Threads {
		if st.ID < 1 || seen[st.ID] {
			return false, fmt.Errorf("core: snapshot thread %q has duplicate or invalid ID %d", st.Name, st.ID)
		}
		seen[st.ID] = true
		stream, err := history.Load(bytes.NewReader(st.Stream))
		if err != nil {
			return false, fmt.Errorf("core: load thread %q: %w", st.Name, err)
		}
		if _, err := s.Activity.ReinstateThread(st.ID, st.Name, st.Owner, stream, st.CursorID); err != nil {
			return false, err
		}
	}
	s.gen = snap.Generation
	return true, nil
}
