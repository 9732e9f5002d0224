package core

// Durability: when Config.Durability is set, the System opens a shared
// write-ahead log and attaches it to the object store and the activity
// manager. Every committed version batch, thread lifecycle event, record
// attach, and cursor move is appended as it happens and committed once
// before the operation is acknowledged; SaveSession doubles as the
// checkpoint that compacts the log. Recover rebuilds a System from the
// snapshot plus the log tail after a crash (docs/DURABILITY.md).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"papyrus/internal/history"
	"papyrus/internal/obs"
	"papyrus/internal/wal"
)

// DurabilityConfig arms write-ahead logging for a System.
type DurabilityConfig struct {
	// Dir holds the log segments. Empty disables durability.
	Dir string
	// FsyncEvery is the group-commit flush interval in virtual ticks:
	// <= 1 fsyncs once per acknowledged operation (strict
	// commit-before-ack durability: every record an operation appended
	// is on disk before it returns); larger values batch fsyncs, trading
	// the tail of the log for throughput. Rotation, checkpointing, and
	// Close always fsync.
	FsyncEvery int64
	// SegmentBytes rotates log segments at this size;
	// 0 selects wal.DefaultSegmentBytes.
	SegmentBytes int64
}

// openWAL opens the configured log and attaches it to the store and the
// activity manager. No-op when durability is unconfigured.
func (s *System) openWAL() error {
	d := s.cfg.Durability
	if d == nil || d.Dir == "" {
		return nil
	}
	l, err := wal.Open(wal.Options{
		Dir:          d.Dir,
		SegmentBytes: d.SegmentBytes,
		FsyncEvery:   d.FsyncEvery,
		Now:          s.Cluster.Now,
		Metrics:      s.Metrics,
		Tracer:       s.Trace,
	})
	if err != nil {
		return fmt.Errorf("core: open wal: %w", err)
	}
	s.WAL = l
	s.Store.AttachWAL(l)
	s.Activity.AttachWAL(l)
	return nil
}

// Close syncs and closes the System's write-ahead log. Terminal: store
// and activity operations fail after Close when durability is armed.
// Safe (and a no-op) on systems without durability.
func (s *System) Close() error {
	if s.WAL == nil {
		return nil
	}
	return s.WAL.Close()
}

// Recover rebuilds a System after a crash: the session snapshot in
// sessionDir (SaveSession's store.json + threads.json; "" or missing
// files mean no snapshot was ever taken) is the checkpoint, and the
// write-ahead log in cfg.Durability.Dir replays the delta since. The
// torn tail a crashed writer left behind is truncated, checkpoint
// fingerprints are verified against the restored snapshot, and the
// recovered System continues appending to the same log. The returned
// stats report how much log was read and how many trailing bytes were
// discarded.
func Recover(cfg Config, sessionDir string) (*System, wal.ReplayStats, error) {
	d := cfg.Durability
	if d == nil || d.Dir == "" {
		return nil, wal.ReplayStats{}, fmt.Errorf("core: Recover requires Config.Durability")
	}
	// Build the system with the log detached: nothing that happens during
	// snapshot restore or log replay may re-append.
	bare := cfg
	bare.Durability = nil
	s, err := New(bare)
	if err != nil {
		return nil, wal.ReplayStats{}, err
	}
	s.cfg.Durability = d

	if sessionDir != "" {
		if err := s.restoreSnapshotIfPresent(sessionDir); err != nil {
			return nil, wal.ReplayStats{}, err
		}
	}

	// Replay every valid record through both subsystems; wal.Replay stops
	// cleanly at the torn tail.
	stats, err := wal.Replay(d.Dir, func(r wal.Record) error {
		storeApplied, err := s.Store.ReplayWALRecord(r)
		if err != nil {
			return err
		}
		actApplied, err := s.Activity.ReplayWALRecord(r)
		if err != nil {
			return err
		}
		if storeApplied || actApplied {
			s.Metrics.Inc("wal.recover.applied")
		} else {
			s.Metrics.Inc("wal.recover.skipped")
		}
		return nil
	})
	if err != nil {
		return nil, stats, err
	}
	s.Metrics.Add("wal.recover.records", int64(stats.Records))
	s.Metrics.Add("wal.recover.segments", int64(stats.Segments))
	if s.Trace != nil {
		s.Trace.Emit(obs.Event{VT: s.Cluster.Now(), Type: obs.EvWALRecover, Name: d.Dir,
			Args: map[string]string{
				"records":   fmt.Sprintf("%d", stats.Records),
				"segments":  fmt.Sprintf("%d", stats.Segments),
				"truncated": fmt.Sprintf("%d", stats.Truncated),
			}})
	}

	// Re-feed the recovered histories to the inference engine (Ch. 6: the
	// history subsumes the metadata), mirroring LoadSession.
	if s.Inference != nil {
		for _, t := range s.Activity.Threads() {
			for _, rec := range t.Stream().Records() {
				for _, step := range rec.Steps {
					s.Inference.ObserveStep(step)
				}
			}
		}
	}

	// The memo cache is derived data (no log of its own): rebuild it from
	// the recovered history so post-crash rework replays are still hits.
	s.WarmMemo()

	// Reopen for continued appends: wal.Open truncates the torn tail, so
	// the log's durable content now matches the recovered state exactly.
	if err := s.openWAL(); err != nil {
		return nil, stats, err
	}
	return s, stats, nil
}

// restoreSnapshotIfPresent loads store.json and threads.json from dir,
// treating missing files as an empty snapshot — a crash may predate the
// first SaveSession. Threads keep their saved IDs so the log tail can
// reference them; inference re-feeding is the caller's job (it must see
// the post-replay streams, not the snapshot's).
func (s *System) restoreSnapshotIfPresent(dir string) error {
	storeData, err := os.ReadFile(filepath.Join(dir, storeFile))
	switch {
	case err == nil:
		if err := s.Store.Restore(bytes.NewReader(storeData)); err != nil {
			return err
		}
	case !os.IsNotExist(err):
		return fmt.Errorf("core: read session store: %w", err)
	}

	threadData, err := os.ReadFile(filepath.Join(dir, threadsFile))
	switch {
	case err == nil:
		var sf sessionFile
		if err := json.Unmarshal(threadData, &sf); err != nil {
			return fmt.Errorf("core: decode session threads: %w", err)
		}
		for _, st := range sf.Threads {
			stream, err := history.Load(bytes.NewReader(st.Stream))
			if err != nil {
				return fmt.Errorf("core: load thread %q: %w", st.Name, err)
			}
			if _, err := s.Activity.ReinstateThread(st.ID, st.Name, st.Owner, stream, st.CursorID); err != nil {
				return err
			}
		}
	case !os.IsNotExist(err):
		return fmt.Errorf("core: read session threads: %w", err)
	}
	return nil
}
