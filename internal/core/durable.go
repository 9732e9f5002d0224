package core

// Durability: when Config.Durability is set, the System opens a shared
// write-ahead log and attaches it to the object store and the activity
// manager. Every committed version batch, thread lifecycle event, record
// attach, and cursor move is appended as it happens and committed once
// before the operation is acknowledged; SaveSession's snapshot is the
// checkpoint the log is pruned against, and Recover rebuilds a System
// from that snapshot plus the log tail (docs/DURABILITY.md).

import (
	"encoding/json"
	"fmt"

	"papyrus/internal/obs"
	"papyrus/internal/oct"
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

// Recover rebuilds a System from the snapshot in sessionDir ("" or a
// missing file mean none) and, with cfg.Durability set, the log tail; it
// is the only reader of the snapshot. Inference and the memo cache are
// re-derived, and the System keeps appending to the same log. Neither a
// snapshot nor a log record is an error; a snapshot with an empty log is
// adopted and a fresh checkpoint anchors the log to it. The stats report
// how much log was read and how many torn bytes were discarded.
func Recover(cfg Config, sessionDir string) (*System, wal.ReplayStats, error) {
	var stats wal.ReplayStats
	// Build the system with the log detached: nothing that happens during
	// snapshot restore or log replay may re-append.
	bare := cfg
	bare.Durability = nil
	s, err := New(bare)
	if err != nil {
		return nil, stats, err
	}
	s.cfg.Durability = cfg.Durability

	haveSnap, err := s.restoreSnapshot(sessionDir)
	if err != nil {
		return nil, stats, err
	}
	if d := cfg.Durability; d != nil && d.Dir != "" {
		if stats, err = s.replayLog(d.Dir, haveSnap); err != nil {
			return nil, stats, err
		}
	}
	if !haveSnap && stats.Records == 0 {
		return nil, stats, fmt.Errorf("core: nothing to recover: no snapshot in %q and no log records", sessionDir)
	}
	s.rederive()

	// Reopen for continued appends: wal.Open truncates the torn tail, so
	// the log's durable content now matches the recovered state exactly.
	if err := s.openWAL(); err != nil {
		return nil, stats, err
	}
	if haveSnap && stats.Records == 0 && s.WAL != nil {
		if err = s.Store.Checkpoint(s.gen); err == nil {
			err = s.WAL.Prune()
		}
	}
	if err != nil {
		_ = s.Close() // the anchoring error is the one to report
		return nil, stats, err
	}
	return s, stats, nil
}

// replayLog applies the log in dir after a restored snapshot's checkpoint
// record (all of it without a snapshot), whose fingerprint the store
// verifies; a log that never checkpointed the snapshot's generation is an
// error. s.gen becomes the highest generation logged, so the next save
// never reuses one a crashed save already checkpointed.
func (s *System) replayLog(dir string, haveSnap bool) (wal.ReplayStats, error) {
	snapGen, skipping := s.gen, haveSnap
	stats, err := wal.Replay(dir, func(r wal.Record) error {
		if r.Type == wal.RecCheckpoint {
			var p oct.CheckpointPayload
			if err := json.Unmarshal(r.Payload, &p); err != nil {
				return fmt.Errorf("core: decode WAL checkpoint: %w", err)
			}
			if skipping && p.Generation == snapGen {
				skipping = false
			}
			if p.Generation > s.gen {
				s.gen = p.Generation
			}
		}
		if skipping {
			s.Metrics.Inc("wal.recover.skipped")
			return nil
		}
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
		return stats, err
	}
	if skipping && stats.Records > 0 {
		return stats, fmt.Errorf("core: the log never checkpointed snapshot generation %d: snapshot and WAL describe different histories", snapGen)
	}
	s.Metrics.Add("wal.recover.records", int64(stats.Records))
	s.Metrics.Add("wal.recover.segments", int64(stats.Segments))
	if s.Trace != nil {
		s.Trace.Emit(obs.Event{VT: s.Cluster.Now(), Type: obs.EvWALRecover, Name: dir,
			Args: map[string]string{
				"records":   fmt.Sprintf("%d", stats.Records),
				"segments":  fmt.Sprintf("%d", stats.Segments),
				"truncated": fmt.Sprintf("%d", stats.Truncated),
			}})
	}
	return stats, nil
}
