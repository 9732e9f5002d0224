package activity

// WAL integration: the activity manager logs thread lifecycle events
// (create/fork/cascade/join/reclaim/drop), control-stream record
// attaches, and rework cursor moves, so a crashed session's design
// threads recover alongside the object store (docs/DURABILITY.md).
//
// Record attaches use history's incremental encoding (one payload per
// record, replayed through Stream.ApplyLogged). Thread manipulations
// that build whole streams at once — fork, cascade, join — are rare
// designer actions and carry the full serialized stream instead; replay
// is idempotent per thread ID (an existing thread's stream is replaced).

import (
	"bytes"
	"encoding/json"
	"fmt"

	"papyrus/internal/history"
	"papyrus/internal/wal"
)

// AttachWAL installs the write-ahead log thread and stream changes are
// appended to (nil detaches). Call before the manager is used, with the
// log the manager's store is attached to: operations acknowledge by
// committing the store's log, which then covers both record streams.
func (m *Manager) AttachWAL(l *wal.Log) { m.wal = l }

// walThreadOp is the RecThread payload: one thread lifecycle event.
// Stream is the full persisted control stream for ops that construct one
// (fork/cascade/join/reclaim); empty for create and drop.
type walThreadOp struct {
	Op       string          `json:"op"`
	ID       int             `json:"id"`
	Name     string          `json:"name"`
	Owner    string          `json:"owner,omitempty"`
	CursorID int             `json:"cursor_id,omitempty"`
	Stream   json.RawMessage `json:"stream,omitempty"`
}

// walAttach is the RecHistoryAppend payload: one record attached to a
// thread's control stream, plus the cursor position after the attach.
type walAttach struct {
	Thread      int             `json:"thread"`
	CursorAfter int             `json:"cursor_after,omitempty"`
	Record      json.RawMessage `json:"record"`
}

// walCursor is the RecCursorMove payload: a rework cursor move.
// RecordID 0 is the initial design point. Erase marks the erasing
// variant: on replay the abandoned paths below the target are erased
// from the stream (the corresponding version hides were logged by the
// store itself).
type walCursor struct {
	Thread   int  `json:"thread"`
	RecordID int  `json:"record_id,omitempty"`
	Erase    bool `json:"erase,omitempty"`
}

// logThread appends a thread lifecycle record. withStream ops serialize
// the thread's current control stream and cursor.
func (m *Manager) logThread(op string, t *Thread, withStream bool) error {
	if m.wal == nil {
		return nil
	}
	p := walThreadOp{Op: op, ID: t.id, Name: t.name, Owner: t.owner}
	if withStream {
		var buf bytes.Buffer
		if err := t.stream.Save(&buf); err != nil {
			return err
		}
		p.Stream = buf.Bytes()
		if t.cursor != nil {
			p.CursorID = t.cursor.ID
		}
	}
	payload, err := json.Marshal(&p)
	if err != nil {
		return err
	}
	return m.wal.Append(wal.Record{Type: wal.RecThread, Payload: payload})
}

// LogReclaim durably records a destructive history-reduction pass over
// this thread (vertical/horizontal aging, iteration GC, dead-branch
// erasure — internal/reclaim) by appending the full post-prune control
// stream as a "reclaim" thread op. Replay replaces the recovered stream
// wholesale — the same idempotent full-stream path fork/cascade/join
// use — so pruned records never resurrect after a crash; the version
// hides the pass performed are logged by the store itself. It is the
// pass's acknowledgement point: one commit makes the stream and those
// hides durable together. No-op without a manager or WAL.
func (t *Thread) LogReclaim() error {
	if t.mgr == nil {
		return nil
	}
	return t.mgr.ack(t.mgr.logThread("reclaim", t, true))
}

// logAttach appends a record-attach entry; called after the record is
// fully linked and placed, so the payload captures its final shape.
func (m *Manager) logAttach(t *Thread, rec *history.Record) error {
	if m.wal == nil {
		return nil
	}
	data, err := history.EncodeRecord(rec)
	if err != nil {
		return err
	}
	p := walAttach{Thread: t.id, Record: data}
	if t.cursor != nil {
		p.CursorAfter = t.cursor.ID
	}
	payload, err := json.Marshal(&p)
	if err != nil {
		return err
	}
	return m.wal.Append(wal.Record{Type: wal.RecHistoryAppend, Payload: payload})
}

// logCursor appends a cursor-move entry.
func (m *Manager) logCursor(t *Thread, rec *history.Record, erase bool) error {
	if m.wal == nil {
		return nil
	}
	p := walCursor{Thread: t.id, Erase: erase}
	if rec != nil {
		p.RecordID = rec.ID
	}
	payload, err := json.Marshal(&p)
	if err != nil {
		return err
	}
	return m.wal.Append(wal.Record{Type: wal.RecCursorMove, Payload: payload})
}

// ReplayWALRecord applies one log record during recovery. Records of
// other subsystems are ignored. Replay never re-logs and never touches
// the object store — version creations and hides recover through the
// store's own records.
func (m *Manager) ReplayWALRecord(r wal.Record) (applied bool, err error) {
	switch r.Type {
	case wal.RecThread:
		var p walThreadOp
		if err := json.Unmarshal(r.Payload, &p); err != nil {
			return false, fmt.Errorf("activity: decode thread op: %w", err)
		}
		return true, m.replayThreadOp(p)
	case wal.RecHistoryAppend:
		var p walAttach
		if err := json.Unmarshal(r.Payload, &p); err != nil {
			return false, fmt.Errorf("activity: decode record attach: %w", err)
		}
		return true, m.replayAttach(p)
	case wal.RecCursorMove:
		var p walCursor
		if err := json.Unmarshal(r.Payload, &p); err != nil {
			return false, fmt.Errorf("activity: decode cursor move: %w", err)
		}
		return true, m.replayCursor(p)
	}
	return false, nil
}

// replayThread finds or creates the thread a replayed op targets and
// gives it the op's name and owner.
func (m *Manager) replayThread(id int, name, owner string) *Thread {
	t, ok := m.threads[id]
	if !ok {
		t = &Thread{id: id, mgr: m, stream: history.NewStream()}
		m.threads[id] = t
		m.nextThread = max(m.nextThread, id)
	}
	t.name, t.owner = name, owner
	return t
}

func (m *Manager) replayThreadOp(p walThreadOp) error {
	if p.Op == "drop" {
		delete(m.threads, p.ID)
		return nil
	}
	if len(p.Stream) == 0 {
		m.replayThread(p.ID, p.Name, p.Owner)
		return nil
	}
	stream, err := history.Load(bytes.NewReader(p.Stream))
	if err == nil {
		_, err = m.installThread(p.ID, p.Name, p.Owner, stream, p.CursorID)
	}
	if err != nil {
		return fmt.Errorf("activity: replay thread %d op %s: %w", p.ID, p.Op, err)
	}
	return nil
}

// installThread finds or creates thread id and installs a whole control
// stream and its cursor (a record ID; 0 is the initial point): the one
// path for a snapshot's threads and the log's full-stream thread ops.
func (m *Manager) installThread(id int, name, owner string, stream *history.Stream, cursorID int) (*Thread, error) {
	t := m.replayThread(id, name, owner)
	t.stream, t.cursor, t.timeIndex = stream, nil, nil
	if cursorID != 0 {
		rec, ok := stream.ByID(cursorID)
		if !ok {
			return nil, fmt.Errorf("activity: thread %d: cursor %d not in stream", id, cursorID)
		}
		t.cursor = rec
	}
	for _, r := range stream.Records() {
		t.indexRecord(r)
	}
	return t, nil
}

func (m *Manager) replayAttach(p walAttach) error {
	t, ok := m.threads[p.Thread]
	if !ok {
		return fmt.Errorf("activity: replay attach: no thread %d", p.Thread)
	}
	rec, err := t.stream.ApplyLogged(p.Record)
	if err != nil {
		return err
	}
	t.indexRecord(rec)
	t.cursor = nil
	if p.CursorAfter != 0 {
		cur, ok := t.stream.ByID(p.CursorAfter)
		if !ok {
			return fmt.Errorf("activity: replay attach: cursor %d not in thread %d", p.CursorAfter, p.Thread)
		}
		t.cursor = cur
	}
	return nil
}

func (m *Manager) replayCursor(p walCursor) error {
	t, ok := m.threads[p.Thread]
	if !ok {
		return fmt.Errorf("activity: replay cursor move: no thread %d", p.Thread)
	}
	var rec *history.Record
	if p.RecordID != 0 {
		r, ok := t.stream.ByID(p.RecordID)
		if !ok {
			return fmt.Errorf("activity: replay cursor move: record %d not in thread %d", p.RecordID, p.Thread)
		}
		rec = r
	}
	t.cursor = rec
	if p.Erase {
		var kids []*history.Record
		if rec == nil {
			kids = t.stream.Roots()
		} else {
			kids = rec.Children()
		}
		for _, child := range append([]*history.Record(nil), kids...) {
			t.stream.Erase(child)
		}
	}
	return nil
}
