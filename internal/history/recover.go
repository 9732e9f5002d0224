package history

import (
	"encoding/json"
	"fmt"
)

// WAL encoding: while Save/Load persist a whole control stream (the
// snapshot form), the write-ahead log needs an incremental form — one
// payload per attached record, carrying enough structure to replay the
// attachment exactly. ParentIDs reproduce Append links; ChildIDs are
// non-empty only for insertion-point splices (InsertBefore, Fig 5.6),
// where the new record interposes between its parent and an existing
// child. Replay is idempotent by record ID.

// loggedRecord is the WAL payload of one record attachment.
type loggedRecord struct {
	Record
	ParentIDs []int `json:"parent_ids,omitempty"`
	ChildIDs  []int `json:"child_ids,omitempty"`
	Cached    bool  `json:"cached,omitempty"`
}

// EncodeRecord renders one attached record as its WAL payload. The
// record must already be linked into the stream (its parent/child edges
// are captured from the live DAG).
func EncodeRecord(r *Record) ([]byte, error) {
	lr := loggedRecord{Record: *r, Cached: r.cachedState != nil}
	lr.Record.parents, lr.Record.children = nil, nil
	for _, p := range r.parents {
		lr.ParentIDs = append(lr.ParentIDs, p.ID)
	}
	for _, c := range r.children {
		lr.ChildIDs = append(lr.ChildIDs, c.ID)
	}
	return json.Marshal(&lr)
}

// ApplyLogged replays one EncodeRecord payload into the stream. A record
// whose ID already exists is returned unchanged (idempotent replay over
// snapshot-covered log prefixes). Splices are re-applied exactly: the
// new record takes over its parents' edges to the listed children.
func (s *Stream) ApplyLogged(data []byte) (*Record, error) {
	var lr loggedRecord
	if err := json.Unmarshal(data, &lr); err != nil {
		return nil, fmt.Errorf("history: decode logged record: %w", err)
	}
	if existing, ok := s.ByID(lr.Record.ID); ok {
		return existing, nil
	}
	rec := lr.Record // copy
	rec.parents, rec.children, rec.cachedState = nil, nil, nil
	rp := &rec

	parents := make([]*Record, 0, len(lr.ParentIDs))
	for _, pid := range lr.ParentIDs {
		p, ok := s.ByID(pid)
		if !ok {
			return nil, fmt.Errorf("history: logged record %d references missing parent %d", rp.ID, pid)
		}
		parents = append(parents, p)
	}
	children := make([]*Record, 0, len(lr.ChildIDs))
	for _, cid := range lr.ChildIDs {
		c, ok := s.ByID(cid)
		if !ok {
			return nil, fmt.Errorf("history: logged record %d references missing child %d", rp.ID, cid)
		}
		children = append(children, c)
	}

	if len(children) == 0 {
		// Plain append.
		if len(parents) == 0 {
			s.roots = append(s.roots, rp)
		}
		for _, p := range parents {
			rp.parents = append(rp.parents, p)
			p.children = append(p.children, rp)
		}
	} else {
		// Splice: rp interposes between its parents (or the root set) and
		// the listed children, exactly as InsertBefore linked it.
		for _, c := range children {
			if len(parents) == 0 {
				for i, r := range s.roots {
					if r == c {
						s.roots[i] = rp
					}
				}
			}
			for _, p := range parents {
				for i, pc := range p.children {
					if pc == c {
						p.children[i] = rp
					}
				}
			}
			for _, p := range parents {
				c.parents = removeRecord(c.parents, p)
			}
			c.parents = append(c.parents, rp)
			rp.children = append(rp.children, c)
		}
		for _, p := range parents {
			if !containsRecord(rp.parents, p) {
				rp.parents = append(rp.parents, p)
			}
		}
	}
	s.records = append(s.records, rp)
	if s.nextID < rp.ID {
		s.nextID = rp.ID
	}
	if lr.Cached {
		s.CacheState(rp)
	} else {
		s.refreshCachesFrom(rp)
	}
	return rp, nil
}
