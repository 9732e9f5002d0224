package history

import (
	"encoding/json"
	"fmt"
	"io"
)

// Persistence — the third history data structure of §5.3: a durable form
// of the control stream used for inter-process communication between the
// activity manager and the reclamation process, and for reloading threads
// across sessions.

type persistRecord struct {
	Record
	ParentIDs []int `json:"parent_ids,omitempty"`
	CachedSet bool  `json:"cached,omitempty"`
}

type persistStream struct {
	NextID  int             `json:"next_id"`
	Records []persistRecord `json:"records"`
}

// Save writes the stream as JSON.
func (s *Stream) Save(w io.Writer) error {
	ps := persistStream{NextID: s.nextID}
	for _, r := range s.records {
		pr := persistRecord{Record: *r, CachedSet: r.cachedState != nil}
		pr.Record.parents, pr.Record.children = nil, nil
		for _, p := range r.parents {
			pr.ParentIDs = append(pr.ParentIDs, p.ID)
		}
		ps.Records = append(ps.Records, pr)
	}
	return json.NewEncoder(w).Encode(&ps)
}

// Load reads a stream previously written by Save. Two records with one
// ID, a missing parent and a parent cycle are errors.
func Load(r io.Reader) (*Stream, error) {
	var ps persistStream
	if err := json.NewDecoder(r).Decode(&ps); err != nil {
		return nil, fmt.Errorf("history: decode stream: %w", err)
	}
	s := NewStream()
	s.nextID = ps.NextID
	byID := map[int]*Record{}
	for i := range ps.Records {
		rec := ps.Records[i].Record // copy
		rec.parents, rec.children = nil, nil
		rec.cachedState = nil
		rp := &rec
		if byID[rp.ID] != nil {
			return nil, fmt.Errorf("history: two records with ID %d", rp.ID)
		}
		byID[rp.ID] = rp
		s.records = append(s.records, rp)
	}
	for i := range ps.Records {
		pr := &ps.Records[i]
		rec := byID[pr.Record.ID]
		if len(pr.ParentIDs) == 0 {
			s.roots = append(s.roots, rec)
			continue
		}
		for _, pid := range pr.ParentIDs {
			parent, ok := byID[pid]
			if !ok {
				return nil, fmt.Errorf("history: record %d references missing parent %d", rec.ID, pid)
			}
			rec.parents = append(rec.parents, parent)
			parent.children = append(parent.children, rec)
		}
	}
	state := make(map[*Record]int8, len(s.records)) // 1: on the walk, 2: acyclic
	var acyclic func(*Record) bool
	acyclic = func(r *Record) bool {
		if state[r] != 0 {
			return state[r] == 2
		}
		state[r] = 1
		for _, p := range r.parents {
			if !acyclic(p) {
				return false
			}
		}
		state[r] = 2
		return true
	}
	for _, rec := range s.records {
		if !acyclic(rec) {
			return nil, fmt.Errorf("history: record %d lies on a parent cycle", rec.ID)
		}
	}
	// Recompute cached states for records that had them.
	for i := range ps.Records {
		if ps.Records[i].CachedSet {
			s.CacheState(byID[ps.Records[i].Record.ID])
		}
	}
	return s, nil
}
