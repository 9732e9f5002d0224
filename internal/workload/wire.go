package workload

// wire.go drives a generated Workload over the papyrusd wire path
// (internal/client). wireEnv maps the designer verb set onto the v1 API
// one-to-one; RunWire opens sessions in designer order so that, against
// a single-shard server, designer i lands on engine thread i exactly as
// the in-process drivers allocate them — the precondition for the E15
// cross-path fingerprint gate (same profile + seed must leave the same
// version map behind in-process and over the wire).

import (
	"fmt"
	"time"

	"papyrus/internal/client"
	"papyrus/internal/server"
)

// wireEnv drives one papyrusd session. Handles index recIDs, so a
// profile's handle arithmetic is identical on both paths.
type wireEnv struct {
	c       *client.Client
	session string
	recIDs  []int
}

func (e *wireEnv) recID(handle int) (int, error) {
	if handle < 0 || handle >= len(e.recIDs) {
		return 0, fmt.Errorf("workload: no record handle %d (have %d)", handle, len(e.recIDs))
	}
	return e.recIDs[handle], nil
}

func (e *wireEnv) Import(name, kind string, width int, seed int64) error {
	_, err := e.c.Import(e.session, server.ImportRequest{
		Name: name, Kind: kind, Width: width, Seed: seed,
	})
	return err
}

func (e *wireEnv) Invoke(task string, inputs, outputs map[string]string) (int, error) {
	rec, err := e.c.SubmitTask(e.session, server.TaskRequest{
		Task: task, Inputs: inputs, Outputs: outputs,
	})
	if err != nil {
		return 0, err
	}
	e.recIDs = append(e.recIDs, rec.ID)
	return len(e.recIDs) - 1, nil
}

func (e *wireEnv) Rework(handle int, erase bool) error {
	id := 0 // the wire's name for the initial design point
	if handle != InitialPoint {
		var err error
		if id, err = e.recID(handle); err != nil {
			return err
		}
	}
	_, err := e.c.Rework(e.session, server.ReworkRequest{Record: id, Erase: erase})
	return err
}

func (e *wireEnv) Replay(handle int) (int, error) {
	id, err := e.recID(handle)
	if err != nil {
		return 0, err
	}
	redo, err := e.c.Replay(e.session, id)
	if err != nil {
		return 0, err
	}
	e.recIDs = append(e.recIDs, redo.ID)
	return len(e.recIDs) - 1, nil
}

func (e *wireEnv) Contribute(space, object, from string) (int, error) {
	resp, err := e.c.Contribute(space, server.ContributeRequest{
		Session: e.session, Object: object, From: from,
	})
	if err != nil {
		return 0, err
	}
	return resp.Seq, nil
}

func (e *wireEnv) Retrieve(space, object string, version int, dest string) error {
	_, err := e.c.Retrieve(space, server.RetrieveRequest{
		Session: e.session, Object: object, Version: version, Dest: dest,
	})
	return err
}

func (e *wireEnv) Watch(space, object string) error {
	// A short zero-resume poll installs the session's own notification
	// flag on the object, which later contributions fire exactly as they
	// fire the in-process designer's watch.
	_, err := e.c.Poll(space, e.session, object, 0, time.Millisecond)
	return err
}

func (e *wireEnv) SpaceSeq(space, object string) (int, error) {
	resp, err := e.c.SpaceObjects(space, e.session)
	if err != nil {
		return 0, err
	}
	return len(resp.Objects[object]), nil
}

func (e *wireEnv) Query(op, object string) (int, error) {
	resp, err := e.c.Query(e.session, op, object)
	if err != nil {
		return 0, err
	}
	switch op {
	case "type":
		return 1, nil
	case "lineage", "equivalence":
		return len(resp.Refs), nil
	case "relationships":
		return len(resp.Relationships), nil
	default: // outofdate
		if resp.OutOfDate != nil && *resp.OutOfDate {
			return 1, nil
		}
		return 0, nil
	}
}

// RunWire drives the workload against a running papyrusd at c.Base.
// Sessions open sequentially (designer order = shard thread order on a
// single-shard server), then designers run concurrently: free-running
// for independent profiles, barrier-separated rounds when the profile
// cooperates through shared spaces. All sessions are closed on the way
// out, error or not.
func RunWire(c *client.Client, w *Workload, tenant string) error {
	designers := make([]*Designer, w.Spec.Sessions)
	sessions := make([]string, 0, w.Spec.Sessions)
	defer func() {
		for _, id := range sessions {
			_ = c.CloseSession(id)
		}
	}()
	for i := range designers {
		info, err := c.OpenSession(tenant, fmt.Sprintf("wl-%s-d%d", w.Spec.Profile, i))
		if err != nil {
			return err
		}
		sessions = append(sessions, info.ID)
		designers[i] = newDesigner(w, i, &wireEnv{c: c, session: info.ID})
	}

	return w.drive(designers, w.Coop, nil)
}
