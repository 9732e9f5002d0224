package activity

import (
	"fmt"

	"papyrus/internal/history"
	"papyrus/internal/oct"
	"papyrus/internal/sds"
)

// The MOVE operation of §3.3.4.2 connects thread workspaces and
// synchronization data spaces. Data enters and leaves a thread only
// through MOVE (no direct thread-to-thread sharing); a move into a thread
// appends a synthetic history record so the copied object joins the
// thread's workspace/data scope through the same mechanism as any other
// task output.

// MoveToSDS copies an object visible in the thread's data scope into a
// synchronization data space.
func (m *Manager) MoveToSDS(t *Thread, objName string, space *sds.Space) (oct.Ref, error) {
	ref, err := m.moveToSDS(t, objName, space)
	return ref, m.ack(err)
}

func (m *Manager) moveToSDS(t *Thread, objName string, space *sds.Space) (oct.Ref, error) {
	ref, err := t.ResolveInput(objName)
	if err != nil {
		return oct.Ref{}, err
	}
	obj, err := m.store.Get(ref)
	if err != nil {
		return oct.Ref{}, err
	}
	parsed, err := oct.ParseRef(objName)
	if err != nil {
		return oct.Ref{}, err
	}
	return space.Contribute(t.ID(), parsed.Name, obj)
}

// MoveFromSDS copies an object version from a space into the thread's
// workspace under destName, optionally leaving a notification flag with
// predicates (§3.3.4.2). version 0 selects the newest contribution.
func (m *Manager) MoveFromSDS(space *sds.Space, object string, version int, t *Thread, destName string, notifyFlag bool, preds ...sds.Predicate) (oct.Ref, error) {
	ref, err := m.moveFromSDS(space, object, version, t, destName, notifyFlag, preds...)
	return ref, m.ack(err)
}

func (m *Manager) moveFromSDS(space *sds.Space, object string, version int, t *Thread, destName string, notifyFlag bool, preds ...sds.Predicate) (oct.Ref, error) {
	if destName == "" {
		destName = object
	}
	notifier := func(spaceID, obj string, ref oct.Ref) {
		t.Notify(Notification{
			Space:  spaceID,
			Object: obj,
			Ref:    ref,
			Text:   fmt.Sprintf("new version of %q in SDS %q: %s", obj, spaceID, ref),
		})
	}
	ref, err := space.Retrieve(t.ID(), object, version, destName, notifyFlag, notifier, preds...)
	if err != nil {
		return oct.Ref{}, err
	}
	// The copy joins the thread through a synthetic move record at the
	// current cursor, making it visible in the data scope.
	rec := &history.Record{
		TaskName: "<move>",
		Time:     m.store.Clock(),
		Inputs:   nil,
		Outputs:  []oct.Ref{ref},
	}
	h := m.BeginTask(t)
	if _, err := m.attachRecord(t, h, rec); err != nil {
		return oct.Ref{}, err
	}
	return ref, nil
}
