package workload

// The strict-acknowledgement gate: under strict durability every
// designer verb must return with the write-ahead log fully on disk —
// SyncedBytes() equal to AppendedBytes() — and must have cost at most one
// fsync however many records it appended (a task's version batch plus its
// history attach, an erasing rework's cursor, hides and erase marker).
// One designer (Sessions: 1) keeps the probes exact: no other session can
// append between a verb's commit and the check. A 1 GiB segment keeps
// rotation, which always fsyncs, out of the count.

import (
	"fmt"
	"testing"

	"papyrus/internal/core"
	"papyrus/internal/wal"
)

// ackEnv wraps a designer's Env and checks the log after every verb.
type ackEnv struct {
	Env
	t      *testing.T
	log    *wal.Log
	fsyncs int64
	// acks counts verbs that appended at least one record.
	acks int
}

// check asserts the acknowledgement contract for the verb just returned.
func (e *ackEnv) check(verb string) {
	e.t.Helper()
	synced, appended, fsyncs := e.log.SyncedBytes(), e.log.AppendedBytes(), e.log.Fsyncs()
	if synced != appended {
		e.t.Errorf("%s returned with SyncedBytes() = %d, AppendedBytes() = %d: acknowledged work not on disk", verb, synced, appended)
	}
	if d := fsyncs - e.fsyncs; d > 1 {
		e.t.Errorf("%s cost %d fsyncs, want at most 1 per acknowledged operation", verb, d)
	} else if d == 1 {
		e.acks++
	}
	e.fsyncs = fsyncs
}

func (e *ackEnv) Import(name, kind string, width int, seed int64) error {
	defer e.check("Import")
	return e.Env.Import(name, kind, width, seed)
}

func (e *ackEnv) Invoke(task string, inputs, outputs map[string]string) (int, error) {
	defer e.check("Invoke " + task)
	return e.Env.Invoke(task, inputs, outputs)
}

func (e *ackEnv) Rework(handle int, erase bool) error {
	defer e.check(fmt.Sprintf("Rework(erase=%v)", erase))
	return e.Env.Rework(handle, erase)
}

func (e *ackEnv) Replay(handle int) (int, error) {
	defer e.check("Replay")
	return e.Env.Replay(handle)
}

func (e *ackEnv) Contribute(space, object, from string) (int, error) {
	defer e.check("Contribute")
	return e.Env.Contribute(space, object, from)
}

func (e *ackEnv) Retrieve(space, object string, version int, dest string) error {
	defer e.check("Retrieve")
	return e.Env.Retrieve(space, object, version, dest)
}

func (e *ackEnv) Watch(space, object string) error {
	defer e.check("Watch")
	return e.Env.Watch(space, object)
}

func (e *ackEnv) SpaceSeq(space, object string) (int, error) {
	defer e.check("SpaceSeq")
	return e.Env.SpaceSeq(space, object)
}

func (e *ackEnv) Query(op, object string) (int, error) {
	defer e.check("Query " + op)
	return e.Env.Query(op, object)
}

func TestStrictAckIsDurable(t *testing.T) {
	for _, profile := range Profiles() {
		profile := profile
		t.Run(profile, func(t *testing.T) {
			w, err := Generate(Spec{Profile: profile, Seed: 11, Sessions: 1, Depth: 4, Fanout: 3})
			if err != nil {
				t.Fatal(err)
			}
			sys, err := core.New(w.CoreConfig(core.Config{
				Nodes:            4,
				DisableInference: true,
				Durability:       &core.DurabilityConfig{Dir: t.TempDir(), FsyncEvery: 1, SegmentBytes: 1 << 30},
			}))
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			sess, err := sys.OpenSession(0, "d0")
			if err != nil {
				t.Fatal(err)
			}
			env := &ackEnv{t: t, log: sys.WAL, fsyncs: sys.WAL.Fsyncs()}
			env.Env = newProcEnv(sys, sess, "wl-"+profile+"-d0", "workload")
			env.check("NewThread")
			d := newDesigner(w, 0, env)
			if err := w.prof.setup(d); err != nil {
				t.Fatalf("setup: %v", err)
			}
			for r := 0; r < w.Rounds; r++ {
				if err := w.prof.round(d, r); err != nil {
					t.Fatalf("round %d: %v", r, err)
				}
				// A foreground sweep is an acknowledgement point too.
				if _, err := sys.Reclaimer.Sweep(0); err != nil {
					t.Fatal(err)
				}
				env.check(fmt.Sprintf("Sweep after round %d", r))
			}
			if env.acks == 0 {
				t.Fatal("no verb appended to the log: the gate checked nothing")
			}
		})
	}
}
