package task

import (
	"sync"
	"sync/atomic"
)

// workPool is a run-scoped worker pool shared by every completion batch
// of a task: phase two of the batch schedule (tool bodies, steps.go)
// runs on it; commits stay in the sequential apply phase. Workers are
// spawned lazily, one per submission that finds no idle worker, capped
// at Config.Workers — so a run whose batches never go wider than W pays
// for W goroutines total, no matter how large the configured pool or
// how many batches the task executes. That makes over-provisioned
// worker counts free: the historical per-batch pool re-spawned
// min(Workers, batch) goroutines every batch and made Workers=8 cost
// measurably more than Workers=4 on four-wide batches (the E11
// one-session regression; docs/PERFORMANCE.md).
type workPool struct {
	work    chan func()
	max     int32
	spawned atomic.Int32
}

// newWorkPool returns a pool that will grow to at most max workers.
func newWorkPool(max int) *workPool {
	return &workPool{work: make(chan func()), max: int32(max)}
}

// submit schedules fn, preferring an idle worker and spawning a new one
// only when none is free and the cap allows. Blocks until a worker
// accepts the task; submitted functions must not themselves submit.
func (p *workPool) submit(fn func()) {
	select {
	case p.work <- fn:
		return
	default:
	}
	if n := p.spawned.Load(); n < p.max && p.spawned.CompareAndSwap(n, n+1) {
		go p.worker()
	}
	p.work <- fn
}

func (p *workPool) worker() {
	for fn := range p.work {
		fn()
	}
}

// close releases the pool's workers. The pool must be idle.
func (p *workPool) close() { close(p.work) }

// runExecs applies fn to every exec and waits for all of them. A nil
// pool (Workers <= 1) and single-item slices run inline on the caller's
// goroutine — the scheduling the sequential baseline had.
func (p *workPool) runExecs(execs []*stepExec, fn func(*stepExec)) {
	if p == nil || len(execs) == 1 {
		for _, ex := range execs {
			fn(ex)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(execs))
	for _, ex := range execs {
		ex := ex
		p.submit(func() {
			defer wg.Done()
			fn(ex)
		})
	}
	wg.Wait()
}
