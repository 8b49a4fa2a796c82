package service

import (
	"context"
	"sync"
	"sync/atomic"
)

// job is one unit of verification work. run receives the request's
// context (deadline + client disconnect) and must honor it — the checkers
// do, via mc.Gas.
type job struct {
	ctx context.Context
	run func(ctx context.Context)
}

// pool is a fixed set of worker goroutines draining a bounded queue.
// Backpressure is the queue bound: submit never blocks, and a full queue
// surfaces to the client as 429 rather than as unbounded memory growth.
// Jobs whose context died while queued are skipped, not run — an
// abandoned request costs a queue slot, never a worker.
type pool struct {
	// mu orders submit against close: a handler still running when the
	// server closes (a fleet replica crashing under load) must not send
	// on the closed queue.
	mu       sync.RWMutex
	closed   bool
	queue    chan *job
	wg       sync.WaitGroup
	depth    atomic.Int64 // jobs queued, not yet picked up
	inFlight atomic.Int64 // jobs executing right now
	panics   atomic.Int64 // jobs that panicked past their own recovery
}

func newPool(workers, queueDepth int) *pool {
	p := &pool{queue: make(chan *job, queueDepth)}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

func (p *pool) worker() {
	defer p.wg.Done()
	for j := range p.queue {
		p.depth.Add(-1)
		if j.ctx.Err() != nil {
			continue
		}
		p.inFlight.Add(1)
		p.runOne(j)
		p.inFlight.Add(-1)
	}
}

// runOne is the worker's panic backstop. Jobs recover their own panics
// (safeCompute) and answer the waiting handler; anything that escapes
// past that — a bug in the job plumbing itself — is counted and
// contained here so one bad job cannot kill a pool worker for the rest
// of the process's life.
func (p *pool) runOne(j *job) {
	defer func() {
		if v := recover(); v != nil {
			p.panics.Add(1)
		}
	}()
	j.run(j.ctx)
}

// submit enqueues without blocking. false means the queue is full or
// the pool is closed.
func (p *pool) submit(j *job) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return false
	}
	p.depth.Add(1)
	select {
	case p.queue <- j:
		return true
	default:
		p.depth.Add(-1)
		return false
	}
}

// close drains the queue and stops the workers. Queued jobs still run
// (their contexts typically die first during shutdown).
func (p *pool) close() {
	p.mu.Lock()
	p.closed = true
	close(p.queue)
	p.mu.Unlock()
	p.wg.Wait()
}
