package relay

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/msp"
	"repro/internal/proof"
	"repro/internal/wire"
)

// BuildHold holds a driver's batched proof builds in flight, so a test can
// queue a batch behind a build deterministically: hold, start one batched
// query, wait for its build to start, submit the batch, wait for it to
// queue, release.
type BuildHold struct {
	b       *attestBatcher
	started chan int
	release chan struct{}
	once    sync.Once
}

// HoldBatchBuilds makes every batched build on d wait for Release before
// it signs. Call it before any batched query is in flight on d.
func HoldBatchBuilds(d *FabricDriver) *BuildHold {
	b := d.batcher.Load()
	h := &BuildHold{b: b, started: make(chan int), release: make(chan struct{})}
	build := b.build
	b.build = func(ctx context.Context, specs []proof.Spec, attestors []*msp.Identity) ([]*wire.QueryResponse, error) {
		select {
		case <-h.release:
		case h.started <- len(specs):
			<-h.release
		}
		return build(ctx, specs, attestors)
	}
	return h
}

// Started blocks until a held build starts and returns its batch size.
func (h *BuildHold) Started() int { return <-h.started }

// WaitQueued blocks until n builds are queued behind the builds in flight.
func (h *BuildHold) WaitQueued(t testing.TB, n int) { h.b.waitQueued(t, n) }

// Release lets every held build, and every later one, proceed. Calling it
// again is harmless, so a test may also defer it.
func (h *BuildHold) Release() { h.once.Do(func() { close(h.release) }) }

// waitQueued blocks until n entries are queued behind in-flight builds.
func (b *attestBatcher) waitQueued(t testing.TB, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		b.mu.Lock()
		queued := 0
		for _, next := range b.groups {
			queued += len(next.entries)
		}
		b.mu.Unlock()
		if queued >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d builds queued behind the builds in flight, want %d", queued, n)
		}
		runtime.Gosched()
	}
}
