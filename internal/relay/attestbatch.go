package relay

import (
	"context"
	"sort"
	"strings"
	"sync"

	"repro/internal/msp"
	"repro/internal/proof"
	"repro/internal/wire"
)

// attestBatcher group-commits concurrent proof builds so one ECDSA
// signature per attestor covers a whole batch of distinct queries
// (proof.BuildBatch). A query that finds no build in flight for its
// attestor set builds at once, alone, on the caller's goroutine — a lone
// query pays no added latency and its bytes are those of the ordinary
// single-signature build. Queries arriving while that build runs queue up
// and become the next batch, built as soon as the current one finishes, so
// a burst collapses to one signature per attestor per build. Batches are
// grouped by attestor set: every spec handed to one build must be attested
// by the same identities.
type attestBatcher struct {
	// build signs one batch; proof.BuildBatch outside tests.
	build func(ctx context.Context, specs []proof.Spec, attestors []*msp.Identity) ([]*wire.QueryResponse, error)

	mu sync.Mutex
	// groups holds one entry per attestor set with a build in flight; its
	// value is the batch queued behind that build.
	groups map[string]*nextBatch
}

type nextBatch struct {
	attestors []*msp.Identity
	entries   []*batchEntry
}

type batchEntry struct {
	spec proof.Spec
	done chan struct{}
	resp *wire.QueryResponse
	err  error
}

func newAttestBatcher() *attestBatcher {
	return &attestBatcher{build: proof.BuildBatch, groups: map[string]*nextBatch{}}
}

// attestorSetKey names a batch group: the sorted attestor identities.
func attestorSetKey(ids []*msp.Identity) string {
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = id.OrgID + "/" + id.Name
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

// submit builds spec's proof: at once when no build is in flight for its
// attestor set, otherwise in the batch queued behind that build, waiting
// for it (or for ctx to expire).
func (b *attestBatcher) submit(ctx context.Context, spec proof.Spec, attestors []*msp.Identity) (*wire.QueryResponse, error) {
	entry := &batchEntry{spec: spec, done: make(chan struct{})}
	key := attestorSetKey(attestors)

	b.mu.Lock()
	if next, busy := b.groups[key]; busy {
		if len(next.entries) == 0 {
			next.attestors = attestors
		}
		next.entries = append(next.entries, entry)
		b.mu.Unlock()
		select {
		case <-entry.done:
			return entry.resp, entry.err
		case <-ctx.Done():
			// The queued batch still builds this entry's proof —
			// cancelling one requester must not fail the rest of the
			// batch — but this requester stops waiting for it.
			return nil, ctx.Err()
		}
	}
	b.groups[key] = &nextBatch{}
	b.mu.Unlock()

	b.run(key, attestors, []*batchEntry{entry})
	return entry.resp, entry.err
}

// run builds one batch, hands the batch that queued behind it to a fresh
// goroutine — or retires the group when nothing queued — and then delivers
// its results, so the caller, whose own proof is ready, returns at once.
// Handing off first starts the next build sooner and means that once the
// last entry has its answer, its group is already retired. At most one run
// is in flight per attestor set, and each ends after its own build.
func (b *attestBatcher) run(key string, attestors []*msp.Identity, entries []*batchEntry) {
	specs := make([]proof.Spec, len(entries))
	for i, e := range entries {
		specs[i] = e.spec
	}
	// Background context: the build serves every entry of the batch, so
	// no single requester's cancellation may abort it.
	resps, err := b.build(context.Background(), specs, attestors)

	b.mu.Lock()
	next := b.groups[key]
	if len(next.entries) == 0 {
		delete(b.groups, key)
	} else {
		b.groups[key] = &nextBatch{}
	}
	b.mu.Unlock()
	if len(next.entries) > 0 {
		go b.run(key, next.attestors, next.entries)
	}

	for i, e := range entries {
		if err != nil {
			e.err = err
		} else {
			e.resp = resps[i]
		}
		close(e.done)
	}
}
