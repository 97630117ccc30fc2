package relay

import (
	"context"
	"errors"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/msp"
	"repro/internal/proof"
	"repro/internal/wire"
)

var errFakeBuild = errors.New("fake build failed")

// fakeBuilds stands in for proof.BuildBatch: it records every batch it is
// handed (spec nonces, plus the attestor set) and answers each spec with
// its nonce as the request ID. Until release is closed, each build first
// announces its batch on started and then waits.
type fakeBuilds struct {
	mu      sync.Mutex
	batches [][]string
	sets    []string
	failOn  string

	started chan []string
	release chan struct{}
}

func newFakeBuilds() *fakeBuilds {
	return &fakeBuilds{started: make(chan []string), release: make(chan struct{})}
}

func (f *fakeBuilds) build(_ context.Context, specs []proof.Spec, attestors []*msp.Identity) ([]*wire.QueryResponse, error) {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = string(s.Nonce)
	}
	sort.Strings(names)
	f.mu.Lock()
	f.batches = append(f.batches, names)
	f.sets = append(f.sets, attestorSetKey(attestors))
	f.mu.Unlock()
	select {
	case <-f.release:
	case f.started <- names:
		<-f.release
	}
	resps := make([]*wire.QueryResponse, len(specs))
	for i, s := range specs {
		if string(s.Nonce) == f.failOn {
			return nil, errFakeBuild
		}
		resps[i] = &wire.QueryResponse{RequestID: string(s.Nonce)}
	}
	return resps, nil
}

func (f *fakeBuilds) recorded() ([][]string, []string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([][]string(nil), f.batches...), append([]string(nil), f.sets...)
}

func fakeBatcher(f *fakeBuilds) *attestBatcher {
	b := newAttestBatcher()
	b.build = f.build
	return b
}

func attestorsOf(org string) []*msp.Identity {
	return []*msp.Identity{{OrgID: org, Name: "peer0"}, {OrgID: org + "-carrier", Name: "peer0"}}
}

type submitResult struct {
	name string
	resp *wire.QueryResponse
	err  error
}

// submitAsync submits one spec named name on its own goroutine and
// delivers the outcome on the returned channel.
func submitAsync(ctx context.Context, b *attestBatcher, name string, attestors []*msp.Identity) <-chan submitResult {
	out := make(chan submitResult, 1)
	go func() {
		resp, err := b.submit(ctx, proof.Spec{Nonce: []byte(name)}, attestors)
		out <- submitResult{name, resp, err}
	}()
	return out
}

// expectAnswer checks that a submit succeeded with its own response.
func expectAnswer(t *testing.T, r submitResult) {
	t.Helper()
	if r.err != nil {
		t.Fatalf("submit %s: %v", r.name, r.err)
	}
	if r.resp.RequestID != r.name {
		t.Fatalf("submit %s got the response for %s", r.name, r.resp.RequestID)
	}
}

func expectDrained(t *testing.T, b *attestBatcher) {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.groups) != 0 {
		t.Fatalf("%d batch groups left after every submit returned", len(b.groups))
	}
}

func TestAttestBatchLoneSubmitBuildsAtOnce(t *testing.T) {
	f := newFakeBuilds()
	close(f.release)
	b := fakeBatcher(f)
	resp, err := b.submit(context.Background(), proof.Spec{Nonce: []byte("lone")}, attestorsOf("a"))
	expectAnswer(t, submitResult{"lone", resp, err})
	batches, _ := f.recorded()
	if len(batches) != 1 || strings.Join(batches[0], ",") != "lone" {
		t.Fatalf("builds = %v, want one build of the lone spec", batches)
	}
	expectDrained(t, b)
}

func TestAttestBatchSubmitsDuringBuildFormOneNextBatch(t *testing.T) {
	const width = 5
	f := newFakeBuilds()
	b := fakeBatcher(f)
	ctx := context.Background()
	ids := attestorsOf("a")

	leader := submitAsync(ctx, b, "leader", ids)
	if got := <-f.started; strings.Join(got, ",") != "leader" {
		t.Fatalf("first build = %v, want the leader alone", got)
	}
	var queued []<-chan submitResult
	var want []string
	for i := 0; i < width; i++ {
		name := string(rune('p' + i))
		want = append(want, name)
		queued = append(queued, submitAsync(ctx, b, name, ids))
	}
	b.waitQueued(t, width)
	close(f.release)

	expectAnswer(t, <-leader)
	for _, c := range queued {
		expectAnswer(t, <-c)
	}
	batches, _ := f.recorded()
	if len(batches) != 2 || strings.Join(batches[1], ",") != strings.Join(want, ",") {
		t.Fatalf("builds = %v, want [leader] then one batch of %v", batches, want)
	}
	expectDrained(t, b)
}

func TestAttestBatchCancelledWaiterSparesSiblings(t *testing.T) {
	f := newFakeBuilds()
	b := fakeBatcher(f)
	ids := attestorsOf("a")

	leader := submitAsync(context.Background(), b, "leader", ids)
	<-f.started
	ctx, cancel := context.WithCancel(context.Background())
	quitter := submitAsync(ctx, b, "quitter", ids)
	sibling := submitAsync(context.Background(), b, "sibling", ids)
	b.waitQueued(t, 2)
	cancel()
	if r := <-quitter; !errors.Is(r.err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v, want context.Canceled", r.err)
	}
	close(f.release)

	expectAnswer(t, <-leader)
	expectAnswer(t, <-sibling)
	batches, _ := f.recorded()
	if len(batches) != 2 || strings.Join(batches[1], ",") != "quitter,sibling" {
		t.Fatalf("builds = %v, want the cancelled waiter's batch built whole", batches)
	}
	expectDrained(t, b)
}

func TestAttestBatchBuildErrorStaysInItsBatch(t *testing.T) {
	f := newFakeBuilds()
	f.failOn = "bad"
	b := fakeBatcher(f)
	ctx := context.Background()
	ids := attestorsOf("a")

	leader := submitAsync(ctx, b, "leader", ids)
	<-f.started
	bad := submitAsync(ctx, b, "bad", ids)
	mate := submitAsync(ctx, b, "mate", ids)
	b.waitQueued(t, 2)
	close(f.release)

	expectAnswer(t, <-leader)
	for _, c := range []<-chan submitResult{bad, mate} {
		if r := <-c; !errors.Is(r.err, errFakeBuild) || r.resp != nil {
			t.Fatalf("submit %s in the failed batch = (%v, %v), want the build error", r.name, r.resp, r.err)
		}
	}
	expectAnswer(t, <-submitAsync(ctx, b, "after", ids))
	expectDrained(t, b)
}

func TestAttestBatchAttestorSetsNeverShareABatch(t *testing.T) {
	f := newFakeBuilds()
	b := fakeBatcher(f)
	ctx := context.Background()
	sets := map[string][]*msp.Identity{"a": attestorsOf("a"), "b": attestorsOf("b")}

	var pending []<-chan submitResult
	for _, set := range []string{"a", "b"} {
		pending = append(pending, submitAsync(ctx, b, set+"-leader", sets[set]))
		<-f.started
	}
	for _, name := range []string{"a-1", "b-1", "a-2", "b-2", "a-3"} {
		pending = append(pending, submitAsync(ctx, b, name, sets[name[:1]]))
	}
	b.waitQueued(t, 5)
	close(f.release)
	for _, c := range pending {
		expectAnswer(t, <-c)
	}

	batches, keys := f.recorded()
	if len(batches) != 4 {
		t.Fatalf("builds = %v, want a leader and one queued batch per attestor set", batches)
	}
	for i, batch := range batches {
		set := batch[0][:1]
		if keys[i] != attestorSetKey(sets[set]) {
			t.Fatalf("batch %v built under attestor set %q", batch, keys[i])
		}
		for _, name := range batch {
			if name[:1] != set {
				t.Fatalf("batch %v mixes attestor sets", batch)
			}
		}
	}
	expectDrained(t, b)
}
