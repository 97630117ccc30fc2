package main

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// opKind is one class of user operation.
type opKind int

const (
	// opCold is a verified cross-network query with a fresh nonce: the
	// source relay must build a new proof.
	opCold opKind = iota
	// opWarm repeats a fixed (worker, key) request ID, so the wire query is
	// identical on every issue and the source relay's attestation cache can
	// answer it.
	opWarm
	// opInvoke appends to an audit key on STL through a cross-network
	// invoke that commits on the source ledger.
	opInvoke
	// opAccept is the paper's Fig. 4 flow: fetch a B/L cross-network, then
	// submit it in an UploadDispatchDocs transaction on SWT.
	opAccept
	numKinds
)

var kindNames = [numKinds]string{"cold_query", "warm_query", "invoke", "accept"}

func (k opKind) String() string { return kindNames[k] }

// share is one entry of a traffic mix.
type share struct {
	kind opKind
	pct  int
}

// workload is one traffic mix against one deployment shape.
type workload struct {
	name string
	// hubs is the number of forwarding hub networks between SWT and STL.
	hubs int
	// rate is the open-loop arrival rate in operations per second.
	rate float64
	mix  []share
	why  string
}

// Key spaces: 64 seeded bills of lading, 16 hot audit keys for invokes.
const (
	blKeys    = 64
	auditKeys = 16
	zipfS     = 1.2
)

var workloads = []workload{
	{
		name: "read", rate: 60, mix: []share{{opCold, 85}, {opWarm, 15}},
		why: "the Fig. 2 read path: proof build, batching wait, sign/seal and requester verify/decrypt; nothing commits",
	},
	{
		name: "write", rate: 40, mix: []share{{opInvoke, 60}, {opAccept, 40}},
		why: "both ledgers' endorse/order/commit paths: hot-key invokes on STL, serialized per key, and Fig. 4 accepts validated by SWT's CMDAC",
	},
	{
		name: "multihop", hubs: 2, rate: 60, mix: []share{{opCold, 85}, {opWarm, 15}},
		why: "the read mix over SWT→hub-1→hub-2→STL: only the forwarding legs, hop pins and path verification differ from read",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// op is one scheduled operation.
type op struct {
	seq  int
	due  time.Duration // offset from the start of the measured window
	kind opKind
	// key indexes the B/L key space for queries and accepts, the audit key
	// space for invokes.
	key int
	// lc names the L/C an accept consumes; set-up creates it and brings it
	// to Accepted.
	lc string
}

// makeSchedule draws the whole open-loop schedule from seed before any
// timing starts: Poisson arrivals at w.rate over d, the mix drawn per
// arrival, zipf-skewed keys. The same seed always gives the same schedule.
func makeSchedule(w workload, seed int64, d time.Duration) []op {
	r := rand.New(rand.NewSource(seed))
	blZipf := rand.NewZipf(r, zipfS, 1, blKeys-1)
	auditZipf := rand.NewZipf(r, zipfS, 1, auditKeys-1)
	var sched []op
	for t := 0.0; ; {
		t += r.ExpFloat64() / w.rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return sched
		}
		kind := pick(w.mix, r.Intn(100))
		key := int(blZipf.Uint64())
		if kind == opInvoke {
			key = int(auditZipf.Uint64())
		}
		sched = append(sched, op{seq: len(sched), due: due, kind: kind, key: key})
	}
}

// pick maps a draw in [0,100) to the mix entry it falls in.
func pick(mix []share, n int) opKind {
	for _, s := range mix {
		if n -= s.pct; n < 0 {
			return s.kind
		}
	}
	return mix[len(mix)-1].kind
}

// outcome is one executed operation.
type outcome struct {
	// latency runs from the operation's due time to its completion, so a
	// stall also charges the operations queued behind it.
	latency time.Duration
	err     error
}

// loadResult is what an open-loop run observed.
type loadResult struct {
	outcomes    []outcome // indexed like the schedule
	lag         []time.Duration
	inflightMax int
	wall        time.Duration
}

// runOpenLoop issues every scheduled operation at its due time to a fixed
// pool of workers and waits for all of them. A dispatcher sleeps until each
// due time and queues the operation; with every worker busy it waits in the
// queue, and that wait counts in its latency. lag records how late the
// dispatcher itself queued each operation.
func runOpenLoop(ctx context.Context, sched []op, workers int, do func(ctx context.Context, worker int, o op) error) loadResult {
	res := loadResult{outcomes: make([]outcome, len(sched)), lag: make([]time.Duration, len(sched))}
	// Sized to the schedule so the dispatcher never blocks: a full queue
	// would turn worker backlog into generator lag.
	queue := make(chan int, len(sched))
	var (
		mu       sync.Mutex
		inflight int
		wg       sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range queue {
				mu.Lock()
				inflight++
				if inflight > res.inflightMax {
					res.inflightMax = inflight
				}
				mu.Unlock()
				err := do(ctx, worker, sched[i])
				res.outcomes[i] = outcome{latency: time.Since(start.Add(sched[i].due)), err: err}
				mu.Lock()
				inflight--
				mu.Unlock()
			}
		}(w)
	}
	for i, o := range sched {
		if wait := time.Until(start.Add(o.due)); wait > 0 {
			time.Sleep(wait)
		}
		res.lag[i] = time.Since(start.Add(o.due))
		queue <- i
	}
	close(queue)
	wg.Wait()
	res.wall = time.Since(start)
	return res
}
