package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/apps/scenario"
	"repro/internal/apps/tradelens"
	"repro/internal/apps/wetrade"
	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/relay"
	"repro/internal/wire"
)

// opTimeout bounds one operation so a hung call fails instead of stalling
// the run.
const opTimeout = 10 * time.Second

func blRef(key int) string    { return fmt.Sprintf("po-bench-%03d", key) }
func auditRef(key int) string { return fmt.Sprintf("audit-%02d", key) }

// errWrongAnswer marks a successful call whose answer is wrong: it fails the
// run instead of counting as a failure.
var errWrongAnswer = errors.New("wrong answer")

// Failure classes. Only availability and contention are retried, and only
// for invokes, under the same request ID.
const (
	classAvailability = "availability"
	classContention   = "contention"
	classDivergent    = "divergent_endorsement"
	classProtocol     = "protocol"
)

func classify(err error) string {
	var netErr net.Error
	switch {
	case strings.Contains(err.Error(), "divergent"):
		return classDivergent
	case strings.Contains(err.Error(), "tx invalidated"):
		return classContention
	case errors.Is(err, relay.ErrUnreachable), errors.Is(err, relay.ErrAllRelaysFailed),
		errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled),
		errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF), errors.As(err, &netErr):
		return classAvailability
	default:
		return classProtocol
	}
}

// issuedInvoke is one invoke the benchmark sent, kept for the ledger audit.
type issuedInvoke struct {
	txID  string
	acked bool
}

// ackedAccept is one accept the benchmark saw succeed.
type ackedAccept struct {
	lcID, wantBLID string
}

// env is one set-up deployment with its clients and ground truth.
type env struct {
	wl      workload
	dep     *deployment
	tr      *tracer
	clients []*core.Client
	actors  *scenario.Actors
	// wantBL is each key's B/L as STL stores it.
	wantBL   [][]byte
	mu       sync.Mutex
	invokes  []issuedInvoke
	accepts  []ackedAccept
	wrong    []string
	invokeID int
	// keyMu serializes invokes per audit key. Two concurrent invokes on one
	// key hit the divergent-endorsement race of ROADMAP's first item, which
	// fails a different number of them on every run; the benchmark's
	// failure count must reproduce, so an invoke waits for the one before
	// it on its key, and the wait counts in its latency.
	keyMu [auditKeys]sync.Mutex
}

// querySpec asks for key's bill of lading. A non-empty reqID makes the
// question repeatable (warm).
func querySpec(key int, reqID string) core.RemoteQuerySpec {
	return core.RemoteQuerySpec{
		Network: tradelens.NetworkID, Contract: tradelens.ChaincodeName,
		Function: tradelens.FnGetBillOfLading, Args: [][]byte{[]byte(blRef(key))},
		RequestID: reqID,
	}
}

// do executes one operation as worker.
func (e *env) do(ctx context.Context, worker int, o op) error {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	client := e.clients[worker]
	switch o.kind {
	case opCold:
		_, err := e.query(ctx, client, o.key, "")
		return err
	case opWarm:
		_, err := e.query(ctx, client, o.key, fmt.Sprintf("warm-%d-%d", worker, o.key))
		return err
	case opInvoke:
		return e.invoke(ctx, client, o.key)
	case opAccept:
		return e.accept(ctx, client, o)
	}
	return fmt.Errorf("unknown op kind %d", o.kind)
}

// query fetches key's B/L and checks it against the seeded document and the
// deployment's hop count.
func (e *env) query(ctx context.Context, client *core.Client, key int, reqID string) (*core.RemoteData, error) {
	start := time.Now()
	data, err := client.RemoteQuery(ctx, querySpec(key, reqID))
	if err != nil {
		return nil, err
	}
	if e.tr.on.Load() {
		e.tr.record(span{reqID: data.RequestID, name: spanRemoteQuery, start: start, end: time.Now()})
	}
	switch {
	case !bytes.Equal(data.Result, e.wantBL[key]):
		return nil, e.wrongAnswer("query %s returned %q, want %q", blRef(key), data.Result, e.wantBL[key])
	case len(data.Path) != e.dep.hops:
		return nil, e.wrongAnswer("query %s came over %d hops, want %d", blRef(key), len(data.Path), e.dep.hops)
	}
	return data, nil
}

func (e *env) wrongAnswer(format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	e.mu.Lock()
	e.wrong = append(e.wrong, msg)
	e.mu.Unlock()
	return fmt.Errorf("%w: %s", errWrongAnswer, msg)
}

// invoke appends to an audit key under a run-unique request ID, retrying
// availability and contention failures under the same ID at most three
// times in all. Invokes on one key run one at a time. Every issue is kept
// for the exactly-once audit.
func (e *env) invoke(ctx context.Context, client *core.Client, key int) error {
	e.keyMu[key].Lock()
	defer e.keyMu[key].Unlock()
	e.mu.Lock()
	e.invokeID++
	reqID := fmt.Sprintf("inv-%d", e.invokeID)
	e.mu.Unlock()
	spec := core.RemoteQuerySpec{
		Network: tradelens.NetworkID, Contract: scenario.AuditChaincodeName, Function: "Append",
		Args:      [][]byte{[]byte(auditRef(key)), []byte(reqID + ";")},
		RequestID: reqID,
	}
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		e.tr.timed(reqID, spanRemoteInvoke, func() { _, err = client.RemoteInvoke(ctx, spec) })
		if err == nil {
			break
		}
		if c := classify(err); c != classAvailability && c != classContention {
			break
		}
	}
	e.mu.Lock()
	e.invokes = append(e.invokes, issuedInvoke{
		txID: relay.InteropTxID(&wire.Query{
			RequestID: reqID, RequestingNetwork: wetrade.NetworkID, RequesterCertPEM: client.Identity().CertPEM(),
		}),
		acked: err == nil,
	})
	e.mu.Unlock()
	return err
}

// accept runs Fig. 4: fetch the B/L for the operation's L/C, brought to
// Accepted during set-up, and upload it in an UploadDispatchDocs
// transaction, which SWT's CMDAC re-validates on every endorser.
func (e *env) accept(ctx context.Context, client *core.Client, o op) error {
	lcID, po := o.lc, blRef(o.key)
	data, err := e.query(ctx, client, o.key, "")
	if err != nil {
		return err
	}
	var out []byte
	e.tr.timed(data.RequestID, spanSubmitAccept, func() {
		out, err = client.Submit(ctx, wetrade.ChaincodeName, wetrade.FnUploadDispatchDocs, []byte(lcID), data.BundleBytes)
	})
	if err != nil {
		return err
	}
	lc, err := wetrade.UnmarshalLetterOfCredit(out)
	if err != nil {
		return e.wrongAnswer("accept %s: %v", lcID, err)
	}
	if lc.Status != wetrade.StatusDocsReceived || lc.BLID != "bl-"+po {
		return e.wrongAnswer("accept %s left status %s BLID %q", lcID, lc.Status, lc.BLID)
	}
	e.mu.Lock()
	e.accepts = append(e.accepts, ackedAccept{lcID: lcID, wantBLID: "bl-" + po})
	e.mu.Unlock()
	return nil
}

// audit checks, after the run, that every acknowledged invoke has exactly
// one valid STL commit and none has more, and that every acknowledged
// accept left its L/C at DocsReceived with the right B/L.
func (e *env) audit(ctx context.Context) []string {
	var bad []string
	valid := make(map[string]int)
	blocks := e.dep.world.STL.Fabric.AllPeers()[0].Blocks()
	for n := uint64(0); n < blocks.Height(); n++ {
		b, err := blocks.Block(n)
		if err != nil {
			bad = append(bad, fmt.Sprintf("read STL block %d: %v", n, err))
			continue
		}
		for _, tx := range b.Transactions {
			if tx.Validation == ledger.Valid {
				valid[tx.ID]++
			}
		}
	}
	for _, inv := range e.invokes {
		switch n := valid[inv.txID]; {
		case n > 1:
			bad = append(bad, fmt.Sprintf("invoke %s committed %d times", inv.txID, n))
		case inv.acked && n == 0:
			bad = append(bad, fmt.Sprintf("acknowledged invoke %s never committed", inv.txID))
		}
	}
	reader := e.actors.SWTSeller
	for _, a := range e.accepts {
		lc, err := reader.LC(ctx, a.lcID)
		switch {
		case err != nil:
			bad = append(bad, fmt.Sprintf("read L/C %s: %v", a.lcID, err))
		case lc.Status != wetrade.StatusDocsReceived || lc.BLID != a.wantBLID:
			bad = append(bad, fmt.Sprintf("L/C %s at %s with B/L %q, want %s with %q",
				a.lcID, lc.Status, lc.BLID, wetrade.StatusDocsReceived, a.wantBLID))
		}
	}
	return append(bad, e.wrong...)
}
