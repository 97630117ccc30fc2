package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/relay"
	"repro/internal/wire"
)

// Span names recorded at the layer boundaries the benchmark can reach from
// outside the program.
const (
	spanRemoteQuery  = "core.remote_query"
	spanRemoteInvoke = "core.remote_invoke"
	spanSubmitAccept = "core.submit_accept"
	spanLeg          = "relay.leg"
	spanDriverQuery  = "relay.driver_query"
	spanDriverInvoke = "relay.driver_invoke"
)

// span is one timed call. Spans of one request share reqID: the envelope
// request ID, which forwarded legs keep.
type span struct {
	reqID      string
	name       string
	start, end time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// tracer keeps spans in memory while on, and optionally the reply payload
// of every origin leg so captured responses can be replayed through the
// proof layer afterwards.
type tracer struct {
	on      atomic.Bool
	capture atomic.Bool

	mu       sync.Mutex
	spans    []span
	captured map[string][]byte
}

func newTracer() *tracer { return &tracer{captured: make(map[string][]byte)} }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs fn and records it as a span when the tracer is on.
func (t *tracer) timed(reqID, name string, fn func()) {
	if !t.on.Load() {
		fn()
		return
	}
	start := time.Now()
	fn()
	t.record(span{reqID: reqID, name: name, start: start, end: time.Now()})
}

// takeSpans returns the recorded spans and clears them.
func (t *tracer) takeSpans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// timedTransport decorates a relay's transport: every Send is a relay.leg
// span. On the origin relay it can also keep the raw replies.
type timedTransport struct {
	next   relay.Transport
	tr     *tracer
	origin bool
}

// Send implements relay.Transport.
func (t *timedTransport) Send(ctx context.Context, addr string, env *wire.Envelope) (reply *wire.Envelope, err error) {
	t.tr.timed(env.RequestID, spanLeg, func() { reply, err = t.next.Send(ctx, addr, env) })
	if t.origin && err == nil && t.tr.capture.Load() && reply.Type == wire.MsgQueryResponse {
		t.tr.mu.Lock()
		t.tr.captured[env.RequestID] = reply.Payload
		t.tr.mu.Unlock()
	}
	return reply, err
}

// timedDriver decorates the source relay's Fabric driver: Query and Invoke
// are relay.driver_* spans. Embedding forwards every optional interface the
// relay type-asserts (TxDriver, InvokeReplayer, EventSource,
// AttestationCacheNotifier, CryptoOpsReporter, LedgerReplayNotifier).
type timedDriver struct {
	*relay.FabricDriver
	tr *tracer
}

// Query implements relay.Driver.
func (d *timedDriver) Query(ctx context.Context, q *wire.Query) (resp *wire.QueryResponse, err error) {
	d.tr.timed(q.RequestID, spanDriverQuery, func() { resp, err = d.FabricDriver.Query(ctx, q) })
	return resp, err
}

// Invoke implements relay.TxDriver.
func (d *timedDriver) Invoke(ctx context.Context, q *wire.Query) (resp *wire.QueryResponse, err error) {
	d.tr.timed(q.RequestID, spanDriverInvoke, func() { resp, err = d.FabricDriver.Invoke(ctx, q) })
	return resp, err
}

// selfTime is a span's duration minus the part of it that its children
// cover; overlapping children are counted once.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.start, c.end
		if a.Before(parent.start) {
			a = parent.start
		}
		if b.After(parent.end) {
			b = parent.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	covered := time.Duration(0)
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			covered += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return parent.dur() - covered
}

// breakdown is the per-layer view of one traced phase.
type breakdown struct {
	byName map[string][]time.Duration
	// coreSelf is each remote call minus its first leg; legSelf each leg
	// minus the leg or driver call it led to; chainLegSelf the sum of
	// legSelf over each remote query's legs.
	coreSelf, legSelf, chainLegSelf []time.Duration
	legs, rootCalls                 int
}

// analyze joins spans by request ID into chains core → leg … → driver and
// computes self times along each chain. A warm query reuses its request ID,
// but one worker never has two calls with the same ID in flight, so each
// root call owns the spans of its ID that lie inside its interval.
func analyze(spans []span) breakdown {
	b := breakdown{byName: make(map[string][]time.Duration)}
	byReq := make(map[string][]span)
	for _, s := range spans {
		b.byName[s.name] = append(b.byName[s.name], s.dur())
		byReq[s.reqID] = append(byReq[s.reqID], s)
	}
	for _, group := range byReq {
		for _, root := range group {
			if root.name != spanRemoteQuery && root.name != spanRemoteInvoke {
				continue
			}
			var legs []span
			var driver *span
			for i, s := range group {
				if s.start.Before(root.start) || s.end.After(root.end) {
					continue
				}
				switch s.name {
				case spanLeg:
					legs = append(legs, s)
				case spanDriverQuery, spanDriverInvoke:
					driver = &group[i]
				}
			}
			if len(legs) == 0 {
				continue
			}
			sort.Slice(legs, func(i, j int) bool { return legs[i].start.Before(legs[j].start) })
			b.rootCalls++
			b.legs += len(legs)
			b.coreSelf = append(b.coreSelf, selfTime(root, legs[:1]))
			var chain time.Duration
			for i, leg := range legs {
				var child []span
				if i+1 < len(legs) {
					child = legs[i+1 : i+2]
				} else if driver != nil {
					child = []span{*driver}
				}
				self := selfTime(leg, child)
				b.legSelf = append(b.legSelf, self)
				chain += self
			}
			if root.name == spanRemoteQuery {
				b.chainLegSelf = append(b.chainLegSelf, chain)
			}
		}
	}
	return b
}
