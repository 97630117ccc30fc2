package relay

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/wire"
)

// Hedging configures hedged fan-out over a target network's relay
// addresses: instead of waiting for an attempt to fail outright before
// trying the next address (sequential failover), the relay opens a hedge
// attempt against the next address once the current one has been
// outstanding for Delay. The first valid response wins and every other
// in-flight attempt is cancelled. This bounds the tail latency a slow or
// DoS-ed relay can impose (§5) at the cost of some duplicate load.
type Hedging struct {
	// Delay is how long an attempt may stay outstanding before a hedge
	// opens against the next address. Zero means 50ms.
	Delay time.Duration
	// MaxParallel bounds concurrently outstanding attempts. Zero or one
	// means 2.
	MaxParallel int
}

// WithHedging enables hedged fan-out for client-facing queries. Hedging
// applies to Query only; Invoke keeps strict sequential failover because a
// cross-network transaction is not idempotent and a hedge could commit it
// twice.
func WithHedging(delay time.Duration, maxParallel int) Option {
	return func(r *Relay) { r.hedge = &Hedging{Delay: delay, MaxParallel: maxParallel} }
}

// stampDeadline records ctx's remaining budget in the envelope so the
// source relay inherits it: both as an absolute deadline and as a relative
// remaining duration. The receiver takes the laxer of the two (see
// remainingBudget), which makes propagation robust to clock skew between
// relays — a receiver with a fast clock no longer reads the absolute
// deadline as already past and kills the request on arrival. Because the
// relative encoding goes stale as time passes, fan-out restamps before
// every transport attempt: a failover send after a slow first attempt must
// carry the budget remaining now, not the budget at first stamp.
func (r *Relay) stampDeadline(ctx context.Context, env *wire.Envelope) {
	deadline, ok := ctx.Deadline()
	if !ok {
		env.DeadlineUnixNano, env.TimeoutNanos = 0, 0
		return
	}
	env.DeadlineUnixNano = uint64(deadline.UnixNano())
	env.TimeoutNanos = 0
	if rem := deadline.Sub(r.now()); rem > 0 {
		env.TimeoutNanos = uint64(rem)
	}
}

// sendFanout delivers env to the first responsive relay among addrs. With
// hedging configured and more than one address available it races
// attempts; otherwise it fails over sequentially. When every attempt of a
// pass failed for want of an available relay, it re-resolves network and
// makes exactly one more pass: a replica set mid-churn — one replica back
// from a restart just after it refused, another killed just as it was
// reached — can fail every address once and serve on the next try.
// Queries are idempotent, so the second pass is safe; invokes never take
// this path (sendAtMostOnce).
func (r *Relay) sendFanout(ctx context.Context, network string, addrs []string, env *wire.Envelope) (*wire.Envelope, error) {
	reply, failed, err := r.fanoutPass(ctx, addrs, env)
	if reply == nil && err == nil && ctx.Err() == nil && unavailableOnly(failed) {
		if fresh, rerr := r.resolveOrdered(network); rerr == nil {
			addrs = fresh
		}
		var again []relayAttempt
		reply, again, err = r.fanoutPass(ctx, addrs, env)
		failed = append(failed, again...)
	}
	if reply != nil || err != nil {
		return reply, err
	}
	return nil, r.allRelaysFailed(ctx, network, failed)
}

// fanoutPass makes one pass over addrs: hedged when hedging is configured
// and more than one address is available, sequential otherwise.
func (r *Relay) fanoutPass(ctx context.Context, addrs []string, env *wire.Envelope) (*wire.Envelope, []relayAttempt, error) {
	if r.hedge == nil || len(addrs) < 2 {
		return r.sendSequential(ctx, addrs, env)
	}
	return r.sendHedged(ctx, addrs, env)
}

// unavailableOnly reports whether every failed attempt says only that its
// relay was unavailable (refused, reset, closed) rather than that the
// request's budget ran out, which a second pass could not change.
func unavailableOnly(failed []relayAttempt) bool {
	for _, a := range failed {
		if errors.Is(a.err, context.DeadlineExceeded) || errors.Is(a.err, context.Canceled) {
			return false
		}
	}
	return len(failed) > 0
}

// sendSequential tries each address in order, failing over on transport
// errors, and stops early once ctx is done. Callers pass health-ordered
// addresses, so the failover order is live-and-fast first with circuit-open
// addresses as last resort. It returns the first reply, or ctx's error, or
// — when every address failed — the failed attempts.
func (r *Relay) sendSequential(ctx context.Context, addrs []string, env *wire.Envelope) (*wire.Envelope, []relayAttempt, error) {
	var failed []relayAttempt
	for _, addr := range addrs {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		r.stampDeadline(ctx, env) // per attempt: the relative budget decays
		r.countFanoutAttempt()
		reply, err := r.observeSend(ctx, addr, env)
		if err != nil {
			failed = append(failed, relayAttempt{addr, err})
			continue // fail over to the next relay address
		}
		return reply, nil, nil
	}
	return nil, failed, nil
}

// sendHedged races attempts across addrs: the first address is tried
// immediately, the next one after the hedge delay (or immediately when an
// attempt fails), up to MaxParallel outstanding at once. The first reply
// wins; losers are cancelled through the shared attempt context. Results
// are returned as sendSequential returns them.
func (r *Relay) sendHedged(ctx context.Context, addrs []string, env *wire.Envelope) (*wire.Envelope, []relayAttempt, error) {
	hedgeDelay := r.hedge.Delay
	if hedgeDelay <= 0 {
		hedgeDelay = 50 * time.Millisecond
	}
	maxParallel := r.hedge.MaxParallel
	if maxParallel <= 1 {
		maxParallel = 2
	}

	attemptCtx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()

	type outcome struct {
		index int
		reply *wire.Envelope
		err   error
	}
	// Buffered to the maximum number of attempts so late losers never
	// block: every launched goroutine can deliver and exit.
	results := make(chan outcome, len(addrs))
	next, inflight := 0, 0
	launch := func() {
		index, addr := next, addrs[next]
		next++
		inflight++
		r.countFanoutAttempt()
		// Each attempt sends its own shallow copy restamped with the budget
		// remaining at launch: hedges opened later carry a fresher relative
		// budget, and no goroutine mutates the shared envelope.
		attemptEnv := *env
		r.stampDeadline(ctx, &attemptEnv)
		go func() {
			reply, err := r.observeSend(attemptCtx, addr, &attemptEnv)
			results <- outcome{index: index, reply: reply, err: err}
		}()
	}
	launch()
	timer := time.NewTimer(hedgeDelay)
	defer timer.Stop()
	var failed []relayAttempt
	// An application-level MsgError reply must not win the race outright:
	// the duplicate load hedging creates can itself trip server-side
	// checks (e.g. the rate limiter), and letting that instant error
	// cancel a healthy-but-slower attempt would turn hedging into an
	// availability loss. Error replies are held as the fallback outcome
	// while real responses are still possible.
	var errorReply *wire.Envelope
	for {
		var hedgeC <-chan time.Time
		if next < len(addrs) && inflight < maxParallel {
			hedgeC = timer.C
		}
		select {
		case <-ctx.Done():
			if errorReply != nil {
				// Surface the diagnostic the relay already gave us rather
				// than a bare deadline error.
				return errorReply, nil, nil
			}
			return nil, nil, ctx.Err()
		case <-hedgeC:
			launch()
			timer.Reset(hedgeDelay)
		case out := <-results:
			inflight--
			if out.err == nil && out.reply.Type != wire.MsgError {
				if out.index > 0 {
					r.countHedgedWin()
				}
				r.countHedgedLosses(inflight)
				return out.reply, nil, nil
			}
			if out.err != nil {
				failed = append(failed, relayAttempt{addrs[out.index], out.err})
			} else {
				errorReply = out.reply
			}
			if next < len(addrs) && inflight < maxParallel {
				// A failed attempt frees its slot: open the next hedge
				// immediately rather than waiting out the delay.
				launch()
				if !timer.Stop() {
					select {
					case <-timer.C:
					default:
					}
				}
				timer.Reset(hedgeDelay)
			} else if inflight == 0 && next == len(addrs) {
				if errorReply != nil {
					return errorReply, nil, nil
				}
				return nil, failed, nil
			}
		}
	}
}

// sendAtMostOnce delivers env trying addresses in order, but fails over
// only while delivery provably did not happen — ErrUnreachable means the
// connection was never established, so the envelope cannot have reached a
// relay. Any error after that point (write/read failure, stall, deadline)
// aborts instead of resending, because a non-idempotent request may
// already have been executed by a relay whose reply was lost. Used for
// cross-network invokes.
func (r *Relay) sendAtMostOnce(ctx context.Context, network string, addrs []string, env *wire.Envelope) (*wire.Envelope, error) {
	var failed []relayAttempt
	for _, addr := range addrs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r.stampDeadline(ctx, env) // per attempt: the relative budget decays
		r.countFanoutAttempt()
		reply, err := r.observeSend(ctx, addr, env)
		if err == nil {
			return reply, nil
		}
		if !errors.Is(err, ErrUnreachable) {
			return nil, err
		}
		failed = append(failed, relayAttempt{addr, err})
	}
	return nil, r.allRelaysFailed(ctx, network, failed)
}

// relayAttempt is one failed send of a fan-out.
type relayAttempt struct {
	addr string
	err  error
}

// allRelaysFailed is the error every fan-out returns once no relay
// address answered. Its message names each address tried, that address's
// error, and whether the address's circuit breaker is open now that the
// request has given up; it wraps ErrAllRelaysFailed and every attempt's
// error, so errors.Is still finds causes such as ErrUnreachable or
// context.DeadlineExceeded. With no attempt made, ctx's error stands in
// as the cause.
func (r *Relay) allRelaysFailed(ctx context.Context, network string, failed []relayAttempt) error {
	if len(failed) == 0 {
		return fmt.Errorf("%w for %s: %w", ErrAllRelaysFailed, network, ctx.Err())
	}
	format := "%w for %s: tried"
	args := []any{ErrAllRelaysFailed, network}
	for i, a := range failed {
		if i > 0 {
			format += ";"
		}
		breaker := ""
		if r.health.circuitOpen(a.addr) {
			breaker = " (breaker open)"
		}
		format += " %s%s: %w"
		args = append(args, a.addr, breaker, a.err)
	}
	return fmt.Errorf(format, args...)
}
