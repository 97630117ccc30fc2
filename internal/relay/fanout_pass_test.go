package relay

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// scriptedTransport fails each address's first sends with scripted errors
// and delivers through inner once an address's script runs out, counting
// every send per address.
type scriptedTransport struct {
	inner  Transport
	mu     sync.Mutex
	script map[string][]error
	sends  map[string]int
}

func newScriptedTransport(inner Transport, script map[string][]error) *scriptedTransport {
	return &scriptedTransport{inner: inner, script: script, sends: make(map[string]int)}
}

func (s *scriptedTransport) Send(ctx context.Context, addr string, env *wire.Envelope) (*wire.Envelope, error) {
	s.mu.Lock()
	s.sends[addr]++
	var err error
	if queue := s.script[addr]; len(queue) > 0 {
		err, s.script[addr] = queue[0], queue[1:]
	}
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return s.inner.Send(ctx, addr, env)
}

func (s *scriptedTransport) sendsTo(addr string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sends[addr]
}

// refused and eof are the two failures a replica set mid-churn produces:
// a replica still restarting refuses the dial, one being killed drops the
// connection before replying.
func refused(addr string) error {
	return fmt.Errorf("%w: dial %s: connection refused", ErrUnreachable, addr)
}

func eof(addr string) error {
	return fmt.Errorf("reply from %s: %w", addr, io.EOF)
}

// scriptedDest builds a requesting relay whose transport to the two
// replicas "replica-a" and "replica-b" of srcnet follows script.
func scriptedDest(script map[string][]error, opts ...Option) (*Relay, *scriptedTransport) {
	hub := NewHub()
	reg := NewStaticRegistry()
	src, _ := newCaptureRelay(reg, hub)
	hub.Attach("replica-a", src)
	hub.Attach("replica-b", src)
	reg.Register("srcnet", "replica-a", "replica-b")
	st := newScriptedTransport(hub, script)
	return New("destnet", reg, st, opts...), st
}

// TestQueryFanoutSurvivesReplicaChurn reproduces the partition/heal race
// deterministically: replica A refuses on its first call (still
// restarting), then replica B drops the connection (being killed). Every
// address of the first pass failed, but A is back: the query fan-out
// re-resolves and makes one more pass, which reaches it.
func TestQueryFanoutSurvivesReplicaChurn(t *testing.T) {
	for name, opts := range map[string][]Option{
		"sequential": nil,
		"hedged":     {WithHedging(time.Minute, 2)},
	} {
		t.Run(name, func(t *testing.T) {
			dest, st := scriptedDest(map[string][]error{
				"replica-a": {refused("replica-a")},
				"replica-b": {eof("replica-b"), eof("replica-b")},
			}, opts...)
			resp, err := dest.Query(context.Background(), captureQuery(t))
			if err != nil {
				t.Fatalf("Query across replica churn: %v", err)
			}
			if resp.Error != "" {
				t.Fatalf("remote error: %s", resp.Error)
			}
			if got := st.sendsTo("replica-a"); got != 2 {
				t.Fatalf("sends to the restarted replica = %d, want 2 (refused, then served)", got)
			}
		})
	}
}

// TestQueryFanoutMakesExactlyOneMorePass: a network whose every replica
// stays down costs two passes, not more, and the error names every
// attempt of both.
func TestQueryFanoutMakesExactlyOneMorePass(t *testing.T) {
	for name, opts := range map[string][]Option{
		"sequential": nil,
		"hedged":     {WithHedging(time.Minute, 2)},
	} {
		t.Run(name, func(t *testing.T) {
			down := make([]error, 5)
			for i := range down {
				down[i] = refused("replica")
			}
			dest, st := scriptedDest(map[string][]error{
				"replica-a": append([]error(nil), down...),
				"replica-b": append([]error(nil), down...),
			}, opts...)
			_, err := dest.Query(context.Background(), captureQuery(t))
			if !errors.Is(err, ErrAllRelaysFailed) || !errors.Is(err, ErrUnreachable) {
				t.Fatalf("err = %v, want ErrAllRelaysFailed wrapping ErrUnreachable", err)
			}
			if n := strings.Count(err.Error(), "connection refused"); n != 4 {
				t.Errorf("error names %d attempts, want 4: %v", n, err)
			}
			for _, a := range []string{"replica-a", "replica-b"} {
				if got := st.sendsTo(a); got != 2 {
					t.Errorf("sends to %s = %d, want 2 (one per pass)", a, got)
				}
			}
			if got := dest.Stats().FanoutAttempts; got != 4 {
				t.Fatalf("FanoutAttempts = %d, want 4", got)
			}
		})
	}
}

// TestQueryFanoutNoSecondPassOnSpentBudget: a pass that failed because
// the request's budget ran out is not repeated — a second pass could only
// fail the same way.
func TestQueryFanoutNoSecondPassOnSpentBudget(t *testing.T) {
	dest, st := scriptedDest(map[string][]error{
		"replica-a": {context.DeadlineExceeded, context.DeadlineExceeded},
		"replica-b": {refused("replica-b"), refused("replica-b")},
	})
	if _, err := dest.Query(context.Background(), captureQuery(t)); !errors.Is(err, ErrAllRelaysFailed) {
		t.Fatalf("err = %v, want ErrAllRelaysFailed", err)
	}
	if got := st.sendsTo("replica-a") + st.sendsTo("replica-b"); got != 2 {
		t.Fatalf("sends = %d, want 2 (a single pass)", got)
	}
}

// TestInvokeKeepsAtMostOnceAcrossReplicaChurn: the same churn on an invoke
// ends after B's EOF. The envelope may have reached B, so no second pass
// may resend it anywhere.
func TestInvokeKeepsAtMostOnceAcrossReplicaChurn(t *testing.T) {
	dest, st := scriptedDest(map[string][]error{
		"replica-a": {refused("replica-a")},
		"replica-b": {eof("replica-b")},
	})
	_, err := dest.Invoke(context.Background(), captureQuery(t))
	if !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want the ambiguous EOF", err)
	}
	if a, b := st.sendsTo("replica-a"), st.sendsTo("replica-b"); a != 1 || b != 1 {
		t.Fatalf("sends = %d to A, %d to B; want 1 each (no resend after an ambiguous failure)", a, b)
	}
}
