package main

import (
	"context"
	"reflect"
	"testing"
	"time"
)

func TestSameSeedSameSchedule(t *testing.T) {
	for _, wl := range workloads {
		a := makeSchedule(wl, 7, 10*time.Second)
		b := makeSchedule(wl, 7, 10*time.Second)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: two schedules from seed 7 differ", wl.name)
		}
		if c := makeSchedule(wl, 8, 10*time.Second); reflect.DeepEqual(a, c) {
			t.Fatalf("%s: seeds 7 and 8 gave the same schedule", wl.name)
		}
		// Poisson arrivals at the workload's rate: within 20% over 10s.
		if want := wl.rate * 10; float64(len(a)) < 0.8*want || float64(len(a)) > 1.2*want {
			t.Errorf("%s: %d arrivals in 10s, want about %.0f", wl.name, len(a), want)
		}
		for i, o := range a {
			if o.seq != i || (i > 0 && o.due < a[i-1].due) || o.due >= 10*time.Second {
				t.Fatalf("%s: op %d out of order: %+v", wl.name, i, o)
			}
			if !containsKind(kindsOf(wl), o.kind) {
				t.Fatalf("%s: op %d has kind %s outside the mix", wl.name, i, o.kind)
			}
		}
	}
}

func kindsOf(wl workload) []opKind {
	var out []opKind
	for _, s := range wl.mix {
		out = append(out, s.kind)
	}
	return out
}

// A fake system that stalls 50ms on its first operation: the operations
// queued behind the stall are charged the wait, because latency runs from
// each operation's due time, not from when a worker picked it up.
func TestLatencyFromDueTimeUnderStall(t *testing.T) {
	const stall = 50 * time.Millisecond
	var sched []op
	for i := 0; i < 10; i++ {
		sched = append(sched, op{seq: i, due: time.Duration(i) * 10 * time.Millisecond})
	}
	res := runOpenLoop(context.Background(), sched, 1, func(_ context.Context, _ int, o op) error {
		if o.seq == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	if got := res.outcomes[0].latency; got < stall {
		t.Errorf("stalled op latency %v, want at least %v", got, stall)
	}
	// Op 1 was due at 10ms and could only start once the stall ended at
	// 50ms: at least 40ms. Op 4, due at 40ms, waited at least 10ms.
	for i, floor := range map[int]time.Duration{1: 40 * time.Millisecond, 2: 30 * time.Millisecond, 4: 10 * time.Millisecond} {
		if got := res.outcomes[i].latency; got < floor {
			t.Errorf("op %d latency %v, want at least %v", i, got, floor)
		}
	}
	// The generator itself was never late by the stall: it queued every
	// operation on time.
	for i, lag := range res.lag {
		if lag > 25*time.Millisecond {
			t.Errorf("op %d queued %v late", i, lag)
		}
	}
	if res.inflightMax != 1 {
		t.Errorf("inflight max %d with one worker", res.inflightMax)
	}
}
