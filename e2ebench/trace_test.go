package main

import (
	"testing"
	"time"
)

var t0 = time.Unix(1_700_000_000, 0)

func at(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }

func sp(reqID, name string, from, to int) span {
	return span{reqID: reqID, name: name, start: at(from), end: at(to)}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	parent := sp("r", spanLeg, 0, 100)
	cases := []struct {
		children []span
		want     time.Duration
	}{
		{nil, 100 * time.Millisecond},
		{[]span{sp("r", spanDriverQuery, 10, 30)}, 80 * time.Millisecond},
		// Overlapping children count once: [10,40] covered.
		{[]span{sp("r", "", 10, 30), sp("r", "", 20, 40)}, 70 * time.Millisecond},
		// A child running past the parent is clipped to it.
		{[]span{sp("r", "", 10, 30), sp("r", "", 90, 120)}, 70 * time.Millisecond},
		{[]span{sp("r", "", 0, 100)}, 0},
	}
	for i, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("case %d: self time %v, want %v", i, got, c.want)
		}
	}
}

func TestAnalyzeJoinsChainsByRequestID(t *testing.T) {
	spans := []span{
		// A two-hub query: core → origin leg → hub-1 leg → hub-2 leg → driver.
		sp("q1", spanRemoteQuery, 0, 100),
		sp("q1", spanLeg, 10, 90),
		sp("q1", spanLeg, 20, 80),
		sp("q1", spanLeg, 25, 75),
		sp("q1", spanDriverQuery, 30, 70),
		// A warm query reuses its ID; each call owns the spans inside it.
		sp("w", spanRemoteQuery, 200, 210),
		sp("w", spanLeg, 202, 208),
		sp("w", spanDriverQuery, 203, 207),
		sp("w", spanRemoteQuery, 300, 320),
		sp("w", spanLeg, 305, 315),
		sp("w", spanDriverQuery, 306, 314),
	}
	b := analyze(spans)
	if b.rootCalls != 3 || b.legs != 5 {
		t.Fatalf("root calls %d legs %d, want 3 and 5", b.rootCalls, b.legs)
	}
	wantCore := map[time.Duration]int{20 * time.Millisecond: 1, 4 * time.Millisecond: 1, 10 * time.Millisecond: 1}
	for _, d := range b.coreSelf {
		wantCore[d]--
	}
	for d, n := range wantCore {
		if n != 0 {
			t.Errorf("core self %v seen %d times too few", d, n)
		}
	}
	// Leg selves: 80-60=20, 60-50=10, 50-40=10 for q1; 6-4=2 and 10-8=2.
	var sum time.Duration
	for _, d := range b.legSelf {
		sum += d
	}
	if sum != 44*time.Millisecond {
		t.Errorf("leg self sum %v, want 44ms", sum)
	}
	if len(b.chainLegSelf) != 3 {
		t.Fatalf("chain leg self for %d queries, want 3", len(b.chainLegSelf))
	}
	// Each query's legs' own time, keyed by its core self time: q1's three
	// legs own 20+10+10ms, each warm call's single leg 2ms.
	wantChain := map[time.Duration]time.Duration{
		20 * time.Millisecond: 40 * time.Millisecond,
		4 * time.Millisecond:  2 * time.Millisecond,
		10 * time.Millisecond: 2 * time.Millisecond,
	}
	for i, core := range b.coreSelf {
		if got := b.chainLegSelf[i]; got != wantChain[core] {
			t.Errorf("query with core self %v: legs own %v, want %v", core, got, wantChain[core])
		}
	}
}
