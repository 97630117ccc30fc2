package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/relay"
)

// The timing driver must keep every optional interface the relay
// type-asserts on a registered driver, or decorating it would silently
// switch features off.
func TestTimedDriverForwardsOptionalInterfaces(t *testing.T) {
	var d relay.Driver = &timedDriver{FabricDriver: &relay.FabricDriver{}, tr: newTracer()}
	checks := map[string]bool{}
	_, checks["TxDriver"] = d.(relay.TxDriver)
	_, checks["InvokeReplayer"] = d.(relay.InvokeReplayer)
	_, checks["EventSource"] = d.(relay.EventSource)
	_, checks["AttestationCacheNotifier"] = d.(relay.AttestationCacheNotifier)
	_, checks["CryptoOpsReporter"] = d.(relay.CryptoOpsReporter)
	_, checks["LedgerReplayNotifier"] = d.(relay.LedgerReplayNotifier)
	for name, ok := range checks {
		if !ok {
			t.Errorf("timed driver does not forward %s", name)
		}
	}
}

// fidelityMix exercises every operation class the workloads use.
var fidelityMix = workload{
	name: "fidelity", rate: 80,
	mix: []share{{opCold, 40}, {opWarm, 20}, {opInvoke, 20}, {opAccept, 20}},
}

// servedCounters runs a fixed schedule serially, one operation at a time,
// and returns the relay counters it moved.
func servedCounters(t *testing.T, hubs int, trace bool) relay.Stats {
	t.Helper()
	ctx := context.Background()
	wl := fidelityMix
	wl.hubs = hubs
	sched := makeSchedule(wl, 42, 500*time.Millisecond)
	e, err := setup(ctx, wl, 1, [][]op{sched}, trace)
	if err != nil {
		t.Fatalf("set-up: %v", err)
	}
	defer e.dep.close()
	e.tr.on.Store(trace)
	before := e.dep.stats()
	for _, o := range sched {
		if err := e.do(ctx, 0, o); err != nil {
			t.Fatalf("%s op %d: %v", o.kind, o.seq, err)
		}
	}
	after := e.dep.stats()
	if bad := e.audit(ctx); len(bad) > 0 {
		t.Fatalf("audit: %v", bad)
	}
	if trace && len(e.tr.takeSpans()) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	return after.Sub(before)
}

// A serial fixed-seed run gives the same served, crypto-op and cache
// counters with and without the timing decorators.
func TestDecoratorsKeepCounters(t *testing.T) {
	for _, hubs := range []int{0, 1} {
		plain := servedCounters(t, hubs, false)
		traced := servedCounters(t, hubs, true)
		if plain.QueriesServed == 0 || plain.InvokesServed == 0 {
			t.Fatalf("hubs=%d: run served nothing: %+v", hubs, plain)
		}
		pick := func(s relay.Stats) [9]uint64 {
			return [9]uint64{s.QueriesServed, s.InvokesServed, s.ECDHOps, s.SignOps, s.EncryptOps,
				s.AttestationCacheHits, s.AttestationCacheJoins, s.AttestationCacheMisses, s.ForwardedQueries + s.ForwardedInvokes}
		}
		if pick(plain) != pick(traced) {
			t.Errorf("hubs=%d: counters differ\nplain  %+v\ntraced %+v", hubs, plain, traced)
		}
	}
}

// The result line names exactly the metrics BENCHMARK.json declares, with
// the declared units, in both modes.
func TestResultMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	wl, _ := findWorkload("read")
	for _, c := range []struct {
		trace bool
		want  []struct{ Name, Unit string }
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		res, err := measure(context.Background(), wl, 3, time.Second, c.trace)
		if err != nil {
			t.Fatalf("trace=%v: %v", c.trace, err)
		}
		if !res.Correct || res.Attempted == 0 {
			t.Fatalf("trace=%v: correct=%v attempted=%d", c.trace, res.Correct, res.Attempted)
		}
		var got, want []string
		for name, m := range res.Metrics {
			got = append(got, name+" "+m.Unit)
		}
		for _, m := range c.want {
			want = append(want, m.Name+" "+m.Unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("trace=%v: metrics\n got %v\nwant %v", c.trace, got, want)
		}
	}
}
