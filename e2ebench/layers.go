package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/apps/tradelens"
	"repro/internal/chaincode"
	"repro/internal/msp"
	"repro/internal/policy"
	"repro/internal/proof"
	"repro/internal/syscc"
	"repro/internal/wire"
)

// replaySamples is how many fresh queries are captured after the load and
// replayed through the proof, msp and syscc layers.
const replaySamples = 64

// perLayer assembles the per-layer metrics: counters, runtime, ledger and
// generator figures from the untraced window, span figures from the traced
// one, and replay timings of captured proofs. A span class the workload
// never produces reads 0.
func perLayer(ctx context.Context, e *env, plain, traced window, spans []span) (map[string]metric, error) {
	out := map[string]metric{}
	bd := analyze(spans)
	spanMetric := func(name string, d []time.Duration) {
		out[name+"_p50_ms"] = metric{ms(percentile(d, 50)), "ms"}
		out[name+"_p95_ms"] = metric{ms(percentile(d, 95)), "ms"}
	}
	for _, n := range []string{spanRemoteQuery, spanRemoteInvoke, spanSubmitAccept, spanLeg, spanDriverQuery, spanDriverInvoke} {
		spanMetric(n, bd.byName[n])
	}
	spanMetric("core.self", bd.coreSelf)
	spanMetric("relay.leg_self", bd.legSelf)
	out["relay.legs_per_op"] = metric{ratio(float64(bd.legs), float64(bd.rootCalls)), "count"}

	// A remote query is its own work, its legs' own work and the driver
	// call. Per request the parts add up exactly; their medians need not
	// add up to the median of the whole, and this is by how much they miss.
	if q := percentile(bd.byName[spanRemoteQuery], 50); q > 0 {
		parts := percentile(bd.coreSelf, 50) + percentile(bd.chainLegSelf, 50) + percentile(bd.byName[spanDriverQuery], 50)
		out["trace.reconcile_residual_frac"] = metric{float64(q-parts) / float64(q), "frac"}
	} else {
		out["trace.reconcile_residual_frac"] = metric{0, "frac"}
	}

	ops := float64(len(plain.sched))
	r := plain.relay
	out["relay.sign_per_op"] = metric{float64(r.SignOps) / ops, "count"}
	out["relay.ecdh_per_op"] = metric{float64(r.ECDHOps) / ops, "count"}
	out["relay.encrypt_per_op"] = metric{float64(r.EncryptOps) / ops, "count"}
	builds := float64(r.AttestationCacheHits + r.AttestationCacheJoins + r.AttestationCacheMisses)
	out["relay.attest_cache_hit_frac"] = metric{ratio(float64(r.AttestationCacheHits), builds), "frac"}
	out["relay.attest_cache_join_frac"] = metric{ratio(float64(r.AttestationCacheJoins), builds), "frac"}
	out["relay.invoke_replays"] = metric{float64(r.InvokeReplays), "count"}
	out["relay.forwarded_per_op"] = metric{float64(r.ForwardedQueries+r.ForwardedInvokes) / ops, "count"}

	lw := plain.ledgers
	out["ledger.txs_per_block"] = metric{ratio(float64(lw.txs), float64(lw.blocks)), "count"}
	out["ledger.mvcc_invalid"] = metric{float64(lw.mvcc), "count"}
	out["ledger.duplicates"] = metric{float64(lw.dup), "count"}
	out["ledger.valid_frac"] = metric{ratio(float64(lw.valid), float64(lw.txs)), "frac"}

	out["runtime.alloc_kb_per_op"] = metric{float64(plain.mem.TotalAlloc) / 1024 / ops, "KB"}
	out["runtime.mallocs_per_op"] = metric{float64(plain.mem.Mallocs) / ops, "count"}
	out["runtime.gc_pause_ms"] = metric{float64(plain.mem.PauseTotalNs) / 1e6, "ms"}

	out["gen.lag_p95_ms"] = metric{ms(percentile(plain.load.lag, 95)), "ms"}
	out["gen.inflight_max"] = metric{float64(plain.load.inflightMax), "count"}
	out["host.steal_frac"] = metric{plain.steal, "frac"}
	out["failed_frac"] = metric{float64(plain.failed) / ops, "frac"}
	// CPU steal on a shared host moves the median and the tail too much
	// run to run to gate on; they are reported here, ungated.
	out["mix_p50_ms"] = metric{ms(plain.mixPercentile(50)), "ms"}
	out["tail_p98_ms"] = metric{ms(percentile(plain.latencies(), 98)), "ms"}
	// Overhead is judged on the gated latency figure.
	out["trace.overhead_frac"] = metric{ratio(float64(traced.mixPercentile(10)-plain.mixPercentile(10)), float64(plain.mixPercentile(10))), "frac"}

	replay, err := e.replay(ctx)
	for k, v := range replay {
		out[k] = v
	}
	return out, err
}

// replay captures fresh query responses at the origin relay and times the
// verification layers on them, one call per sample, reporting medians.
func (e *env) replay(ctx context.Context) (map[string]metric, error) {
	client := e.clients[0]
	type sample struct {
		q    *wire.Query
		resp *wire.QueryResponse
	}
	var samples []sample
	e.tr.capture.Store(true)
	for i := 0; i < replaySamples; i++ {
		data, err := e.query(ctx, client, i%blKeys, "")
		if err != nil {
			e.tr.capture.Store(false)
			return nil, fmt.Errorf("replay capture: %w", err)
		}
		e.tr.mu.Lock()
		payload := e.tr.captured[data.RequestID]
		e.tr.mu.Unlock()
		resp, err := wire.UnmarshalQueryResponse(payload)
		if err != nil {
			e.tr.capture.Store(false)
			return nil, fmt.Errorf("replay capture %s: %w", data.RequestID, err)
		}
		samples = append(samples, sample{data.Query, resp})
	}
	e.tr.capture.Store(false)

	cfg := e.dep.world.STL.ExportConfig()
	roots := make(map[string][]byte, len(cfg.Orgs))
	for _, org := range cfg.Orgs {
		roots[org.OrgID] = org.RootCertPEM
	}
	var hop, open, newVerifier, verify, cmdac []float64
	timeIt := func(dst *[]float64, fn func() error) error {
		start := time.Now()
		err := fn()
		*dst = append(*dst, us(time.Since(start)))
		return err
	}
	// ValidateProof records the nonce, so it is simulated as an endorser
	// would, against an SWT peer's committed state, and never committed.
	cmdacOnly := chaincode.NewRegistry()
	cmdacOnly.Register(syscc.CMDACName, &syscc.CMDAC{})
	swtState := e.dep.world.SWT.Fabric.AllPeers()[0].State()
	for i, s := range samples {
		q, resp := s.q, s.resp
		if err := timeIt(&hop, func() error { _, err := proof.VerifyHopChain(q, resp); return err }); err != nil {
			return nil, fmt.Errorf("replay hop chain: %w", err)
		}
		var bundle *proof.Bundle
		if err := timeIt(&open, func() (err error) { bundle, err = proof.OpenResponse(client.Identity().Key, q, resp); return err }); err != nil {
			return nil, fmt.Errorf("replay open: %w", err)
		}
		var verifier *msp.Verifier
		if err := timeIt(&newVerifier, func() (err error) { verifier, err = msp.NewVerifier(roots); return err }); err != nil {
			return nil, fmt.Errorf("replay verifier: %w", err)
		}
		compiled, err := policy.VerificationPolicy{Network: q.TargetNetwork, Expr: q.PolicyExpr}.Compile()
		if err != nil {
			return nil, fmt.Errorf("replay policy: %w", err)
		}
		if err := timeIt(&verify, func() error {
			return proof.Verify(bundle, verifier, compiled, proof.QueryDigestOf(q), proof.PolicyDigest(q.PolicyExpr))
		}); err != nil {
			return nil, fmt.Errorf("replay verify: %w", err)
		}
		inv := chaincode.Invocation{
			TxID: fmt.Sprintf("replay-%d", i), Chaincode: syscc.CMDACName, Function: syscc.CMDACValidateProof,
			Args:        syscc.ValidateProofArgs(tradelens.NetworkID, q.Ledger, q.Contract, q.Function, bundle.Marshal(), q.Args...),
			CreatorCert: client.Identity().CertPEM(), Timestamp: time.Now(),
		}
		if err := timeIt(&cmdac, func() error { _, err := chaincode.Simulate(cmdacOnly, swtState, inv); return err }); err != nil {
			return nil, fmt.Errorf("replay CMDAC ValidateProof: %w", err)
		}
	}
	return map[string]metric{
		"proof.verify_hop_chain_us": {medianFloat(hop), "us"},
		"proof.open_response_us":    {medianFloat(open), "us"},
		"msp.new_verifier_us":       {medianFloat(newVerifier), "us"},
		"proof.verify_us":           {medianFloat(verify), "us"},
		"syscc.cmdac_validate_us":   {medianFloat(cmdac), "us"},
	}, nil
}
