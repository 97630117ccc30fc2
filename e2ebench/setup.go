package main

import (
	"context"
	"fmt"

	"repro/internal/apps/scenario"
	"repro/internal/apps/tradelens"
	"repro/internal/apps/wetrade"
	"repro/internal/core"
)

// warmCold is how many cold queries and invokes each worker issues during
// warm-up, enough to open every relay's sessions and the ledgers' caches.
const warmCold = 4

// setup builds the deployment for wl and makes it ready for the given
// schedules: audit contract deployed, the B/L key space seeded, one client
// per worker, an L/C brought to Accepted for every scheduled accept, and
// caches and sessions warmed. With trace set, every relay is decorated.
func setup(ctx context.Context, wl workload, workers int, scheds [][]op, trace bool) (*env, error) {
	tr := newTracer()
	var decorate *tracer
	if trace {
		decorate = tr
	}
	dep, err := buildDeployment(wl.hubs, decorate)
	if err != nil {
		return nil, err
	}
	e := &env{wl: wl, dep: dep, tr: tr}
	if err := e.prepare(ctx, workers, scheds); err != nil {
		dep.close()
		return nil, err
	}
	return e, nil
}

func (e *env) prepare(ctx context.Context, workers int, scheds [][]op) error {
	w := e.dep.world
	if err := scenario.DeployAuditLog(w); err != nil {
		return err
	}
	actors, err := w.NewActors()
	if err != nil {
		return err
	}
	e.actors = actors
	refs := make([]string, blKeys)
	for k := range refs {
		refs[k] = blRef(k)
	}
	if err := scenario.SeedShipments(ctx, actors, refs...); err != nil {
		return err
	}
	for k := range refs {
		bl, err := actors.STLCarrier.Client().Evaluate(ctx, tradelens.ChaincodeName, tradelens.FnGetBillOfLading, []byte(refs[k]))
		if err != nil {
			return fmt.Errorf("read seeded B/L %s: %w", refs[k], err)
		}
		e.wantBL = append(e.wantBL, bl)
	}
	for i := 0; i < workers; i++ {
		c, err := core.NewClient(w.SWT, wetrade.SellerBankOrg, fmt.Sprintf("bench-worker-%d", i))
		if err != nil {
			return err
		}
		e.clients = append(e.clients, c)
	}
	for p, sched := range scheds {
		for i := range sched {
			if sched[i].kind != opAccept {
				continue
			}
			sched[i].lc = fmt.Sprintf("lc-%d-%d", p, sched[i].seq)
			if err := e.acceptedLC(ctx, sched[i].lc, blRef(sched[i].key)); err != nil {
				return err
			}
		}
	}
	return e.warmUp(ctx, workers)
}

// acceptedLC requests, issues and accepts an L/C covering po.
func (e *env) acceptedLC(ctx context.Context, lcID, po string) error {
	lc := &wetrade.LetterOfCredit{
		LCID: lcID, PORef: po,
		Buyer: "Globex Imports", Seller: "Acme Exports",
		BuyerBank: "First Buyer Bank", SellerBank: "Seller Trust",
		Amount: 100_000_00, Currency: "USD",
	}
	if _, err := e.actors.SWTBuyer.RequestLC(ctx, lc); err != nil {
		return fmt.Errorf("request L/C %s: %w", lcID, err)
	}
	if _, err := e.actors.SWTBuyer.IssueLC(ctx, lcID); err != nil {
		return fmt.Errorf("issue L/C %s: %w", lcID, err)
	}
	if _, err := e.actors.SWTSeller.AcceptLC(ctx, lcID); err != nil {
		return fmt.Errorf("accept L/C %s: %w", lcID, err)
	}
	return nil
}

// warmUp issues, from every worker, each warm question the workload can
// ask plus a few cold queries and invokes, so the measured window starts
// with filled caches, agreed sessions and open code paths.
func (e *env) warmUp(ctx context.Context, workers int) error {
	kinds := map[opKind]bool{}
	for _, s := range e.wl.mix {
		kinds[s.kind] = true
	}
	for w := 0; w < workers; w++ {
		var ops []op
		if kinds[opWarm] {
			for k := 0; k < blKeys; k++ {
				ops = append(ops, op{kind: opWarm, key: k})
			}
		}
		for i := 0; i < warmCold; i++ {
			ops = append(ops, op{kind: opCold, key: i})
			if kinds[opInvoke] {
				ops = append(ops, op{kind: opInvoke, key: i})
			}
		}
		for _, o := range ops {
			if err := e.do(ctx, w, o); err != nil {
				return fmt.Errorf("warm-up %s: %w", o.kind, err)
			}
		}
	}
	return nil
}
