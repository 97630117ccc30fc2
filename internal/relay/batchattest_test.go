package relay_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/apps/scenario"
	"repro/internal/apps/tradelens"
	"repro/internal/apps/wetrade"
	"repro/internal/core"
	"repro/internal/proof"
	"repro/internal/relay"
	"repro/internal/wire"
)

// behindHeldBuild runs op(-1) as a batched build held in flight on driver,
// then op(0..n-1) concurrently, and releases the hold only once all n are
// queued behind it — so their proofs are group-committed as exactly one
// batch. It fails the test if any op fails.
func behindHeldBuild(t *testing.T, driver *relay.FabricDriver, n int, op func(i int) (*core.RemoteData, error)) []*core.RemoteData {
	t.Helper()
	hold := relay.HoldBatchBuilds(driver)
	defer hold.Release()
	held := make(chan error, 1)
	go func() {
		_, err := op(-1)
		held <- err
	}()
	if size := hold.Started(); size != 1 {
		t.Fatalf("held build has batch size %d, want the lone first query", size)
	}
	results := make([]*core.RemoteData, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = op(i)
		}(i)
	}
	hold.WaitQueued(t, n)
	hold.Release()
	wg.Wait()
	if err := <-held; err != nil {
		t.Fatalf("held op: %v", err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	return results
}

// seededWorld builds the in-process trade world with one shipment per ref.
func seededWorld(t *testing.T, refs ...string) *scenario.TradeWorld {
	t.Helper()
	w, err := scenario.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	actors, err := w.NewActors()
	if err != nil {
		t.Fatalf("NewActors: %v", err)
	}
	if err := scenario.SeedShipments(context.Background(), actors, refs...); err != nil {
		t.Fatalf("SeedShipments: %v", err)
	}
	return w
}

func blQuery(ref string) core.RemoteQuerySpec {
	return core.RemoteQuerySpec{
		Network: tradelens.NetworkID, Contract: tradelens.ChaincodeName,
		Function: tradelens.FnGetBillOfLading, Args: [][]byte{[]byte(ref)},
	}
}

// batchRefs names the held query's shipment and one per batched query.
func batchRefs(width int) (held string, refs []string) {
	for i := 0; i < width; i++ {
		refs = append(refs, fmt.Sprintf("po-batch-%d", i))
	}
	return "po-batch-held", refs
}

// queryBehindHeldBuild issues one cold query per ref as a single batch
// queued behind a held build of a query for held.
func queryBehindHeldBuild(t *testing.T, driver *relay.FabricDriver, client *core.Client, held string, refs []string) []*core.RemoteData {
	return behindHeldBuild(t, driver, len(refs), func(i int) (*core.RemoteData, error) {
		ref := held
		if i >= 0 {
			ref = refs[i]
		}
		return client.RemoteQuery(context.Background(), blQuery(ref))
	})
}

// expectOneBatch checks that every result carries a batch of width and
// that each attestor signed the whole batch once.
func expectOneBatch(t *testing.T, results []*core.RemoteData, width uint64) {
	t.Helper()
	for i, r := range results {
		for _, el := range r.Bundle.Elements {
			if el.BatchSize != width {
				t.Fatalf("query %d element batch size = %d, want %d", i, el.BatchSize, width)
			}
		}
	}
	// One signature per attestor for the whole batch: every query carries
	// the same signature from the same attestor slot.
	for slot := range results[0].Bundle.Elements {
		first := results[0].Bundle.Elements[slot].Signature
		for i := 1; i < len(results); i++ {
			if !bytes.Equal(first, results[i].Bundle.Elements[slot].Signature) {
				t.Fatalf("attestor slot %d signed query %d separately", slot, i)
			}
		}
	}
}

// TestBatchedAttestationQueryWindow drives group-commit batching end to
// end through the full client stack: four concurrent cold queries queue
// behind a build in flight and form one batch, every attestor signs once,
// and each client's independent proof.Verify accepts its leaf + inclusion
// proof.
func TestBatchedAttestationQueryWindow(t *testing.T) {
	const width = 4
	held, refs := batchRefs(width)
	w := seededWorld(t, append(refs, held)...)
	client, err := core.NewClient(w.SWT, wetrade.SellerBankOrg, "batch-reader")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	results := queryBehindHeldBuild(t, w.STL.Driver, client, held, refs)
	for i, r := range results {
		if !bytes.Contains(r.Result, []byte(refs[i])) {
			t.Fatalf("result %d = %q", i, r.Result)
		}
	}
	expectOneBatch(t, results, width)
}

// TestBuildTCPBatchedAttestation drives group-commit batching over the
// real TCP deployment: three concurrent cold queries through the primary
// STL relay form one batch, and every client's independent proof
// verification accepts its leaf + inclusion proof end to end.
func TestBuildTCPBatchedAttestation(t *testing.T) {
	const width = 3
	d, err := scenario.BuildTCP(0)
	if err != nil {
		t.Fatalf("BuildTCP: %v", err)
	}
	defer d.Close()
	w := d.World
	if d.STLServers[0].Driver == nil {
		t.Fatal("primary STL server carries no driver handle")
	}
	actors, err := w.NewActors()
	if err != nil {
		t.Fatalf("NewActors: %v", err)
	}
	held, refs := batchRefs(width)
	if err := scenario.SeedShipments(context.Background(), actors, append(refs, held)...); err != nil {
		t.Fatalf("SeedShipments: %v", err)
	}
	client, err := core.NewClient(w.SWT, wetrade.SellerBankOrg, "tcp-batch-client")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	results := queryBehindHeldBuild(t, d.STLServers[0].Driver, client, held, refs)
	for i, r := range results {
		if !bytes.Contains(r.Result, []byte(refs[i])) {
			t.Fatalf("result %d = %q", i, r.Result)
		}
	}
	expectOneBatch(t, results, width)
}

// TestBatchedInvokeReplayAfterOrgRemoval is the proof-carrying scenario
// for batched proofs: two concurrent invokes share one batch, the batched
// Sealed artifact is persisted with each committed transaction, an
// attestor org then leaves the source network, and a replay through a cold
// relay serves the persisted batched proof byte for byte — the inclusion
// proofs still verify because nothing is re-signed.
func TestBatchedInvokeReplayAfterOrgRemoval(t *testing.T) {
	w := seededWorld(t)
	if err := scenario.DeployAuditLog(w); err != nil {
		t.Fatalf("DeployAuditLog: %v", err)
	}
	client, err := core.NewClient(w.SWT, wetrade.SellerBankOrg, "batch-invoker")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	invoke := func(i int) core.RemoteQuerySpec {
		return core.RemoteQuerySpec{
			Network: tradelens.NetworkID, Contract: scenario.AuditChaincodeName, Function: "Append",
			Args:      [][]byte{[]byte(fmt.Sprintf("audit-%d", i)), []byte("entry;")},
			RequestID: fmt.Sprintf("batched-invoke-%d", i),
		}
	}
	originals := behindHeldBuild(t, w.STL.Driver, 2, func(i int) (*core.RemoteData, error) {
		return client.RemoteInvoke(context.Background(), invoke(i))
	})
	for i, r := range originals {
		for _, el := range r.Bundle.Elements {
			if el.BatchSize != 2 {
				t.Fatalf("invoke %d element batch size = %d, want 2", i, el.BatchSize)
			}
		}
	}

	// The persisted artifact is itself batched: the Sealed response on the
	// ledger carries the batch's inclusion proofs.
	peers := w.STL.Fabric.AllPeers()
	for i, r := range originals {
		tx, err := peers[0].Blocks().TxByInteropKey(r.Query.InteropKey())
		if err != nil {
			t.Fatalf("TxByInteropKey %d: %v", i, err)
		}
		sealed, err := proof.UnmarshalSealed(tx.ProofBundle)
		if err != nil {
			t.Fatalf("UnmarshalSealed %d: %v", i, err)
		}
		resp, err := wire.UnmarshalQueryResponse(sealed.Response)
		if err != nil {
			t.Fatalf("UnmarshalQueryResponse %d: %v", i, err)
		}
		for _, att := range resp.Attestations {
			if att.BatchSize != 2 || len(att.BatchPath) == 0 {
				t.Fatalf("persisted attestation %d not batched: size=%d path=%d", i, att.BatchSize, len(att.BatchPath))
			}
			// The client negotiated sessioned ECIES, so the persisted batch
			// is batched AND sessioned — the replay below therefore proves
			// the sessioned batched Sealed artifact is served byte for byte.
			if len(att.SessionEphemeral) == 0 || att.SessionGeneration == 0 {
				t.Fatalf("persisted attestation %d is not sessioned", i)
			}
		}
	}

	// Cold second relay + org removal: replay can only come from the
	// ledger, and fresh batched attestation is impossible.
	relay2 := relay.New(tradelens.NetworkID, w.Registry, w.Hub)
	relay2.RegisterDriver(tradelens.NetworkID, relay.NewFabricDriver(w.STL.Fabric, "default"))
	w.Hub.Attach("stl-relay-2", relay2)
	w.Registry.Unregister(tradelens.NetworkID, scenario.STLRelayAddr)
	w.Registry.Register(tradelens.NetworkID, "stl-relay-2")
	if err := w.STL.Fabric.RemoveOrg(tradelens.CarrierOrg); err != nil {
		t.Fatalf("RemoveOrg: %v", err)
	}

	for i, original := range originals {
		replayed, err := client.RemoteInvoke(context.Background(), invoke(i))
		if err != nil {
			t.Fatalf("RemoteInvoke replay %d: %v", i, err)
		}
		if !bytes.Equal(replayed.BundleBytes, original.BundleBytes) {
			t.Fatalf("replayed batched bundle %d differs from the persisted original", i)
		}
	}
	if got := relay2.Stats().InvokeReplays; got != 2 {
		t.Fatalf("InvokeReplays = %d, want 2", got)
	}
}

// TestBatchingDisabledForLegacyClients proves capability negotiation: a
// query that does not announce AcceptBatched takes the single-signature
// path and never queues behind a batched build in flight.
func TestBatchingDisabledForLegacyClients(t *testing.T) {
	w := seededWorld(t, "po-legacy", "po-held")
	client, err := core.NewClient(w.SWT, wetrade.SellerBankOrg, "legacy-reader")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	data, err := client.RemoteQuery(context.Background(), blQuery("po-legacy"))
	if err != nil {
		t.Fatalf("RemoteQuery: %v", err)
	}

	// Hold a batched build in flight, then replay the identical query
	// without the capability bit straight at the driver, as an older relay
	// would send it. Caching is off so the replay must build a proof; a
	// batched submission would queue behind the held build, while the
	// legacy path must return at once.
	w.STL.Driver.ConfigureAttestationCache(0, 0)
	hold := relay.HoldBatchBuilds(w.STL.Driver)
	defer hold.Release()
	held := make(chan error, 1)
	go func() {
		_, err := client.RemoteQuery(context.Background(), blQuery("po-held"))
		held <- err
	}()
	hold.Started()

	legacy := *data.Query
	legacy.AcceptBatched = false
	done := make(chan struct{})
	var resp *wire.QueryResponse
	go func() {
		defer close(done)
		resp, err = w.STL.Driver.Query(context.Background(), &legacy)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("legacy query queued behind the held batched build")
	}
	if err != nil {
		t.Fatalf("legacy Query: %v", err)
	}
	for _, att := range resp.Attestations {
		if att.BatchSize != 0 {
			t.Fatal("legacy query received a batched attestation")
		}
	}
	hold.Release()
	if err := <-held; err != nil {
		t.Fatalf("held RemoteQuery: %v", err)
	}
}
