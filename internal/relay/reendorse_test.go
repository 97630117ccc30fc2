package relay_test

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/apps/tradelens"
	"repro/internal/apps/wetrade"
	"repro/internal/chaincode"
	"repro/internal/core"
)

// deployDisagreeing deploys a contract on STL, endorsed by both STL
// organizations, whose simulations answer distinct results for the first
// `disagree` calls and the same result afterwards — the endorser view a
// block committed to one peer but not yet to the other produces. It
// returns the contract's call counter.
func deployDisagreeing(t *testing.T, name string, disagree int32) (*atomic.Int32, *core.Client, core.RemoteQuerySpec) {
	t.Helper()
	w := seededWorld(t)
	var calls atomic.Int32
	cc := chaincode.Func(func(chaincode.Stub) ([]byte, error) {
		if n := calls.Add(1); n <= disagree {
			return []byte(fmt.Sprintf("view-%d", n)), nil
		}
		return []byte("agreed"), nil
	})
	if err := w.STL.Fabric.Deploy(name, cc,
		fmt.Sprintf("AND('%s','%s')", tradelens.SellerOrg, tradelens.CarrierOrg)); err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	client, err := core.NewClient(w.SWT, wetrade.SellerBankOrg, "reendorse-client")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	spec := core.RemoteQuerySpec{
		Network: tradelens.NetworkID, Contract: name, Function: "Touch", RequestID: name,
	}
	return &calls, client, spec
}

// TestInvokeReendorsesWhenEndorsersDisagree: endorsers that disagree on
// the first round (a commit that has reached one peer but not the other)
// are a transient outcome, so the driver endorses again instead of failing
// the invoke.
func TestInvokeReendorsesWhenEndorsersDisagree(t *testing.T) {
	calls, client, spec := deployDisagreeing(t, "disagree-once", 2)
	data, err := client.RemoteInvoke(context.Background(), spec)
	if err != nil {
		t.Fatalf("RemoteInvoke after one disagreeing round: %v", err)
	}
	if string(data.Result) != "agreed" {
		t.Fatalf("result = %q, want the agreed second round", data.Result)
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("contract simulated %d times, want two rounds of two endorsers", got)
	}
}

// TestInvokeEndorsementRetriesAreBounded: endorsers that never agree are
// re-endorsed a bounded number of times, then the mismatch is reported.
func TestInvokeEndorsementRetriesAreBounded(t *testing.T) {
	calls, client, spec := deployDisagreeing(t, "disagree-always", 1<<30)
	_, err := client.RemoteInvoke(context.Background(), spec)
	if err == nil || !strings.Contains(err.Error(), "divergent") {
		t.Fatalf("RemoteInvoke with endorsers that never agree = %v, want a divergent-results error", err)
	}
	if got := calls.Load(); got <= 2 || got%2 != 0 {
		t.Fatalf("contract simulated %d times, want several whole rounds of two endorsers", got)
	}
}
