package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cryptoutil"
	"repro/internal/wire"
)

// TestSessionedECDHAmortizedAcrossQueries is the amortization claim end to
// end: distinct cold queries from one persistent client agree ECDH once
// per (attestor, requester) pair — plus once for the result envelope's
// dedicated manager — and every later query seals under cached secrets.
// Classic ECIES would pay (attestors+1) fresh agreements per query.
func TestSessionedECDHAmortizedAcrossQueries(t *testing.T) {
	const queries = 4
	w := buildWorld(t)
	for i := 0; i < queries; i++ {
		if _, err := w.srcAdmin.Submit("sourceCC", "Put", []byte(fmt.Sprintf("bl-amort-%d", i)), []byte("doc")); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	client, err := NewClient(w.dest, "seller-bank-org", "persistent-poller")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	for i := 0; i < queries; i++ {
		if _, err := client.RemoteQuery(context.Background(), RemoteQuerySpec{
			Network: "source-net", Contract: "sourceCC", Function: "Get",
			Args: [][]byte{[]byte(fmt.Sprintf("bl-amort-%d", i))},
		}); err != nil {
			t.Fatalf("RemoteQuery %d: %v", i, err)
		}
	}
	ecdh, sign, encrypt := w.source.Driver.CryptoOps()
	// 2 attestor managers + 1 result manager, one agreement each for the
	// single requester label; warm thereafter.
	if ecdh != 3 {
		t.Fatalf("ECDH agreements across %d sessioned queries = %d, want 3", queries, ecdh)
	}
	// Signatures stay per-query per-attestor (batching not armed here), and
	// every envelope still pays its AEAD seal.
	if sign != queries*2 {
		t.Fatalf("signatures = %d, want %d", sign, queries*2)
	}
	if encrypt != queries*3 {
		t.Fatalf("envelope seals = %d, want %d", encrypt, queries*3)
	}
}

// TestSessionedWarmClientOpensWithoutAgreements is the requester half of
// the amortization: every envelope of a sessioned response carries its
// manager's session point, so once a client has opened one response, a
// second 2-attestor response (result + two metadata envelopes) opens with
// zero requester-side ECDH agreements.
func TestSessionedWarmClientOpensWithoutAgreements(t *testing.T) {
	w := buildWorld(t)
	for _, id := range []string{"bl-open-1", "bl-open-2"} {
		if _, err := w.srcAdmin.Submit("sourceCC", "Put", []byte(id), []byte("doc")); err != nil {
			t.Fatalf("Put %s: %v", id, err)
		}
	}
	client, err := NewClient(w.dest, "seller-bank-org", "warm-opener")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	query := func(id string) *RemoteData {
		t.Helper()
		data, err := client.RemoteQuery(context.Background(), RemoteQuerySpec{
			Network: "source-net", Contract: "sourceCC", Function: "Get",
			Args: [][]byte{[]byte(id)},
		})
		if err != nil {
			t.Fatalf("RemoteQuery %s: %v", id, err)
		}
		return data
	}
	before := cryptoutil.SessionOpenAgreements()
	query("bl-open-1")
	if cold := cryptoutil.SessionOpenAgreements() - before; cold != 3 {
		t.Fatalf("cold client ran %d agreements, want 3 (one per session point)", cold)
	}
	before = cryptoutil.SessionOpenAgreements()
	data := query("bl-open-2")
	if n := len(data.Bundle.Elements); n != 2 {
		t.Fatalf("response carries %d attestations, want 2", n)
	}
	if warm := cryptoutil.SessionOpenAgreements() - before; warm != 0 {
		t.Fatalf("warm client ran %d agreements opening a 2-attestor response, want 0", warm)
	}
}

// TestSessionedDisabledForLegacyClients proves the capability gate for
// sessioned ECIES: a query without AcceptSessioned gets classic per-query
// envelopes — the 65-byte uncompressed point prefix in every ciphertext,
// no session wire fields — byte-compatible with pre-session clients, even
// though the driver's session pool is armed (the default).
func TestSessionedDisabledForLegacyClients(t *testing.T) {
	w := buildWorld(t)
	if _, err := w.srcAdmin.Submit("sourceCC", "Put", []byte("bl-classic"), []byte("doc")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	client, err := NewClient(w.dest, "seller-bank-org", "classic-reader")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	data, err := client.RemoteQuery(context.Background(), RemoteQuerySpec{
		Network: "source-net", Contract: "sourceCC", Function: "Get",
		Args: [][]byte{[]byte("bl-classic")},
	})
	if err != nil {
		t.Fatalf("RemoteQuery: %v", err)
	}

	// Replay the identical question without the capability bit, as an older
	// client library would send it.
	legacy := *data.Query
	legacy.AcceptSessioned = false
	legacy.Nonce = append([]byte(nil), data.Query.Nonce...)
	resp, err := w.source.Driver.Query(context.Background(), &legacy)
	if err != nil {
		t.Fatalf("legacy Query: %v", err)
	}
	classic := func(name string, envelope []byte) {
		t.Helper()
		// Classic layout: uncompressed P-256 point || GCM nonce || ct.
		if len(envelope) < 65+12 || envelope[0] != 0x04 {
			t.Fatalf("%s is not a classic ECIES envelope (len=%d)", name, len(envelope))
		}
	}
	if len(resp.SessionEphemeral) != 0 || resp.SessionGeneration != 0 {
		t.Fatal("legacy response carries session fields")
	}
	classic("result", resp.EncryptedResult)
	for i, att := range resp.Attestations {
		if len(att.SessionEphemeral) != 0 || att.SessionGeneration != 0 {
			t.Fatalf("legacy attestation %d carries session fields", i)
		}
		classic(fmt.Sprintf("attestation %d metadata", i), att.EncryptedMetadata)
	}
}

// TestSessionedCertRotationFreshAgreement drives certificate rotation
// through the driver: the session label is the requester certificate
// digest, so the same human behind a renewed certificate gets a fresh
// ECDH agreement instead of a secret silently reused across identities.
func TestSessionedCertRotationFreshAgreement(t *testing.T) {
	w := buildWorld(t)
	if _, err := w.srcAdmin.Submit("sourceCC", "Put", []byte("bl-rotate"), []byte("doc")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	query := func(clientName string) {
		t.Helper()
		client, err := NewClient(w.dest, "seller-bank-org", clientName)
		if err != nil {
			t.Fatalf("NewClient %s: %v", clientName, err)
		}
		if _, err := client.RemoteQuery(context.Background(), RemoteQuerySpec{
			Network: "source-net", Contract: "sourceCC", Function: "Get",
			Args:      [][]byte{[]byte("bl-rotate")},
			RequestID: "rotation-probe-" + clientName,
		}); err != nil {
			t.Fatalf("RemoteQuery %s: %v", clientName, err)
		}
	}
	query("pre-rotation")
	before, _, _ := w.source.Driver.CryptoOps()
	// A distinct certificate for the same org member: new label, and the
	// driver must agree afresh for every manager that seals to it.
	query("post-rotation")
	after, _, _ := w.source.Driver.CryptoOps()
	if after-before != 3 {
		t.Fatalf("rotated certificate triggered %d fresh ECDH agreements, want 3", after-before)
	}
}

// Interface holds: a *wire.Query round-trips AcceptSessioned.
func TestQuerySessionedCapabilityRoundTrip(t *testing.T) {
	q := &wire.Query{RequestingNetwork: "n", Contract: "c", Function: "f",
		Nonce: make([]byte, 16), AcceptSessioned: true}
	rt, err := wire.UnmarshalQuery(q.Marshal())
	if err != nil {
		t.Fatalf("UnmarshalQuery: %v", err)
	}
	if !rt.AcceptSessioned {
		t.Fatal("AcceptSessioned lost in the wire round trip")
	}
}
