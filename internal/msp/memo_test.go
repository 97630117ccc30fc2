package msp

import (
	"crypto/rand"
	"crypto/sha256"
	"crypto/x509"
	"crypto/x509/pkix"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"testing"
	"time"
)

// caWithValidity is a CA whose root is valid from notBefore to notAfter.
func caWithValidity(t *testing.T, orgID string, notBefore, notAfter time.Time) *CA {
	t.Helper()
	ca, err := NewCA(orgID)
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: orgID + "-ca", Organization: []string{orgID}},
		NotBefore:             notBefore,
		NotAfter:              notAfter,
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageDigitalSignature,
		BasicConstraintsValid: true,
		IsCA:                  true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &ca.key.PublicKey, ca.key)
	if err != nil {
		t.Fatalf("self-sign root: %v", err)
	}
	if ca.cert, err = x509.ParseCertificate(der); err != nil {
		t.Fatalf("parse root: %v", err)
	}
	return ca
}

func verdictFor(v *Verifier, cert *x509.Certificate) (verdict, bool) {
	return v.verdicts.get(sha256.Sum256(cert.Raw))
}

func TestVerifierCachedVerdictExpires(t *testing.T) {
	ca, _ := NewCA("org")
	id, _ := ca.Issue("peer0", RolePeer)
	v, _ := NewVerifier(map[string][]byte{"org": ca.RootCertPEM()})
	if _, err := v.Verify(id.Cert); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if _, ok := verdictFor(v, id.Cert); !ok {
		t.Fatal("successful verification left no verdict")
	}

	restore := setClock(id.Cert.NotAfter.Add(-time.Second))
	if _, err := v.Verify(id.Cert); err != nil {
		t.Fatalf("Verify inside the window: %v", err)
	}
	restore()
	restore = setClock(id.Cert.NotAfter.Add(time.Second))
	defer restore()
	for i := 0; i < 2; i++ {
		if _, err := v.Verify(id.Cert); !errors.Is(err, ErrExpired) {
			t.Fatalf("Verify after NotAfter, call %d: err = %v, want ErrExpired", i, err)
		}
	}
}

func TestVerifierRootExpiryNarrowsWindow(t *testing.T) {
	start := time.Now().Add(-time.Hour)
	rootEnd := time.Now().Add(time.Hour).Truncate(time.Second)
	ca := caWithValidity(t, "org", start, rootEnd)
	id, _ := ca.Issue("peer0", RolePeer) // valid for five years
	v, _ := NewVerifier(map[string][]byte{"org": ca.RootCertPEM()})
	if _, err := v.Verify(id.Cert); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	e, ok := verdictFor(v, id.Cert)
	if !ok {
		t.Fatal("no verdict cached")
	}
	if !e.notAfter.Equal(rootEnd) || !e.notBefore.Equal(id.Cert.NotBefore) {
		t.Fatalf("window = [%v, %v], want [%v, %v]", e.notBefore, e.notAfter, id.Cert.NotBefore, rootEnd)
	}

	restore := setClock(rootEnd.Add(time.Second))
	defer restore()
	if _, err := v.Verify(id.Cert); err == nil {
		t.Fatal("Verify accepted a leaf whose root has expired")
	}
}

func TestVerifierUnknownIssuerNeverCached(t *testing.T) {
	trusted, _ := NewCA("org-a")
	rogue, _ := NewCA("org-a")
	id, _ := rogue.Issue("peer0", RolePeer)
	v, _ := NewVerifier(map[string][]byte{"org-a": trusted.RootCertPEM()})
	for i := 0; i < 3; i++ {
		if _, err := v.Verify(id.Cert); !errors.Is(err, ErrUnknownIssuer) {
			t.Fatalf("call %d: err = %v, want ErrUnknownIssuer", i, err)
		}
	}
	if n := v.verdicts.len(); n != 0 {
		t.Fatalf("%d verdicts cached after failures only", n)
	}
}

func TestVerifierSharedPerRootSet(t *testing.T) {
	cas := make([]*CA, 5)
	for i := range cas {
		cas[i], _ = NewCA(fmt.Sprintf("org-%d", i))
	}
	forward := make(map[string][]byte)
	for _, ca := range cas {
		forward[ca.OrgID()] = ca.RootCertPEM()
	}
	backward := make(map[string][]byte)
	for i := len(cas) - 1; i >= 0; i-- {
		backward[cas[i].OrgID()] = append([]byte(nil), cas[i].RootCertPEM()...)
	}
	v1, err := NewVerifier(forward)
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	for i := 0; i < 10; i++ {
		v2, err := NewVerifier(backward)
		if err != nil {
			t.Fatalf("NewVerifier: %v", err)
		}
		if v1 != v2 {
			t.Fatal("the same root set built two verifiers")
		}
	}

	// The same roots under other organization IDs are a different set.
	paired, _ := NewVerifier(map[string][]byte{"org-0": forward["org-0"], "org-1": forward["org-1"]})
	swapped, _ := NewVerifier(map[string][]byte{"org-0": forward["org-1"], "org-1": forward["org-0"]})
	renamed, _ := NewVerifier(map[string][]byte{"org-x": forward["org-0"], "org-y": forward["org-1"]})
	if swapped == paired || renamed == paired {
		t.Fatal("the same roots under other organization IDs share a verifier")
	}
}

func TestVerifierRootSetChangeInvalidates(t *testing.T) {
	caA, _ := NewCA("org-a")
	caB, _ := NewCA("org-b")
	idB, _ := caB.Issue("peerB", RolePeer)
	both, _ := NewVerifier(map[string][]byte{"org-a": caA.RootCertPEM(), "org-b": caB.RootCertPEM()})
	if _, err := both.Verify(idB.Cert); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if _, ok := verdictFor(both, idB.Cert); !ok {
		t.Fatal("no verdict cached")
	}

	onlyA, _ := NewVerifier(map[string][]byte{"org-a": caA.RootCertPEM()})
	if onlyA == both {
		t.Fatal("removing an org returned the old verifier")
	}
	if _, err := onlyA.Verify(idB.Cert); !errors.Is(err, ErrUnknownIssuer) {
		t.Fatalf("removed org's cert: err = %v, want ErrUnknownIssuer", err)
	}
	if _, err := both.Verify(idB.Cert); err != nil {
		t.Fatalf("the old root set no longer verifies: %v", err)
	}
}

func TestVerifierTablesBounded(t *testing.T) {
	ca, _ := NewCA("org")
	v, _ := NewVerifier(map[string][]byte{"org": ca.RootCertPEM()})
	first, _ := ca.Issue("peer", RolePeer)
	n := max(verdictCap, parsedCertCap) + 10
	for i := 0; i < n; i++ {
		cert := first.Cert
		if i > 0 {
			var err error
			if cert, err = ca.IssueForKey("peer", RolePeer, first.PublicKey()); err != nil {
				t.Fatalf("IssueForKey: %v", err)
			}
		}
		if _, err := v.VerifyPEM((&Identity{Cert: cert}).CertPEM()); err != nil {
			t.Fatalf("VerifyPEM: %v", err)
		}
		if got := v.verdicts.len(); got > verdictCap {
			t.Fatalf("%d verdicts, cap %d", got, verdictCap)
		}
		if got := parsedCerts.len(); got > parsedCertCap {
			t.Fatalf("%d parsed certificates, cap %d", got, parsedCertCap)
		}
	}
	for i := 0; i < verifierCap+10; i++ {
		if _, err := NewVerifier(map[string][]byte{fmt.Sprintf("org-%d", i): ca.RootCertPEM()}); err != nil {
			t.Fatalf("NewVerifier: %v", err)
		}
		if got := verifiers.len(); got > verifierCap {
			t.Fatalf("%d verifiers, cap %d", got, verifierCap)
		}
	}
	// Evicted or not, the first certificate still verifies.
	if _, err := v.Verify(first.Cert); err != nil {
		t.Fatalf("Verify after eviction: %v", err)
	}
}

func TestVerifierConcurrentUse(t *testing.T) {
	resetMemos()
	cas := make([]*CA, 3)
	ids := make([]*Identity, 0, 12)
	for i := range cas {
		cas[i], _ = NewCA(fmt.Sprintf("org-%d", i))
		for j := 0; j < 4; j++ {
			id, _ := cas[i].Issue(fmt.Sprintf("peer%d", j), RolePeer)
			ids = append(ids, id)
		}
	}
	roots := func(k int) map[string][]byte {
		m := make(map[string][]byte)
		for i := 0; i <= k; i++ {
			m[cas[i].OrgID()] = cas[i].RootCertPEM()
		}
		return m
	}
	want := make([]*Verifier, len(cas))
	for k := range cas {
		want[k], _ = NewVerifier(roots(k))
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (g + i) % len(cas)
				v, err := NewVerifier(roots(k))
				if err != nil || v != want[k] {
					t.Errorf("NewVerifier(root set %d) = %p, %v; want %p", k, v, err, want[k])
					return
				}
				id := ids[(g*7+i)%len(ids)]
				cert, err := ParseCertPEM(id.CertPEM())
				if err != nil {
					t.Errorf("ParseCertPEM: %v", err)
					return
				}
				info, err := v.Verify(cert)
				// Root set k trusts orgs 0..k; the cert's org index is its
				// position in ids divided by four.
				if trusted := (g*7+i)%len(ids)/4 <= k; trusted != (err == nil) {
					t.Errorf("Verify(%s/%s) under root set %d: err = %v", id.OrgID, id.Name, k, err)
					return
				}
				if err == nil && info.OrgID != id.OrgID {
					t.Errorf("Verify = %+v, want org %s", info, id.OrgID)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestParseCertPEMMemoized(t *testing.T) {
	ca, _ := NewCA("org")
	id, _ := ca.Issue("peer0", RolePeer)
	pemBytes := id.CertPEM()
	c1, err := ParseCertPEM(pemBytes)
	if err != nil {
		t.Fatalf("ParseCertPEM: %v", err)
	}
	c2, err := ParseCertPEM(append([]byte(nil), pemBytes...))
	if err != nil {
		t.Fatalf("ParseCertPEM: %v", err)
	}
	if c1 != c2 || !c1.Equal(id.Cert) {
		t.Fatal("the same PEM bytes parsed to distinct certificates")
	}
	bad := []byte("-----BEGIN CERTIFICATE-----\naGk=\n-----END CERTIFICATE-----\n")
	before := parsedCerts.len()
	for i := 0; i < 2; i++ {
		if _, err := ParseCertPEM(bad); err == nil {
			t.Fatal("ParseCertPEM accepted a malformed certificate")
		}
	}
	if parsedCerts.len() != before {
		t.Fatal("a failed parse was cached")
	}
}

func TestMemoEvictsAtCap(t *testing.T) {
	m := newMemo[int, int](4)
	for i := 0; i < 20; i++ {
		m.put(i, i)
		if got := m.putIfAbsent(i, -1); got != i {
			t.Fatalf("putIfAbsent replaced %d with %d", i, got)
		}
		if m.len() > 4 {
			t.Fatalf("len %d over cap 4", m.len())
		}
		if v, ok := m.get(i); !ok || v != i {
			t.Fatalf("get(%d) = %d, %v right after put", i, v, ok)
		}
	}
}
