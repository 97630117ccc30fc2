package msp

import (
	"crypto/ecdsa"
	"crypto/sha256"
	"crypto/x509"
	"encoding/binary"
	"encoding/pem"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/cryptoutil"
)

// Identity is a key pair plus the certificate binding it to an organization
// member. Peers hold identities to sign attestations; clients hold them to
// authenticate cross-network queries.
type Identity struct {
	Name  string
	OrgID string
	Role  Role
	Cert  *x509.Certificate
	Key   *ecdsa.PrivateKey
}

// CertPEM returns the PEM encoding of the identity's certificate, the form
// carried in wire messages so remote networks can authenticate the holder.
func (id *Identity) CertPEM() []byte {
	return pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: id.Cert.Raw})
}

// Sign signs msg with the identity's private key.
func (id *Identity) Sign(msg []byte) ([]byte, error) {
	return cryptoutil.Sign(id.Key, msg)
}

// PublicKey returns the identity's public key.
func (id *Identity) PublicKey() *ecdsa.PublicKey {
	return &id.Key.PublicKey
}

// parsedCerts memoizes ParseCertPEM, keyed by the SHA-256 of the PEM bytes.
var parsedCerts = newMemo[[sha256.Size]byte, *x509.Certificate](parsedCertCap)

// ParseCertPEM decodes a PEM certificate as produced by CertPEM or
// CA.RootCertPEM. Parses are memoized, so the same bytes return the same
// certificate: callers must treat it as read-only.
func ParseCertPEM(pemBytes []byte) (*x509.Certificate, error) {
	key := sha256.Sum256(pemBytes)
	if cert, ok := parsedCerts.get(key); ok {
		return cert, nil
	}
	block, _ := pem.Decode(pemBytes)
	if block == nil || block.Type != "CERTIFICATE" {
		return nil, errors.New("msp: no CERTIFICATE block in PEM input")
	}
	cert, err := x509.ParseCertificate(block.Bytes)
	if err != nil {
		return nil, fmt.Errorf("msp: parse certificate: %w", err)
	}
	return parsedCerts.putIfAbsent(key, cert), nil
}

// CertInfo is the identity information extracted from a verified
// certificate.
type CertInfo struct {
	Name  string
	OrgID string
	Role  Role
}

// Verifier authenticates certificates against a set of organization root
// certificates. A destination network constructs a Verifier from the source
// network's recorded configuration to validate proof signers (§3.3, §4.3).
//
// A Verifier never changes its roots, so it memoizes each certificate's
// successful chain verification together with the window in which that
// chain is valid. A changed root set is a different Verifier with no
// verdicts, which is how membership changes invalidate the memo.
type Verifier struct {
	pool     *x509.CertPool
	roots    map[string]*x509.Certificate // orgID -> root
	verdicts *memo[[sha256.Size]byte, verdict]
}

// verdict is a memoized chain verification: the certificate's identity and
// the span in which every certificate of its verified chain is valid.
type verdict struct {
	info                CertInfo
	notBefore, notAfter time.Time
}

func (e verdict) validAt(t time.Time) bool {
	return !t.Before(e.notBefore) && !t.After(e.notAfter)
}

// now is the clock validity windows are checked against.
var now = time.Now

// verifiers shares one Verifier per root set, keyed by rootSetKey.
var verifiers = newMemo[[sha256.Size]byte, *Verifier](verifierCap)

// NewVerifier returns the Verifier for PEM root certificates keyed by
// organization ID. Calls with the same roots share one Verifier, and with it
// its memoized verdicts.
func NewVerifier(rootsPEM map[string][]byte) (*Verifier, error) {
	orgIDs := make([]string, 0, len(rootsPEM))
	for orgID := range rootsPEM {
		orgIDs = append(orgIDs, orgID)
	}
	sort.Strings(orgIDs)
	key := rootSetKey(orgIDs, rootsPEM)
	if v, ok := verifiers.get(key); ok {
		return v, nil
	}
	v := &Verifier{
		pool:     x509.NewCertPool(),
		roots:    make(map[string]*x509.Certificate, len(rootsPEM)),
		verdicts: newMemo[[sha256.Size]byte, verdict](verdictCap),
	}
	for _, orgID := range orgIDs {
		cert, err := ParseCertPEM(rootsPEM[orgID])
		if err != nil {
			return nil, fmt.Errorf("msp: root for org %q: %w", orgID, err)
		}
		v.pool.AddCert(cert)
		v.roots[orgID] = cert
	}
	return verifiers.putIfAbsent(key, v), nil
}

// rootSetKey digests the (orgID, root PEM) pairs in orgIDs order, each field
// length-prefixed so no two distinct root sets share an encoding.
func rootSetKey(orgIDs []string, rootsPEM map[string][]byte) [sha256.Size]byte {
	h := sha256.New()
	var n [8]byte
	field := func(b []byte) {
		binary.BigEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	for _, orgID := range orgIDs {
		field([]byte(orgID))
		field(rootsPEM[orgID])
	}
	var key [sha256.Size]byte
	h.Sum(key[:0])
	return key
}

// Orgs returns the organization IDs this verifier knows about.
func (v *Verifier) Orgs() []string {
	orgs := make([]string, 0, len(v.roots))
	for orgID := range v.roots {
		orgs = append(orgs, orgID)
	}
	return orgs
}

// Verify checks that cert chains to one of the known organization roots and
// is currently valid, returning the certified name, organization and role.
func (v *Verifier) Verify(cert *x509.Certificate) (CertInfo, error) {
	info, err := v.verifyChain(cert)
	if err != nil {
		return CertInfo{}, err
	}
	if _, known := v.roots[info.OrgID]; !known {
		return CertInfo{}, fmt.Errorf("%w: org %q has no recorded root", ErrUnknownIssuer, info.OrgID)
	}
	return info, nil
}

// verifyChain verifies cert's chain to the roots at the current time. A
// memoized verdict answers while the time is inside its window; outside it,
// or on a miss, the chain is verified afresh and only a success is stored.
func (v *Verifier) verifyChain(cert *x509.Certificate) (CertInfo, error) {
	t := now()
	key := sha256.Sum256(cert.Raw)
	if e, ok := v.verdicts.get(key); ok && e.validAt(t) {
		return e.info, nil
	}
	chains, err := cert.Verify(x509.VerifyOptions{
		Roots:       v.pool,
		CurrentTime: t,
		KeyUsages:   []x509.ExtKeyUsage{x509.ExtKeyUsageAny},
	})
	if err != nil {
		var certErr x509.CertificateInvalidError
		if errors.As(err, &certErr) && certErr.Reason == x509.Expired {
			return CertInfo{}, ErrExpired
		}
		return CertInfo{}, fmt.Errorf("%w: %v", ErrUnknownIssuer, err)
	}
	e := verdict{info: certInfo(cert), notBefore: cert.NotBefore, notAfter: cert.NotAfter}
	for _, c := range chains[0] {
		if c.NotBefore.After(e.notBefore) {
			e.notBefore = c.NotBefore
		}
		if c.NotAfter.Before(e.notAfter) {
			e.notAfter = c.NotAfter
		}
	}
	v.verdicts.put(key, e)
	return e.info, nil
}

// certInfo reads the certified name, organization and role from the subject.
func certInfo(cert *x509.Certificate) CertInfo {
	info := CertInfo{Name: cert.Subject.CommonName}
	if len(cert.Subject.Organization) > 0 {
		info.OrgID = cert.Subject.Organization[0]
	}
	if len(cert.Subject.OrganizationalUnit) > 0 {
		role, err := ParseRole(cert.Subject.OrganizationalUnit[0])
		if err == nil {
			info.Role = role
		}
	}
	return info
}

// VerifyPEM is Verify over a PEM-encoded certificate.
func (v *Verifier) VerifyPEM(pemBytes []byte) (CertInfo, error) {
	cert, err := ParseCertPEM(pemBytes)
	if err != nil {
		return CertInfo{}, err
	}
	return v.Verify(cert)
}
