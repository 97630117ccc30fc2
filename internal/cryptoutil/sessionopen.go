package cryptoutil

import (
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/sha256"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// openSecretCap bounds the requester-side memo of session secrets. It is
// fixed, not tuned: a requester holds one entry per (own key, source
// session point) — a few per source relay per generation — so the cap only
// bounds what a peer handing out endless distinct session points can make
// it hold. A full table evicts an arbitrary entry.
const openSecretCap = 256

// openSecretTag domain-separates memo keys from every other digest taken
// over key material.
var openSecretTag = []byte("interop-ecies-session-open-v1\x00")

// sessionNow is the clock memo entries are aged against. Tests swap it.
var sessionNow = time.Now

type openSecret struct {
	secret []byte
	born   time.Time
}

// openSecrets memoizes the ECDH agreements SessionDecrypt runs. Every
// envelope of a sessioned response carries the same session point, so
// without it a requester would repeat one scalar multiplication per
// envelope. Entries are keyed by a digest of the recipient's private
// scalar and the exact point bytes: the agreement depends on the scalar
// alone, so keying by the public key would hand a key whose PublicKey
// field was copied from another client that client's secret. Only
// successful agreements are stored, and an entry is used for at most
// DefaultSessionTTL after it was agreed, so a requester holds a secret no
// longer than a default source does; expired entries are dropped on the
// next agreement, the same lazy rule SessionManager applies on rotation.
var openSecrets = struct {
	sync.Mutex
	m map[[sha256.Size]byte]openSecret
}{m: make(map[[sha256.Size]byte]openSecret)}

var openAgreements atomic.Uint64

// SessionOpenAgreements reports how many ECDH agreements SessionDecrypt
// has run in this process: the requester-side counterpart of OpCounter's
// ECDH count. It stays flat while a warm requester opens envelopes under
// session points it has already agreed with.
func SessionOpenAgreements() uint64 {
	return openAgreements.Load()
}

// sessionSecret returns the ECDH secret between priv and the session
// point ephemeral, running the agreement only when no live memo entry
// holds it. Session envelopes are P-256 only, and the scalar must be in
// range before it can key the memo (FillBytes drops a sign).
func sessionSecret(priv *ecdsa.PrivateKey, ephemeral []byte) ([]byte, error) {
	if priv.Curve != elliptic.P256() || priv.D == nil || priv.D.Sign() <= 0 || priv.D.BitLen() > 256 {
		return nil, fmt.Errorf("%w: session envelopes need a P-256 private key", ErrInvalidKey)
	}
	h := sha256.New()
	h.Write(openSecretTag)
	h.Write(priv.D.FillBytes(make([]byte, 32)))
	h.Write(ephemeral)
	var key [sha256.Size]byte
	h.Sum(key[:0])

	now := sessionNow()
	openSecrets.Lock()
	e, ok := openSecrets.m[key]
	openSecrets.Unlock()
	if ok && now.Sub(e.born) < DefaultSessionTTL {
		return e.secret, nil
	}

	recipient, err := priv.ECDH()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidKey, err)
	}
	point, err := ecdh.P256().NewPublicKey(ephemeral)
	if err != nil {
		return nil, fmt.Errorf("%w: bad session ephemeral point", ErrDecrypt)
	}
	secret, err := recipient.ECDH(point)
	if err != nil {
		return nil, fmt.Errorf("%w: session ecdh agreement", ErrDecrypt)
	}
	openAgreements.Add(1)

	openSecrets.Lock()
	defer openSecrets.Unlock()
	for k, old := range openSecrets.m {
		if now.Sub(old.born) >= DefaultSessionTTL {
			delete(openSecrets.m, k)
		}
	}
	if _, ok := openSecrets.m[key]; !ok && len(openSecrets.m) >= openSecretCap {
		for k := range openSecrets.m {
			delete(openSecrets.m, k) // Go randomizes map order: an arbitrary victim
			break
		}
	}
	openSecrets.m[key] = openSecret{secret: secret, born: now}
	return secret, nil
}
