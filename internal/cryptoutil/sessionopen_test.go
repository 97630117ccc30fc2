package cryptoutil

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"testing"
	"time"
)

// sealTo seals plaintext under context for key through m and returns the
// session key and the envelope.
func sealTo(t testing.TB, m *SessionManager, key *ecdsa.PrivateKey, context, plaintext []byte) (*SessionKey, []byte) {
	t.Helper()
	sk, err := m.KeyFor(fmt.Sprintf("%x", key.PublicKey.X.Bytes()), &key.PublicKey)
	if err != nil {
		t.Fatalf("KeyFor: %v", err)
	}
	env, err := sk.Seal(context, plaintext)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	return sk, env
}

// TestSessionOpenWarmMatchesCold: the first open under a session point
// agrees once, every further open under it agrees zero times and returns
// the same plaintext a cold open would.
func TestSessionOpenWarmMatchesCold(t *testing.T) {
	resetOpenSecrets()
	key, _ := GenerateKey()
	m := NewSessionManager(time.Minute, nil)
	sk, env := sealTo(t, m, key, []byte("qd-1"), []byte("result one"))

	before := SessionOpenAgreements()
	cold, err := SessionDecrypt(key, sk.Ephemeral, sk.Generation, []byte("qd-1"), env)
	if err != nil || string(cold) != "result one" {
		t.Fatalf("cold open: %q, %v", cold, err)
	}
	for i := 0; i < 5; i++ {
		ctx := []byte(fmt.Sprintf("qd-warm-%d", i))
		_, env := sealTo(t, m, key, ctx, []byte("result one"))
		warm, err := SessionDecrypt(key, sk.Ephemeral, sk.Generation, ctx, env)
		if err != nil || !bytes.Equal(warm, cold) {
			t.Fatalf("warm open %d: %q, %v; cold gave %q", i, warm, err, cold)
		}
	}
	if got := SessionOpenAgreements() - before; got != 1 {
		t.Fatalf("agreements for 6 opens under one session point = %d, want 1", got)
	}
}

// TestSessionOpenWarmHitStillAuthenticates: a memo hit skips only the
// scalar multiplication; HKDF still binds the generation and context and
// GCM still authenticates the ciphertext.
func TestSessionOpenWarmHitStillAuthenticates(t *testing.T) {
	resetOpenSecrets()
	key, _ := GenerateKey()
	m := NewSessionManager(time.Minute, nil)
	context := []byte("qd-auth")
	sk, env := sealTo(t, m, key, context, []byte("payload"))
	if _, err := SessionDecrypt(key, sk.Ephemeral, sk.Generation, context, env); err != nil {
		t.Fatalf("warming open: %v", err)
	}
	before := SessionOpenAgreements()
	cases := []struct {
		name string
		gen  uint64
		ctx  []byte
		ct   []byte
	}{
		{"flipped byte", sk.Generation, context, flipLast(env)},
		{"wrong generation", sk.Generation + 1, context, env},
		{"wrong context", sk.Generation, []byte("qd-other"), env},
		{"truncated", sk.Generation, context, env[:4]},
	}
	for _, tc := range cases {
		if _, err := SessionDecrypt(key, sk.Ephemeral, tc.gen, tc.ctx, tc.ct); !errors.Is(err, ErrDecrypt) {
			t.Errorf("%s on a warm hit: got %v, want ErrDecrypt", tc.name, err)
		}
	}
	if got := SessionOpenAgreements() - before; got != 0 {
		t.Fatalf("warm failures ran %d agreements, want 0 (they must be hits)", got)
	}
}

// TestSessionOpenKeyedByPrivateScalar: the memo is keyed by the private
// scalar, so a key that copies a warm client's PublicKey field but holds
// another scalar gets no hit and cannot open that client's envelopes.
func TestSessionOpenKeyedByPrivateScalar(t *testing.T) {
	resetOpenSecrets()
	key, _ := GenerateKey()
	other, _ := GenerateKey()
	m := NewSessionManager(time.Minute, nil)
	context := []byte("qd-impostor")
	sk, env := sealTo(t, m, key, context, []byte("for key only"))
	if _, err := SessionDecrypt(key, sk.Ephemeral, sk.Generation, context, env); err != nil {
		t.Fatalf("warming open: %v", err)
	}

	impostor := &ecdsa.PrivateKey{PublicKey: key.PublicKey, D: other.D}
	before := SessionOpenAgreements()
	if _, err := SessionDecrypt(impostor, sk.Ephemeral, sk.Generation, context, env); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("impostor with a copied public key: got %v, want ErrDecrypt", err)
	}
	if got := SessionOpenAgreements() - before; got != 1 {
		t.Fatalf("impostor ran %d agreements, want 1 (no hit on the victim's entry)", got)
	}

	// FillBytes drops the sign, so a negated scalar would share the
	// victim's key bytes; it must be refused before the memo is consulted.
	negated := &ecdsa.PrivateKey{PublicKey: key.PublicKey, D: new(big.Int).Neg(key.D)}
	if _, err := SessionDecrypt(negated, sk.Ephemeral, sk.Generation, context, env); !errors.Is(err, ErrInvalidKey) {
		t.Fatalf("negated scalar: got %v, want ErrInvalidKey", err)
	}
	// The scalar bytes of a non-P-256 key must not reach the memo either.
	p384 := &ecdsa.PrivateKey{PublicKey: ecdsa.PublicKey{Curve: elliptic.P384()}, D: key.D}
	if _, err := SessionDecrypt(p384, sk.Ephemeral, sk.Generation, context, env); !errors.Is(err, ErrInvalidKey) {
		t.Fatalf("P-384 key with a P-256 scalar: got %v, want ErrInvalidKey", err)
	}
}

// TestSessionOpenFailuresNotStored: a bad point fails on every call and
// never adds an entry.
func TestSessionOpenFailuresNotStored(t *testing.T) {
	resetOpenSecrets()
	key, _ := GenerateKey()
	bad := []byte{0x04, 0x01, 0x02}
	for i := 0; i < 3; i++ {
		if _, err := SessionDecrypt(key, bad, 1, []byte("qd"), make([]byte, 40)); !errors.Is(err, ErrDecrypt) {
			t.Fatalf("bad point, call %d: got %v, want ErrDecrypt", i, err)
		}
	}
	if n := openSecretsLen(); n != 0 {
		t.Fatalf("memo holds %d entries after only failures, want 0", n)
	}
}

// TestSessionOpenEntryExpires: an entry agreed DefaultSessionTTL ago is
// agreed afresh, and dropped rather than kept past its TTL.
func TestSessionOpenEntryExpires(t *testing.T) {
	resetOpenSecrets()
	clock := time.Unix(7000, 0)
	restore := setSessionClock(clock)
	defer restore()
	key, _ := GenerateKey()
	m := NewSessionManager(time.Hour, nil)
	context := []byte("qd-ttl")
	sk, env := sealTo(t, m, key, context, []byte("aged"))
	open := func() {
		t.Helper()
		if got, err := SessionDecrypt(key, sk.Ephemeral, sk.Generation, context, env); err != nil || string(got) != "aged" {
			t.Fatalf("open: %q, %v", got, err)
		}
	}

	before := SessionOpenAgreements()
	open()
	setSessionClock(clock.Add(DefaultSessionTTL - time.Nanosecond))
	open()
	if got := SessionOpenAgreements() - before; got != 1 {
		t.Fatalf("agreements inside the TTL = %d, want 1", got)
	}
	setSessionClock(clock.Add(DefaultSessionTTL))
	open()
	if got := SessionOpenAgreements() - before; got != 2 {
		t.Fatalf("agreements once the entry aged out = %d, want 2", got)
	}

	// A later agreement sweeps entries past their TTL.
	other, _ := GenerateKey()
	osk, oenv := sealTo(t, m, other, context, []byte("other"))
	setSessionClock(clock.Add(3 * DefaultSessionTTL))
	if _, err := SessionDecrypt(other, osk.Ephemeral, osk.Generation, context, oenv); err != nil {
		t.Fatalf("other open: %v", err)
	}
	if n := openSecretsLen(); n != 1 {
		t.Fatalf("memo holds %d entries after the sweep, want 1", n)
	}
}

// TestSessionOpenTableCapped: however many distinct session points a
// requester meets, the memo never exceeds its cap.
func TestSessionOpenTableCapped(t *testing.T) {
	resetOpenSecrets()
	key, _ := GenerateKey()
	context := []byte("qd-cap")
	for i := 0; i < openSecretCap+20; i++ {
		sk, env := sealTo(t, NewSessionManager(time.Minute, nil), key, context, []byte{byte(i)})
		got, err := SessionDecrypt(key, sk.Ephemeral, sk.Generation, context, env)
		if err != nil || !bytes.Equal(got, []byte{byte(i)}) {
			t.Fatalf("open %d: %v, %v", i, got, err)
		}
		if n := openSecretsLen(); n > openSecretCap {
			t.Fatalf("memo holds %d entries, cap is %d", n, openSecretCap)
		}
	}
	if n := openSecretsLen(); n != openSecretCap {
		t.Fatalf("memo holds %d entries after overflowing it, want %d", n, openSecretCap)
	}
}

// TestSessionOpenConcurrent opens envelopes from many keys under many
// session points at once; run under -race it is the memo's data-race
// proof, and every open must return its own plaintext.
func TestSessionOpenConcurrent(t *testing.T) {
	resetOpenSecrets()
	const keys, points, rounds = 4, 3, 20
	var reqs [keys]*ecdsa.PrivateKey
	for i := range reqs {
		reqs[i], _ = GenerateKey()
	}
	var mgrs [points]*SessionManager
	for i := range mgrs {
		mgrs[i] = NewSessionManager(time.Minute, nil)
	}
	var wg sync.WaitGroup
	errs := make(chan error, keys*points)
	for k := 0; k < keys; k++ {
		for p := 0; p < points; p++ {
			wg.Add(1)
			go func(k, p int) {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					ctx := []byte(fmt.Sprintf("qd-%d-%d-%d", k, p, i))
					want := []byte{byte(k), byte(p), byte(i)}
					sk, err := mgrs[p].KeyFor(fmt.Sprintf("req-%d", k), &reqs[k].PublicKey)
					if err != nil {
						errs <- err
						return
					}
					env, err := sk.Seal(ctx, want)
					if err != nil {
						errs <- err
						return
					}
					got, err := SessionDecrypt(reqs[k], sk.Ephemeral, sk.Generation, ctx, env)
					if err != nil || !bytes.Equal(got, want) {
						errs <- fmt.Errorf("key %d point %d round %d: %q, %v", k, p, i, got, err)
						return
					}
					// Another requester's key never opens this envelope.
					if _, err := SessionDecrypt(reqs[(k+1)%keys], sk.Ephemeral, sk.Generation, ctx, env); !errors.Is(err, ErrDecrypt) {
						errs <- fmt.Errorf("key %d opened key %d's envelope: %v", (k+1)%keys, k, err)
						return
					}
				}
			}(k, p)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
