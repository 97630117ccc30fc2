package relay

import (
	"sync"
	"time"
)

// LeaseRegistrar is the lease-based membership contract of discovery
// registries: a relay announces its address under a TTL and renews it on a
// heartbeat; an entry whose lease lapses stops being resolved, so a relay
// that died without deregistering ages out of discovery instead of being
// tried forever. A zero TTL grants a permanent entry (operator-managed
// registries). Registration is idempotent per (network, address):
// re-announcing refreshes the lease instead of appending a duplicate.
type LeaseRegistrar interface {
	RegisterLease(networkID, addr string, ttl time.Duration) error
	Deregister(networkID, addr string) error
}

// SharedHealth is one relay's published observation of a peer address's
// health, stored alongside the address's registry entry and piggybacked on
// lease renewal. A relay that restarts loses its in-memory health tracker;
// seeding it from these records lets the fresh process order addresses by
// what the fleet already learned — and keep avoiding a circuit-open peer —
// instead of re-discovering every dead relay the hard way.
type SharedHealth struct {
	// ConsecFailures is the observer's count of consecutive transport
	// failures against the address.
	ConsecFailures int `json:"consec_failures,omitempty"`
	// EWMALatencyNanos is the observer's smoothed round-trip estimate.
	EWMALatencyNanos int64 `json:"ewma_latency_nanos,omitempty"`
	// OpenUntilUnixNano is the observer's circuit-breaker cooldown expiry
	// for the address, zero when the breaker is closed. Absolute — kept for
	// readers of the older encoding; see CooldownRemainingNanos.
	OpenUntilUnixNano int64 `json:"open_until_unix_nano,omitempty"`
	// CooldownRemainingNanos is the same cooldown encoded relative: how
	// much demotion remained at the instant the record was published
	// (TimeoutNanos-style), zero when the breaker is closed or the record
	// was published by an older relay. Publishers stamp both fields;
	// readers take the laxer interpretation — the *earlier* expiry — so
	// under clock skew an address is never demoted longer than either
	// encoding supports. (For deadlines lax means serving longer; for a
	// demotion it means banishing a possibly-recovered relay *less*.) This
	// removes the NTP-class skew assumption the absolute encoding carried.
	CooldownRemainingNanos int64 `json:"cooldown_remaining_nanos,omitempty"`
	// ObservedUnixNano stamps when the observation was taken; fresher
	// records replace staler ones when several relays publish.
	ObservedUnixNano int64 `json:"observed_unix_nano,omitempty"`
}

// CooldownExpiry resolves the record's circuit-breaker cooldown to an
// expiry instant on the reader's clock now, taking the laxer (earlier)
// interpretation when both encodings are present. The zero time means the
// breaker is closed or every encoding has already expired.
func (h SharedHealth) CooldownExpiry(now time.Time) time.Time {
	var expiry time.Time
	if h.OpenUntilUnixNano != 0 {
		expiry = time.Unix(0, h.OpenUntilUnixNano)
	}
	if h.CooldownRemainingNanos > 0 {
		rel := now.Add(time.Duration(h.CooldownRemainingNanos))
		if expiry.IsZero() || rel.Before(expiry) {
			expiry = rel
		}
	}
	if expiry.IsZero() || !expiry.After(now) {
		return time.Time{}
	}
	return expiry
}

// HealthPublisher is the registry extension for sharing health: a relay
// publishes its per-address observations (keyed by address) and the
// registry attaches each record to the matching registered entries, in
// whatever network they appear under. Addresses with no registry entry are
// ignored — health rides on membership, it does not create it.
type HealthPublisher interface {
	PublishHealth(byAddr map[string]SharedHealth) error
}

// HealthSource is the read side: the freshest published health record per
// registered address, for seeding a new relay's tracker.
type HealthSource interface {
	HealthRecords() (map[string]SharedHealth, error)
}

// leaseEntry is one registered address with its lease expiry; a zero expiry
// means the entry is permanent. health carries the freshest published
// SharedHealth observation for the address, nil when none was published.
type leaseEntry struct {
	addr    string
	expires time.Time
	health  *SharedHealth
}

// live reports whether the entry's lease is still valid at now.
func (e leaseEntry) live(now time.Time) bool {
	return e.expires.IsZero() || e.expires.After(now)
}

// upsertLease registers addr in a lease list, deduplicating by address:
// an existing entry has its expiry refreshed in place (keeping its
// preference position and any published health record), otherwise the
// entry is appended.
func upsertLease(entries []leaseEntry, addr string, expires time.Time) []leaseEntry {
	for i := range entries {
		if entries[i].addr == addr {
			entries[i].expires = expires
			return entries
		}
	}
	return append(entries, leaseEntry{addr: addr, expires: expires})
}

// applyHealth attaches published health records to the matching entries of
// a lease list, keeping whichever record is fresher per address.
func applyHealth(entries []leaseEntry, byAddr map[string]SharedHealth) {
	for i := range entries {
		rec, ok := byAddr[entries[i].addr]
		if !ok {
			continue
		}
		if cur := entries[i].health; cur != nil && rec.ObservedUnixNano < cur.ObservedUnixNano {
			continue
		}
		copied := rec
		entries[i].health = &copied
	}
}

// collectHealth gathers the freshest health record per address across every
// network's lease list.
func collectHealth(entries map[string][]leaseEntry) map[string]SharedHealth {
	out := make(map[string]SharedHealth)
	for _, list := range entries {
		for _, e := range list {
			if e.health == nil {
				continue
			}
			if cur, ok := out[e.addr]; !ok || e.health.ObservedUnixNano >= cur.ObservedUnixNano {
				out[e.addr] = *e.health
			}
		}
	}
	return out
}

// removeLease deletes addr from a lease list, preserving order.
func removeLease(entries []leaseEntry, addr string) ([]leaseEntry, bool) {
	for i := range entries {
		if entries[i].addr == addr {
			return append(entries[:i], entries[i+1:]...), true
		}
	}
	return entries, false
}

// liveAddrs filters a lease list down to the addresses whose lease is still
// valid at now, in registration order.
func liveAddrs(entries []leaseEntry, now time.Time) []string {
	addrs := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.live(now) {
			addrs = append(addrs, e.addr)
		}
	}
	return addrs
}

// Announce registers addr for networkID under a TTL lease and keeps the
// lease alive by re-announcing on a heartbeat (a third of the TTL, so two
// consecutive renewals can fail before the lease lapses). The returned stop
// function halts the heartbeat and deregisters the address — the clean
// shutdown path for a relay daemon. Renewal errors are retried at the next
// tick and reported through onRenewError (nil to ignore); a registry that
// stays unwritable lets the lease lapse, which is the failure semantics
// leases exist to provide — but the daemon gets to log why it vanished
// from discovery.
func Announce(reg LeaseRegistrar, networkID, addr string, ttl time.Duration, onRenewError func(error)) (stop func(), err error) {
	return AnnounceWithHealth(reg, networkID, addr, ttl, nil, onRenewError)
}

// AnnounceWithHealth is Announce plus health sharing: when the registry
// implements HealthPublisher and health is non-nil, every heartbeat also
// publishes the relay's current per-address health snapshot (typically
// Relay.HealthSnapshot). The piggyback costs nothing extra operationally —
// the heartbeat write was happening anyway — and keeps the registry's
// shared health no staler than one heartbeat. Publish failures are
// reported like renewal failures: health is advisory, so they never stop
// the announcement.
func AnnounceWithHealth(reg LeaseRegistrar, networkID, addr string, ttl time.Duration, health func() map[string]SharedHealth, onRenewError func(error)) (stop func(), err error) {
	publisher, _ := reg.(HealthPublisher)
	publish := func() error {
		if publisher == nil || health == nil {
			return nil
		}
		snapshot := health()
		if len(snapshot) == 0 {
			return nil
		}
		return publisher.PublishHealth(snapshot)
	}
	if ttl <= 0 {
		// Permanent registration: nothing to renew, deregister on stop.
		if err := reg.RegisterLease(networkID, addr, 0); err != nil {
			return nil, err
		}
		if err := publish(); err != nil && onRenewError != nil {
			onRenewError(err)
		}
		return func() { _ = reg.Deregister(networkID, addr) }, nil
	}
	if err := reg.RegisterLease(networkID, addr, ttl); err != nil {
		return nil, err
	}
	if err := publish(); err != nil && onRenewError != nil {
		onRenewError(err)
	}
	heartbeat := ttl / 3
	if heartbeat < time.Millisecond {
		heartbeat = time.Millisecond
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		ticker := time.NewTicker(heartbeat)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				if err := reg.RegisterLease(networkID, addr, ttl); err != nil && onRenewError != nil {
					onRenewError(err) // retried at the next tick regardless
				}
				if err := publish(); err != nil && onRenewError != nil {
					onRenewError(err)
				}
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-finished
			_ = reg.Deregister(networkID, addr)
		})
	}, nil
}
