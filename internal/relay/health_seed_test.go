package relay

import (
	"os"
	"testing"
	"time"
)

// seedClock returns a fixed, controllable clock.
type seedClock struct{ t time.Time }

func (c *seedClock) now() time.Time          { return c.t }
func (c *seedClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newSeedClock() *seedClock               { return &seedClock{t: time.Unix(1_700_000_000, 0)} }
func seedOpt(c *seedClock) Option            { return WithClock(c.now) }
func seededRelay(c *seedClock, reg Discovery) *Relay {
	return New("dest-net", reg, NewHub(), seedOpt(c))
}

// TestRestartedRelayResolvesInSharedHealthOrder is the restart story end to
// end: relay one learns (the hard way) that the first-registered address is
// failing and the second is fast, publishes that through the registry, dies,
// and its replacement — a fresh process with a blank tracker — immediately
// resolves in fleet-learned order instead of registration order.
func TestRestartedRelayResolvesInSharedHealthOrder(t *testing.T) {
	clock := newSeedClock()
	reg := NewStaticRegistry()
	reg.now = clock.now
	reg.Register("src-net", "addr-a", "addr-b")

	veteran := seededRelay(clock, reg)
	// Two failures on addr-a (below the breaker threshold of 3), one fast
	// success on addr-b.
	veteran.health.reportFailure("addr-a")
	veteran.health.reportFailure("addr-a")
	veteran.health.reportSuccess("addr-b", 2*time.Millisecond)
	if err := reg.PublishHealth(veteran.HealthSnapshot()); err != nil {
		t.Fatalf("PublishHealth: %v", err)
	}

	// The replacement process: fresh tracker, blank history.
	fresh := seededRelay(clock, reg)
	before, err := fresh.resolveOrdered("src-net")
	if err != nil {
		t.Fatalf("resolveOrdered: %v", err)
	}
	if before[0] != "addr-a" {
		t.Fatalf("unseeded relay should resolve in registration order, got %v", before)
	}

	if err := SeedHealthFromRegistry(fresh, reg); err != nil {
		t.Fatalf("SeedHealthFromRegistry: %v", err)
	}
	after, err := fresh.resolveOrdered("src-net")
	if err != nil {
		t.Fatalf("resolveOrdered: %v", err)
	}
	if after[0] != "addr-b" || after[1] != "addr-a" {
		t.Fatalf("seeded relay resolve order = %v, want [addr-b addr-a]", after)
	}
}

// TestSeededCircuitOpenStateSurvivesRestart: an address whose breaker was
// open when the observation was published stays demoted (and counted as a
// breaker skip) in the restarted relay, for exactly the cooldown that
// remains — and reopens for business once it lapses.
func TestSeededCircuitOpenStateSurvivesRestart(t *testing.T) {
	clock := newSeedClock()
	reg := NewStaticRegistry()
	reg.now = clock.now
	reg.Register("src-net", "addr-dead", "addr-live")

	veteran := seededRelay(clock, reg)
	for i := 0; i < defaultBreakerThreshold; i++ {
		veteran.health.reportFailure("addr-dead")
	}
	veteran.health.reportSuccess("addr-live", time.Millisecond)
	if !veteran.health.circuitOpen("addr-dead") {
		t.Fatal("breaker should be open after threshold failures")
	}
	if err := reg.PublishHealth(veteran.HealthSnapshot()); err != nil {
		t.Fatalf("PublishHealth: %v", err)
	}

	fresh := seededRelay(clock, reg)
	if err := SeedHealthFromRegistry(fresh, reg); err != nil {
		t.Fatalf("SeedHealthFromRegistry: %v", err)
	}
	if !fresh.health.circuitOpen("addr-dead") {
		t.Fatal("circuit-open state did not survive the restart via the shared record")
	}
	ordered, err := fresh.resolveOrdered("src-net")
	if err != nil {
		t.Fatalf("resolveOrdered: %v", err)
	}
	if ordered[0] != "addr-live" {
		t.Fatalf("resolve order = %v, want the open address demoted", ordered)
	}
	if skips := fresh.Stats().BreakerSkips; skips != 1 {
		t.Fatalf("BreakerSkips = %d, want 1 (the seeded open breaker)", skips)
	}

	// The inherited cooldown still expires on schedule.
	clock.advance(defaultBreakerCooldown + time.Second)
	if fresh.health.circuitOpen("addr-dead") {
		t.Fatal("seeded breaker did not close after the cooldown lapsed")
	}
}

// TestSeedDoesNotOverwriteFirstHandObservations: seeding only fills blanks.
// An address this relay has already probed keeps its own view, however
// gloomy the shared record is.
func TestSeedDoesNotOverwriteFirstHandObservations(t *testing.T) {
	clock := newSeedClock()
	r := seededRelay(clock, NewStaticRegistry())
	r.health.reportSuccess("addr-a", time.Millisecond) // first-hand: healthy

	r.SeedHealth(map[string]SharedHealth{
		"addr-a": {ConsecFailures: 9, OpenUntilUnixNano: clock.now().Add(time.Hour).UnixNano()},
		"addr-b": {ConsecFailures: 1},
	})
	if r.health.circuitOpen("addr-a") {
		t.Fatal("seed overwrote a first-hand observation")
	}
	r.health.mu.Lock()
	aState := *r.health.byAddr["addr-a"]
	bState := *r.health.byAddr["addr-b"]
	r.health.mu.Unlock()
	if aState.consecFailures != 0 || aState.seededFailures != 0 {
		t.Fatalf("addr-a state = %+v, want first-hand clean", aState)
	}
	if bState.seededFailures != 1 || bState.consecFailures != 0 {
		t.Fatalf("addr-b state = %+v, want 1 seeded failure and no first-hand ones", bState)
	}
}

// TestSeededFailuresDoNotFeedBreakerOrRepublish: a seeded streak demotes
// ordering but must not let a single local failure open the breaker, and a
// local failure publishes the local count (1), not seed+1 — otherwise
// counts ratchet fleet-wide across restarts.
func TestSeededFailuresDoNotFeedBreakerOrRepublish(t *testing.T) {
	clock := newSeedClock()
	r := seededRelay(clock, NewStaticRegistry())
	r.SeedHealth(map[string]SharedHealth{
		"addr-a": {ConsecFailures: defaultBreakerThreshold - 1, ObservedUnixNano: clock.now().UnixNano()},
	})
	r.health.reportFailure("addr-a") // one first-hand failure
	if r.health.circuitOpen("addr-a") {
		t.Fatal("one local failure opened the breaker on the strength of a seeded streak")
	}
	snap := r.HealthSnapshot()
	if rec := snap["addr-a"]; rec.ConsecFailures != 1 {
		t.Fatalf("published ConsecFailures = %d, want the local count 1", rec.ConsecFailures)
	}
	// The confirming failure keeps the seeded streak in the score: the
	// address must rank worse than before, not better.
	r.health.mu.Lock()
	st := *r.health.byAddr["addr-a"]
	r.health.mu.Unlock()
	if st.seededFailures != defaultBreakerThreshold-1 || st.consecFailures != 1 {
		t.Fatalf("state after confirming failure = %+v, want seeded streak retained", st)
	}
	// A success contradicts the shared record and clears both counts.
	r.health.reportSuccess("addr-a", time.Millisecond)
	r.health.mu.Lock()
	st = *r.health.byAddr["addr-a"]
	r.health.mu.Unlock()
	if st.seededFailures != 0 || st.consecFailures != 0 {
		t.Fatalf("state after success = %+v, want cleared", st)
	}
	// A genuine local streak still opens it.
	for i := 0; i < defaultBreakerThreshold; i++ {
		r.health.reportFailure("addr-a")
	}
	if !r.health.circuitOpen("addr-a") {
		t.Fatal("a full first-hand streak did not open the breaker")
	}
}

// TestSeedIgnoresLapsedCooldowns: a shared OpenUntil already in the past
// must not demote the address — the outage it recorded is over.
func TestSeedIgnoresLapsedCooldowns(t *testing.T) {
	clock := newSeedClock()
	r := seededRelay(clock, NewStaticRegistry())
	r.SeedHealth(map[string]SharedHealth{
		"addr-a": {ConsecFailures: defaultBreakerThreshold, OpenUntilUnixNano: clock.now().Add(-time.Minute).UnixNano()},
	})
	if r.health.circuitOpen("addr-a") {
		t.Fatal("lapsed shared cooldown re-opened the breaker")
	}
}

// TestSnapshotStampsObservationTimeNotPublishTime: a relay that stopped
// talking to an address keeps re-publishing its old verdict under the
// original observation time, so a sibling's genuinely fresher observation
// wins the merge no matter who publishes last.
func TestSnapshotStampsObservationTimeNotPublishTime(t *testing.T) {
	clock := newSeedClock()
	reg := NewStaticRegistry()
	reg.now = clock.now
	reg.Register("src-net", "addr-x")

	gloomy := seededRelay(clock, reg)
	gloomy.health.reportFailure("addr-x") // observed at T0

	clock.advance(time.Hour)
	sunny := seededRelay(clock, reg)
	sunny.health.reportSuccess("addr-x", time.Millisecond) // observed at T0+1h
	if err := reg.PublishHealth(sunny.HealthSnapshot()); err != nil {
		t.Fatalf("PublishHealth fresh: %v", err)
	}
	// The stale observer publishes afterwards — later in wall time, but its
	// observation is an hour old.
	if err := reg.PublishHealth(gloomy.HealthSnapshot()); err != nil {
		t.Fatalf("PublishHealth stale: %v", err)
	}

	records, err := reg.HealthRecords()
	if err != nil {
		t.Fatalf("HealthRecords: %v", err)
	}
	if rec := records["addr-x"]; rec.ConsecFailures != 0 {
		t.Fatalf("stale re-published failure verdict won the merge: %+v", rec)
	}
	// And state that was merely seeded is never re-published as one's own.
	echo := seededRelay(clock, reg)
	echo.SeedHealth(records)
	if snap := echo.HealthSnapshot(); len(snap) != 0 {
		t.Fatalf("seeded (second-hand) state was re-published: %+v", snap)
	}
}

// TestPublishHealthNoOpDoesNotRewriteFile: re-publishing an unchanged
// snapshot (the steady-state heartbeat) or a record for an address that is
// not registered must append nothing to the registry journal.
func TestPublishHealthNoOpDoesNotRewriteFile(t *testing.T) {
	reg := journalAt(t, t.TempDir())
	if err := reg.Register("src-net", "addr-a"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	rec := map[string]SharedHealth{"addr-a": {ConsecFailures: 2, ObservedUnixNano: 500}}
	if err := reg.PublishHealth(rec); err != nil {
		t.Fatalf("PublishHealth: %v", err)
	}
	before, err := os.Stat(reg.path)
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if err := reg.PublishHealth(rec); err != nil {
		t.Fatalf("PublishHealth repeat: %v", err)
	}
	if err := reg.PublishHealth(map[string]SharedHealth{"addr-unknown": {ConsecFailures: 1, ObservedUnixNano: 900}}); err != nil {
		t.Fatalf("PublishHealth unknown: %v", err)
	}
	after, err := os.Stat(reg.path)
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if after.Size() != before.Size() {
		t.Fatalf("no-op PublishHealth appended %d bytes to the journal", after.Size()-before.Size())
	}
}

// TestAnnounceWithHealthPublishesOnHeartbeat: the health snapshot rides the
// lease heartbeat into the registry without any extra scheduling.
func TestAnnounceWithHealthPublishesOnHeartbeat(t *testing.T) {
	reg := NewStaticRegistry()
	reg.Register("src-net", "addr-peer")
	r := New("dest-net", reg, NewHub())
	r.health.reportFailure("addr-peer")

	stop, err := AnnounceWithHealth(reg, "dest-net", "addr-self", 30*time.Millisecond, r.HealthSnapshot, nil)
	if err != nil {
		t.Fatalf("AnnounceWithHealth: %v", err)
	}
	defer stop()

	deadline := time.Now().Add(2 * time.Second)
	for {
		records, err := reg.HealthRecords()
		if err != nil {
			t.Fatalf("HealthRecords: %v", err)
		}
		if rec, ok := records["addr-peer"]; ok && rec.ConsecFailures == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("health never reached the registry via the heartbeat; records = %+v", records)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
