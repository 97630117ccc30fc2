package relay

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func containsAddr(addrs []string, want string) bool {
	for _, a := range addrs {
		if a == want {
			return true
		}
	}
	return false
}

func journalAt(t *testing.T, dir string, opts ...JournalOption) *JournalRegistry {
	t.Helper()
	return NewJournalRegistry(filepath.Join(dir, "registry.jsonl"), opts...)
}

func TestJournalRegistryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	reg := journalAt(t, dir)

	if _, err := reg.Resolve("tradelens"); !errors.Is(err, ErrUnknownNetwork) {
		t.Fatalf("empty journal: %v", err)
	}
	if err := reg.Register("tradelens", "127.0.0.1:9080"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := reg.Register("tradelens", "127.0.0.1:9081"); err != nil {
		t.Fatalf("Register second: %v", err)
	}
	addrs, err := reg.Resolve("tradelens")
	if err != nil || len(addrs) != 2 || addrs[0] != "127.0.0.1:9080" {
		t.Fatalf("Resolve = %v, %v", addrs, err)
	}

	// A fresh instance over the same journal materializes the same view.
	reg2 := journalAt(t, dir)
	addrs, err = reg2.Resolve("tradelens")
	if err != nil || len(addrs) != 2 {
		t.Fatalf("rematerialized Resolve = %v, %v", addrs, err)
	}
	nets, err := reg2.Networks()
	if err != nil || len(nets) != 1 {
		t.Fatalf("Networks = %v, %v", nets, err)
	}
}

func TestJournalRegistryRenewDeregisterLastRecordWins(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	reg := journalAt(t, dir)
	reg.now = clk.Now

	if err := reg.RegisterLease("net", "a:1", 30*time.Second); err != nil {
		t.Fatalf("RegisterLease: %v", err)
	}
	// Renewal refreshes in place — one entry, not an appended duplicate.
	clk.Advance(20 * time.Second)
	if err := reg.RegisterLease("net", "a:1", 30*time.Second); err != nil {
		t.Fatalf("renew: %v", err)
	}
	clk.Advance(20 * time.Second)
	if addrs, err := reg.Resolve("net"); err != nil || len(addrs) != 1 {
		t.Fatalf("renewed lease lapsed early: %v, %v", addrs, err)
	}
	entries, err := reg.Entries()
	if err != nil || len(entries["net"]) != 1 {
		t.Fatalf("Entries = %+v, %v, want a single deduplicated entry", entries, err)
	}

	if err := reg.Deregister("net", "a:1"); err != nil {
		t.Fatalf("Deregister: %v", err)
	}
	if _, err := reg.Resolve("net"); !errors.Is(err, ErrUnknownNetwork) {
		t.Fatalf("after deregister Resolve err = %v", err)
	}
	nets, err := reg.Networks()
	if err != nil || len(nets) != 0 {
		t.Fatalf("Networks after last deregister = %v, %v", nets, err)
	}
	// Deregistering an absent address appends a harmless no-op record.
	if err := reg.Deregister("net", "missing"); err != nil {
		t.Fatalf("Deregister absent: %v", err)
	}
}

func TestJournalRegistryLeaseExpiryAndPrune(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	reg := journalAt(t, dir)
	reg.now = clk.Now

	if err := reg.RegisterLease("net", "leased:1", 30*time.Second); err != nil {
		t.Fatalf("RegisterLease: %v", err)
	}
	if err := reg.Register("net", "permanent:1"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	clk.Advance(time.Minute)
	addrs, err := reg.Resolve("net")
	if err != nil || len(addrs) != 1 || addrs[0] != "permanent:1" {
		t.Fatalf("after expiry Resolve = %v, %v, want just the permanent entry", addrs, err)
	}
	// The laxer Entries view still lists the lapsed entry until pruned.
	entries, err := reg.Entries()
	if err != nil || len(entries["net"]) != 2 {
		t.Fatalf("Entries = %+v, %v, want the lapsed entry still listed", entries, err)
	}
	pruned, err := reg.Prune()
	if err != nil || pruned != 1 {
		t.Fatalf("Prune = %d, %v, want 1", pruned, err)
	}
	entries, _ = reg.Entries()
	if len(entries["net"]) != 1 || entries["net"][0].Addr != "permanent:1" {
		t.Fatalf("after prune Entries = %+v", entries)
	}
	// Prune with nothing lapsed appends nothing.
	if pruned, err := reg.Prune(); err != nil || pruned != 0 {
		t.Fatalf("second Prune = %d, %v", pruned, err)
	}
}

// TestJournalLeaseSkewTakesEarlierInterpretation is the lease-boundary
// contract: every lease record carries both an absolute expiry (writer's
// clock) and a relative TTL (anchored at the reader's first observation),
// and when skew makes them disagree the entry stops resolving at the
// *earlier* of the two.
func TestJournalLeaseSkewTakesEarlierInterpretation(t *testing.T) {
	const ttl = 30 * time.Second

	t.Run("fast writer clock bounded by reader-anchored TTL", func(t *testing.T) {
		dir := t.TempDir()
		writerClk := newFakeClock()
		writerClk.Advance(time.Hour) // writer's clock runs an hour fast
		writer := journalAt(t, dir)
		writer.now = writerClk.Now
		if err := writer.RegisterLease("net", "skewed:1", ttl); err != nil {
			t.Fatalf("RegisterLease: %v", err)
		}

		readerClk := newFakeClock() // true time
		reader := journalAt(t, dir)
		reader.now = readerClk.Now
		if addrs, err := reader.Resolve("net"); err != nil || len(addrs) != 1 {
			t.Fatalf("fresh lease must resolve: %v, %v", addrs, err)
		}
		// Under the absolute encoding alone the entry would live another
		// hour; the reader-anchored TTL is earlier and wins.
		readerClk.Advance(ttl + time.Second)
		if _, err := reader.Resolve("net"); !errors.Is(err, ErrUnknownNetwork) {
			t.Fatalf("fast-clock lease outlived its TTL: %v", err)
		}
	})

	t.Run("slow writer clock bounded by absolute expiry", func(t *testing.T) {
		dir := t.TempDir()
		writerClk := newFakeClock() // writer's clock runs an hour slow:
		// absolute expiry lands ~now, while the TTL read fresh would grant
		// a full extra hour.
		writer := journalAt(t, dir)
		writer.now = writerClk.Now
		if err := writer.RegisterLease("net", "skewed:1", time.Hour); err != nil {
			t.Fatalf("RegisterLease: %v", err)
		}

		readerClk := newFakeClock()
		readerClk.Advance(time.Hour + time.Second) // true time: just past the absolute expiry
		reader := journalAt(t, dir)
		reader.now = readerClk.Now
		if _, err := reader.Resolve("net"); !errors.Is(err, ErrUnknownNetwork) {
			t.Fatalf("lease resolved past its absolute expiry: %v", err)
		}
	})
}

// TestJournalPruneCompactAgreeWithReader: the maintenance operations use
// the same earlier-interpretation expiry as Resolve, so what stops
// resolving is exactly what Prune removes, and Compact never resurrects
// it.
func TestJournalPruneCompactAgreeWithReader(t *testing.T) {
	dir := t.TempDir()
	writerClk := newFakeClock()
	writerClk.Advance(time.Hour) // fast clock: absolute expiry an hour out
	writer := journalAt(t, dir)
	writer.now = writerClk.Now
	const ttl = 30 * time.Second
	if err := writer.RegisterLease("net", "skewed:1", ttl); err != nil {
		t.Fatalf("RegisterLease: %v", err)
	}
	if err := writer.Register("net", "permanent:1"); err != nil {
		t.Fatalf("Register: %v", err)
	}

	readerClk := newFakeClock()
	reader := journalAt(t, dir)
	reader.now = readerClk.Now
	// Materialize now (anchoring the TTL), then cross the earlier boundary.
	if addrs, err := reader.Resolve("net"); err != nil || len(addrs) != 2 {
		t.Fatalf("initial Resolve = %v, %v", addrs, err)
	}
	readerClk.Advance(ttl + time.Second)
	addrs, err := reader.Resolve("net")
	if err != nil || len(addrs) != 1 || addrs[0] != "permanent:1" {
		t.Fatalf("post-boundary Resolve = %v, %v, want just permanent:1", addrs, err)
	}
	// Prune agrees: exactly the entry the reader stopped resolving.
	pruned, err := reader.Prune()
	if err != nil || pruned != 1 {
		t.Fatalf("Prune = %d, %v, want 1 (the entry that stopped resolving)", pruned, err)
	}
	// Compact agrees: the surviving view is unchanged across the rollover.
	if err := reader.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	addrs, err = reader.Resolve("net")
	if err != nil || len(addrs) != 1 || addrs[0] != "permanent:1" {
		t.Fatalf("post-compaction Resolve = %v, %v", addrs, err)
	}
	entries, err := reader.Entries()
	if err != nil || len(entries["net"]) != 1 {
		t.Fatalf("post-compaction Entries = %+v, %v", entries, err)
	}
}

func TestJournalRegistryHealthPiggyback(t *testing.T) {
	dir := t.TempDir()
	reg := journalAt(t, dir)
	if err := reg.Register("net", "a:1", "b:2"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	stale := SharedHealth{ConsecFailures: 9, ObservedUnixNano: 100}
	fresh := SharedHealth{ConsecFailures: 2, EWMALatencyNanos: int64(time.Millisecond), ObservedUnixNano: 200}
	if err := reg.PublishHealth(map[string]SharedHealth{"a:1": fresh, "unregistered:9": fresh}); err != nil {
		t.Fatalf("PublishHealth: %v", err)
	}
	// Staler records do not regress the view, even though they append later.
	if err := reg.PublishHealth(map[string]SharedHealth{"a:1": stale}); err != nil {
		t.Fatalf("PublishHealth stale: %v", err)
	}
	records, err := journalAt(t, dir).HealthRecords()
	if err != nil {
		t.Fatalf("HealthRecords: %v", err)
	}
	if got, ok := records["a:1"]; !ok || got != fresh {
		t.Fatalf("health for a:1 = %+v (ok=%v), want the fresher record", got, ok)
	}
	if _, ok := records["unregistered:9"]; ok {
		t.Fatal("health published for an unregistered address survived")
	}
	if _, ok := records["b:2"]; ok {
		t.Fatal("b:2 has no published health, but a record appeared")
	}
	// Entries carry the record for inspection tooling.
	entries, err := reg.Entries()
	if err != nil {
		t.Fatalf("Entries: %v", err)
	}
	for _, e := range entries["net"] {
		if e.Addr == "a:1" && (e.Health == nil || *e.Health != fresh) {
			t.Fatalf("entry health = %+v, want %+v", e.Health, fresh)
		}
	}
	// Lease renewal must not shed the health record.
	if err := reg.RegisterLease("net", "a:1", time.Minute); err != nil {
		t.Fatalf("RegisterLease: %v", err)
	}
	records, err = journalAt(t, dir).HealthRecords()
	if err != nil || records["a:1"] != fresh {
		t.Fatalf("health after lease renewal = %+v, %v, want %+v", records["a:1"], err, fresh)
	}
}

// legacyRegistryFixture is a registry.json byte for byte as the flat-file
// registry wrote it (clock at Unix 1_700_000_000): bare-string permanent
// entries, a permanent entry carrying a health record, a lease object
// with its absolute expiry one hour out, and legacy:1 listed under two
// networks.
const legacyRegistryFixture = `{
  "tradelens": [
    "legacy:1",
    {
      "addr": "legacy:2",
      "health": {
        "consec_failures": 3,
        "ewma_latency_nanos": 2000000,
        "observed_unix_nano": 1699999990000000000
      }
    },
    {
      "addr": "leased:3",
      "expires_unix_nano": 1700003600000000000
    }
  ],
  "wetrade": [
    "legacy:1"
  ]
}`

// TestJournalRegistryLegacyMigration: a deployment directory holding only a
// legacy flat registry.json is readable as the journal's generation-0
// base; appends layer on top of it; and Compact folds everything into a
// generation-1 snapshot after which the flat file is no longer consulted.
func TestJournalRegistryLegacyMigration(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "registry.json"), []byte(legacyRegistryFixture), 0o644); err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	open := func() *JournalRegistry {
		reg := journalAt(t, dir)
		reg.now = clk.Now
		return reg
	}

	reg := open()
	addrs, err := reg.Resolve("tradelens")
	if err != nil || fmt.Sprint(addrs) != "[legacy:1 legacy:2 leased:3]" {
		t.Fatalf("legacy base Resolve = %v, %v", addrs, err)
	}
	if addrs, err := reg.Resolve("wetrade"); err != nil || fmt.Sprint(addrs) != "[legacy:1]" {
		t.Fatalf("legacy base Resolve(wetrade) = %v, %v", addrs, err)
	}
	entries, err := reg.Entries()
	if err != nil {
		t.Fatalf("Entries: %v", err)
	}
	if e := entries["tradelens"][2]; e.ExpiresUnixNano != 1_700_003_600_000_000_000 {
		t.Fatalf("leased:3 entry = %+v, want the fixture's lease expiry", e)
	}
	health, err := reg.HealthRecords()
	want := SharedHealth{ConsecFailures: 3, EWMALatencyNanos: 2_000_000, ObservedUnixNano: 1_699_999_990_000_000_000}
	if err != nil || len(health) != 1 || health["legacy:2"] != want {
		t.Fatalf("legacy base HealthRecords = %+v, %v", health, err)
	}

	// Journal appends layer over the legacy base.
	if err := reg.RegisterLease("tradelens", "journal:4", time.Hour); err != nil {
		t.Fatalf("RegisterLease: %v", err)
	}
	if err := reg.Deregister("tradelens", "legacy:2"); err != nil {
		t.Fatalf("Deregister legacy entry: %v", err)
	}
	addrs, err = reg.Resolve("tradelens")
	if err != nil || len(addrs) != 3 || containsAddr(addrs, "legacy:2") {
		t.Fatalf("layered Resolve = %v, %v", addrs, err)
	}

	// Compaction folds the merged view into generation 1...
	if err := reg.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	// ...after which the legacy flat file is no longer consulted: rewrite
	// it with a poison entry and confirm the view is unchanged.
	if err := os.WriteFile(filepath.Join(dir, "registry.json"), []byte(`{"tradelens":["poison:9"]}`), 0o644); err != nil {
		t.Fatalf("rewrite legacy: %v", err)
	}
	fresh := open()
	addrs, err = fresh.Resolve("tradelens")
	if err != nil || fmt.Sprint(addrs) != "[legacy:1 leased:3 journal:4]" {
		t.Fatalf("post-migration Resolve = %v, %v", addrs, err)
	}
	if addrs, err := fresh.Resolve("wetrade"); err != nil || fmt.Sprint(addrs) != "[legacy:1]" {
		t.Fatalf("post-migration Resolve(wetrade) = %v, %v", addrs, err)
	}
	// The migrated lease keeps the fixture's expiry: past it, only the
	// permanent entry and the journal's own lease resolve.
	clk.Advance(90 * time.Minute)
	if addrs, err := fresh.Resolve("tradelens"); err != nil || fmt.Sprint(addrs) != "[legacy:1]" {
		t.Fatalf("after lease expiry Resolve = %v, %v", addrs, err)
	}
}

// TestJournalRegistryCorruptLegacyFile: an unparseable legacy registry.json
// is an error from every read, never an empty view that would silently
// drop the deployment's registrations.
func TestJournalRegistryCorruptLegacyFile(t *testing.T) {
	for name, body := range map[string]string{
		"syntax":       "{not json",
		"entry-type":   `{"a":[42]}`,
		"missing-addr": `{"a":[{"expires_unix_nano":1}]}`,
		"empty-addr":   `{"a":[""]}`,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "registry.json"), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			reg := journalAt(t, dir)
			_, err := reg.Resolve("a")
			if err == nil || errors.Is(err, ErrUnknownNetwork) || !strings.Contains(err.Error(), "parse registry") {
				t.Fatalf("Resolve err = %v, want a parse error", err)
			}
			if _, err := reg.Entries(); err == nil {
				t.Fatal("Entries accepted a corrupt registry.json")
			}
		})
	}
}

// TestJournalRegistryRestartIdempotent models relayd restarting against the
// same deployment dir: each run is a fresh instance announcing the same
// address, and the view must hold exactly one entry for it.
func TestJournalRegistryRestartIdempotent(t *testing.T) {
	dir := t.TempDir()
	for restart := 0; restart < 3; restart++ {
		if err := journalAt(t, dir).RegisterLease("tradelens", "127.0.0.1:9080", time.Minute); err != nil {
			t.Fatalf("restart %d RegisterLease: %v", restart, err)
		}
	}
	entries, err := journalAt(t, dir).Entries()
	if err != nil {
		t.Fatalf("Entries: %v", err)
	}
	if got := entries["tradelens"]; len(got) != 1 || got[0].Addr != "127.0.0.1:9080" {
		t.Fatalf("after three restarts entries = %+v, want exactly one", got)
	}

	// Permanent Register dedupes the same way.
	reg := journalAt(t, dir)
	if err := reg.Register("tradelens", "127.0.0.1:9080", "127.0.0.1:9081"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := reg.Register("tradelens", "127.0.0.1:9081"); err != nil {
		t.Fatalf("Register again: %v", err)
	}
	addrs, err := journalAt(t, dir).Resolve("tradelens")
	if err != nil || len(addrs) != 2 {
		t.Fatalf("Resolve = %v, %v, want the two deduplicated addresses", addrs, err)
	}
}

// TestAnnounceHeartbeatAndShutdown: the announcer keeps a lease alive well
// past its TTL, and stop() deregisters the address. The TTL-to-runtime
// margin is generous (a renewal would have to slip >2/3 of a 600ms TTL for
// the lease to lapse) so a loaded CI scheduler cannot flake it.
func TestAnnounceHeartbeatAndShutdown(t *testing.T) {
	reg := journalAt(t, t.TempDir())
	const ttl = 600 * time.Millisecond
	stop, err := Announce(reg, "tradelens", "127.0.0.1:9080", ttl, nil)
	if err != nil {
		t.Fatalf("Announce: %v", err)
	}
	deadline := time.Now().Add(2 * ttl)
	for time.Now().Before(deadline) {
		if addrs, err := reg.Resolve("tradelens"); err != nil || len(addrs) != 1 {
			t.Fatalf("lease lapsed despite heartbeat: %v, %v", addrs, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	stop()
	stop() // idempotent
	if _, err := reg.Resolve("tradelens"); !errors.Is(err, ErrUnknownNetwork) {
		t.Fatalf("after stop Resolve err = %v, want ErrUnknownNetwork", err)
	}
}

// FuzzLegacyRegistryFile feeds arbitrary bytes in as an operator-supplied
// registry.json under a fresh journal: reads must return (an error is
// fine) without panicking, and a successful read never yields an entry
// without an address.
func FuzzLegacyRegistryFile(f *testing.F) {
	f.Add([]byte(legacyRegistryFixture))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"a":["x","x",{"addr":"x","expires_unix_nano":-1}]}`))
	f.Add([]byte(`{"a":[null]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "registry.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		reg := journalAt(t, dir)
		_, _ = reg.Resolve("tradelens")
		if entries, err := reg.Entries(); err == nil {
			for network, list := range entries {
				for _, e := range list {
					if e.Addr == "" {
						t.Fatalf("network %q has an entry without an address: %+v", network, e)
					}
				}
			}
		}
		if records, err := reg.HealthRecords(); err == nil {
			for addr := range records {
				if addr == "" {
					t.Fatalf("health record without an address: %+v", records)
				}
			}
		}
	})
}

// TestJournalRegistryCompactionBoundsFile: under heartbeat churn the
// journal grows without bound; CompactIfOversized rolls the generation and
// the new file is a bounded snapshot, with the view identical across the
// rollover — including for a second instance that was tailing the old
// generation.
func TestJournalRegistryCompactionBoundsFile(t *testing.T) {
	dir := t.TempDir()
	reg := journalAt(t, dir, WithCompactBytes(1024))
	tailer := journalAt(t, dir)

	const addrs = 5
	for round := 0; round < 200; round++ {
		for i := 0; i < addrs; i++ {
			if err := reg.RegisterLease("net", fmt.Sprintf("relay-%d:9080", i), time.Hour); err != nil {
				t.Fatalf("round %d RegisterLease: %v", round, err)
			}
		}
		if round == 100 {
			// Tail mid-history so the tailer holds an offset into gen 0.
			if got, err := tailer.Resolve("net"); err != nil || len(got) != addrs {
				t.Fatalf("tailer mid-history Resolve = %v, %v", got, err)
			}
		}
	}
	compacted, err := reg.CompactIfOversized()
	if err != nil || !compacted {
		t.Fatalf("CompactIfOversized = %v, %v, want a compaction", compacted, err)
	}
	gen, err := reg.readGen()
	if err != nil || gen != 1 {
		t.Fatalf("generation after compaction = %d, %v", gen, err)
	}
	st, err := os.Stat(reg.genPath(gen))
	if err != nil {
		t.Fatalf("stat snapshot: %v", err)
	}
	if st.Size() > 2048 {
		t.Fatalf("snapshot is %d bytes for %d entries — compaction did not bound the file", st.Size(), addrs)
	}
	// The grace window keeps the single most-recent superseded generation
	// (here generation 0) as a manual-recovery fallback.
	if _, err := os.Stat(reg.genPath(0)); err != nil {
		t.Fatalf("generation-0 grace copy missing after first compaction: %v", err)
	}
	// Both the compacting instance and the mid-tail instance see the full
	// view across the rollover.
	for name, r := range map[string]*JournalRegistry{"compactor": reg, "tailer": tailer} {
		got, err := r.Resolve("net")
		if err != nil || len(got) != addrs {
			t.Fatalf("%s post-rollover Resolve = %v, %v, want %d addrs", name, got, err, addrs)
		}
	}
	// A second compaction rolls again; the chain of generations keeps
	// working, and the grace window slides — generation 1 is kept,
	// generation 0 finally deleted.
	if err := reg.Compact(); err != nil {
		t.Fatalf("second Compact: %v", err)
	}
	if _, err := os.Stat(reg.genPath(0)); !os.IsNotExist(err) {
		t.Fatalf("generation-0 journal survived the second compaction: %v", err)
	}
	if _, err := os.Stat(reg.genPath(1)); err != nil {
		t.Fatalf("generation-1 grace copy missing after second compaction: %v", err)
	}
	if got, err := tailer.Resolve("net"); err != nil || len(got) != addrs {
		t.Fatalf("tailer after second rollover = %v, %v", got, err)
	}
}

func TestJournalPresentDetection(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "registry.jsonl")
	if JournalPresent(path) {
		t.Fatal("empty dir detected as journal")
	}
	// A legacy flat file alone is not a journal.
	if err := os.WriteFile(filepath.Join(dir, "registry.json"), []byte(`{}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if JournalPresent(path) {
		t.Fatal("flat registry.json detected as journal")
	}
	reg := NewJournalRegistry(path)
	if err := reg.Register("net", "a:1"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if !JournalPresent(path) {
		t.Fatal("generation-0 journal not detected")
	}
	if err := reg.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if !JournalPresent(path) {
		t.Fatal("post-compaction journal (pointer + gen file) not detected")
	}
}
