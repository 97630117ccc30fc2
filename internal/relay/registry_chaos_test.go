// The registry chaos suite: the append-only journal, opened as one
// instance per goroutine the way N relayd processes share a deployment
// directory, must survive concurrent registrars, health publishers and a
// concurrent compactor without losing a single record, and a reader
// tailing mid-compaction must never observe a partial view.
//
// The suite asserts cross-process guarantees that the no-op flock fallback
// on non-unix platforms cannot promise (see flock_other.go) — so it is
// unix-only, like the guarantee. CI runs it -count=3 under -race.
//
// Each test runs its body as the "journal" subtest, the name the case has
// carried since the suite ran one table row per registry implementation.
//go:build unix

package relay

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestRegistryChaosConcurrentRegistrars chaos-drives the shared deploy-dir
// protocol: concurrent registrars churn through renewals,
// deregister/re-register cycles and prunes while a compactor rewrites the
// log underneath them the whole time. Each (registrar, round) pair registers a distinct address
// that is never touched again, so a single lost record anywhere in the run
// is permanently visible at the end; a registrar re-announcing the same
// address would instead silently heal the loss one round later and mask
// the bug. An unserialized read-modify-write registry loses registrations
// here routinely (two loads, two stores, last store wins); the journal
// must hold the 0-lost bar with appends alone.
func TestRegistryChaosConcurrentRegistrars(t *testing.T) {
	t.Run("journal", registryChaosConcurrentRegistrars)
}

func registryChaosConcurrentRegistrars(t *testing.T) {
	dir := t.TempDir()

	// A decoy whose lease is already lapsed gives the concurrent
	// Prunes something real to remove while registrations fly.
	decoy := journalAt(t, dir)
	decoy.now = func() time.Time { return time.Now().Add(-time.Hour) }
	if err := decoy.RegisterLease("net-0", "10.9.9.9:1", time.Minute); err != nil {
		t.Fatalf("seed decoy: %v", err)
	}

	const registrars = 8
	const rounds = 12
	addrFor := func(i, r int) string { return fmt.Sprintf("10.0.%d.%d:9080", i, r) }
	netFor := func(i int) string { return fmt.Sprintf("net-%d", i%2) }
	start := make(chan struct{})
	stopCompact := make(chan struct{})
	errs := make(chan error, registrars+1)
	var wg sync.WaitGroup
	for i := 0; i < registrars; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// One registry instance per goroutine = one relayd process.
			reg := journalAt(t, dir)
			churn := fmt.Sprintf("10.8.8.%d:9080", i)
			<-start
			for r := 0; r < rounds; r++ {
				if err := reg.RegisterLease(netFor(i), addrFor(i, r), time.Minute); err != nil {
					errs <- fmt.Errorf("registrar %d round %d: RegisterLease: %w", i, r, err)
					return
				}
				switch r % 4 {
				case 1:
					// Restart churn on a dedicated address.
					if err := reg.RegisterLease(netFor(i), churn, time.Minute); err != nil {
						errs <- fmt.Errorf("registrar %d round %d: churn register: %w", i, r, err)
						return
					}
					if err := reg.Deregister(netFor(i), churn); err != nil {
						errs <- fmt.Errorf("registrar %d round %d: churn deregister: %w", i, r, err)
						return
					}
				case 3:
					if _, err := reg.Prune(); err != nil {
						errs <- fmt.Errorf("registrar %d round %d: Prune: %w", i, r, err)
						return
					}
				}
			}
		}(i)
	}
	// The concurrent compactor: its own "process", rewriting the log
	// in a tight loop while every registration above is in flight.
	var compactWG sync.WaitGroup
	compactWG.Add(1)
	go func() {
		defer compactWG.Done()
		<-start
		for {
			select {
			case <-stopCompact:
				return
			default:
			}
			if err := journalAt(t, dir).Compact(); err != nil {
				errs <- fmt.Errorf("compactor: %w", err)
				return
			}
		}
	}()
	close(start)
	wg.Wait()
	close(stopCompact)
	compactWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Every registration of every round must have survived every
	// concurrent writer and every compaction.
	final := journalAt(t, dir)
	lost := 0
	for i := 0; i < registrars; i++ {
		addrs, err := final.Resolve(netFor(i))
		if err != nil {
			t.Fatalf("Resolve(%s): %v", netFor(i), err)
		}
		for r := 0; r < rounds; r++ {
			if !containsAddr(addrs, addrFor(i, r)) {
				lost++
			}
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d registrations lost to concurrent writers", lost, registrars*rounds)
	}
}

// TestRegistryChaosConcurrentHealthPublishers races health publication
// from separate registry instances against lease renewals and a
// concurrent compactor: published records must land on the
// surviving entries without dropping either the registrations or each
// other.
func TestRegistryChaosConcurrentHealthPublishers(t *testing.T) {
	t.Run("journal", registryChaosConcurrentHealthPublishers)
}

func registryChaosConcurrentHealthPublishers(t *testing.T) {
	dir := t.TempDir()
	seed := journalAt(t, dir)
	const addrs = 4
	for i := 0; i < addrs; i++ {
		if err := seed.Register("net", fmt.Sprintf("10.1.0.%d:9080", i)); err != nil {
			t.Fatalf("seed Register: %v", err)
		}
	}

	const publishers = 6
	stopCompact := make(chan struct{})
	errs := make(chan error, publishers+1)
	var wg sync.WaitGroup
	for i := 0; i < publishers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reg := journalAt(t, dir)
			for r := 0; r < 10; r++ {
				records := map[string]SharedHealth{
					fmt.Sprintf("10.1.0.%d:9080", r%addrs): {
						ConsecFailures:   i + 1,
						EWMALatencyNanos: int64(time.Millisecond),
						ObservedUnixNano: int64(i*1000 + r),
					},
				}
				if err := reg.PublishHealth(records); err != nil {
					errs <- fmt.Errorf("publisher %d: %w", i, err)
					return
				}
				if err := reg.RegisterLease("net", fmt.Sprintf("10.1.0.%d:9080", i%addrs), time.Minute); err != nil {
					errs <- fmt.Errorf("publisher %d renew: %w", i, err)
					return
				}
			}
		}(i)
	}
	var compactWG sync.WaitGroup
	compactWG.Add(1)
	go func() {
		defer compactWG.Done()
		for {
			select {
			case <-stopCompact:
				return
			default:
			}
			if err := journalAt(t, dir).Compact(); err != nil {
				errs <- fmt.Errorf("compactor: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(stopCompact)
	compactWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	final := journalAt(t, dir)
	resolved, err := final.Resolve("net")
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if len(resolved) != addrs {
		t.Fatalf("resolved %d addresses, want %d: %v", len(resolved), addrs, resolved)
	}
	records, err := final.HealthRecords()
	if err != nil {
		t.Fatalf("HealthRecords: %v", err)
	}
	if len(records) == 0 {
		t.Fatal("no health records survived concurrent publication")
	}
}

// TestRegistryChaosReaderNeverSeesPartialView: a fixed membership of K
// addresses is renewed by concurrent heartbeaters while a compactor rolls
// the journal generation in a tight loop; readers tailing throughout must
// see exactly K addresses on every single Resolve. A reader that caught a
// half-written snapshot, or tailed a generation file past its rollover,
// would observe fewer — the invariant the pointer-flip protocol exists to
// protect.
func TestRegistryChaosReaderNeverSeesPartialView(t *testing.T) {
	t.Run("journal", registryChaosReaderNeverSeesPartialView)
}

func registryChaosReaderNeverSeesPartialView(t *testing.T) {
	dir := t.TempDir()
	seed := journalAt(t, dir)
	const members = 6
	for i := 0; i < members; i++ {
		if err := seed.Register("net", fmt.Sprintf("10.2.0.%d:9080", i)); err != nil {
			t.Fatalf("seed Register: %v", err)
		}
	}

	const renewers = 4
	const readers = 3
	stop := make(chan struct{})
	errs := make(chan error, renewers+readers+1)
	var workers sync.WaitGroup
	for i := 0; i < renewers; i++ {
		workers.Add(1)
		go func(i int) {
			defer workers.Done()
			reg := journalAt(t, dir)
			for r := 0; ; r++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := reg.RegisterLease("net", fmt.Sprintf("10.2.0.%d:9080", r%members), time.Minute); err != nil {
					errs <- fmt.Errorf("renewer %d: %w", i, err)
					return
				}
			}
		}(i)
	}
	workers.Add(1)
	go func() {
		defer workers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := journalAt(t, dir).Compact(); err != nil {
				errs <- fmt.Errorf("compactor: %w", err)
				return
			}
		}
	}()
	var readerWG sync.WaitGroup
	for i := 0; i < readers; i++ {
		readerWG.Add(1)
		go func(i int) {
			defer readerWG.Done()
			reg := journalAt(t, dir) // one tailing view per reader
			for r := 0; r < 150; r++ {
				addrs, err := reg.Resolve("net")
				if err != nil {
					errs <- fmt.Errorf("reader %d iteration %d: %w", i, r, err)
					return
				}
				if len(addrs) != members {
					errs <- fmt.Errorf("reader %d iteration %d: partial view — %d of %d addresses: %v",
						i, r, len(addrs), members, addrs)
					return
				}
			}
		}(i)
	}
	readerWG.Wait()
	close(stop)
	workers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
