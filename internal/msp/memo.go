package msp

import "sync"

// Caps of the memo tables. They are fixed, not tuned: each is far above the
// working set of a deployment (a few dozen organizations and member
// certificates) and only bounds what a peer fed endless distinct
// certificates can hold. A full table evicts an arbitrary entry.
const (
	parsedCertCap = 1024 // ParseCertPEM results, process-wide
	verifierCap   = 64   // shared Verifiers, one per root set
	verdictCap    = 1024 // chain verdicts per Verifier
)

// memo is a bounded, concurrency-safe map. Go randomizes map iteration
// order, so evicting the first key ranged over evicts an arbitrary one.
type memo[K comparable, V any] struct {
	mu    sync.Mutex
	limit int
	m     map[K]V
}

func newMemo[K comparable, V any](limit int) *memo[K, V] {
	return &memo[K, V]{limit: limit, m: make(map[K]V)}
}

func (c *memo[K, V]) get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[k]
	return v, ok
}

// putIfAbsent stores v under k unless an entry is already there, and returns
// the entry that is stored afterwards, so concurrent builders of one key all
// end up with the same value.
func (c *memo[K, V]) putIfAbsent(k K, v V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.m[k]; ok {
		return old
	}
	c.evictForLocked(k)
	c.m[k] = v
	return v
}

// put stores v under k, replacing any entry there.
func (c *memo[K, V]) put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evictForLocked(k)
	c.m[k] = v
}

// evictForLocked makes room for k. Callers hold mu.
func (c *memo[K, V]) evictForLocked(k K) {
	if _, ok := c.m[k]; ok || len(c.m) < c.limit {
		return
	}
	for old := range c.m {
		delete(c.m, old)
		return
	}
}
