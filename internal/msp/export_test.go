package msp

import "time"

// setClock makes t the clock validity windows are checked against until the
// returned restore runs. Tests using it must not run in parallel.
func setClock(t time.Time) (restore func()) {
	old := now
	now = func() time.Time { return t }
	return func() { now = old }
}

func (c *memo[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// resetMemos empties the process-wide tables, so a test can count on its
// entries not being evicted to make room for another test's.
func resetMemos() {
	parsedCerts.reset()
	verifiers.reset()
}

func (c *memo[K, V]) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.m)
}
