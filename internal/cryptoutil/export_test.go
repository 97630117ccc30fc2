package cryptoutil

import "time"

// setSessionClock makes t the clock session-secret memo entries are aged
// against until the returned restore runs. Tests using it must not run in
// parallel.
func setSessionClock(t time.Time) (restore func()) {
	old := sessionNow
	sessionNow = func() time.Time { return t }
	return func() { sessionNow = old }
}

func openSecretsLen() int {
	openSecrets.Lock()
	defer openSecrets.Unlock()
	return len(openSecrets.m)
}

// resetOpenSecrets empties the process-wide memo, so a test starts cold.
func resetOpenSecrets() {
	openSecrets.Lock()
	defer openSecrets.Unlock()
	clear(openSecrets.m)
}
