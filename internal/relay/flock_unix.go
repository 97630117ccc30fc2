//go:build unix

package relay

import (
	"os"
	"syscall"
)

// lockFile takes an exclusive advisory flock on f, blocking until it is
// granted. flock locks attach to the open file description, so two
// JournalRegistry instances contend even inside one process — which is
// exactly what lets tests chaos-drive the cross-process protocol with
// goroutines standing in for separate relayd processes.
func lockFile(f *os.File) error {
	return syscall.Flock(int(f.Fd()), syscall.LOCK_EX)
}

// unlockFile releases the advisory lock taken by lockFile.
func unlockFile(f *os.File) error {
	return syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
}

// FlockSupported reports whether this platform provides real cross-process
// advisory locking for the registry files.
const FlockSupported = true
