//go:build !unix

package relay

import "os"

// Non-unix platforms fall back to in-process serialization only: appends
// from separate processes are still each a single O_APPEND write and
// appends within one process stay serialized by the JournalRegistry mutex,
// but compaction cannot exclude another process's appends, so one could be
// lost across a generation flip. Run one relayd per deploy dir on such
// platforms.
func lockFile(*os.File) error   { return nil }
func unlockFile(*os.File) error { return nil }

// FlockSupported reports whether this platform provides real cross-process
// advisory locking for the registry files.
const FlockSupported = false
