package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo fingerprints the machine and build a run measured, so baselines
// from different hosts are not compared as if alike.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func readHostInfo() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
				h.CPUModel = strings.TrimSpace(val)
				break
			}
		}
	}
	// A checkout without git metadata leaves the revision unknown; the
	// BENCH_COMMIT environment variable names it then.
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		h.Commit = c
	} else if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// cpuTicks reads the aggregate cpu line of /proc/stat: steal ticks and all
// ticks. Zeros when the file is unreadable.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		// guest and guest_nice (fields 9 and 10) are already counted in user
		// and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// usage is the process's resource use at one moment.
type usage struct {
	at          time.Time
	cpu         time.Duration // user + sys
	maxRSSKB    int64
	steal, tick uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	u := usage{
		at:       time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSSKB: ru.Maxrss,
	}
	u.steal, u.tick = cpuTicks()
	return u
}

// stealFrac is the share of all CPU ticks between a and b that the
// hypervisor stole.
func stealFrac(a, b usage) float64 {
	return ratio(float64(b.steal-a.steal), float64(b.tick-a.tick))
}
