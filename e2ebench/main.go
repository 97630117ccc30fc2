// Command e2ebench is the repository's end-to-end benchmark. It builds the
// paper's SWT→STL deployment over loopback TCP in one process, drives one
// named open-loop workload against it, checks every answer, audits both
// ledgers afterwards, and prints the metrics as one JSON line. See
// README.md for the workloads, metrics and how to run it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/ledger"
	"repro/internal/relay"
)

// setupReps is how many times a measured run builds the deployment; it
// reports the median set-up cost and measures on the last build.
const setupReps = 3

// slices is how many slices a window is cut into.
const slices = 10

// metric is a value with its unit, as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := fs.String("workload", "read", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed for the schedule and keys")
	seconds := fs.Int("seconds", 25, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 runs an untraced and a traced window and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: bad arguments: workload %q seconds %d trace %d\n", *name, *seconds, *trace)
		return 2
	}
	res, err := measure(context.Background(), wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// measure runs one workload. Untraced, it reports the end-to-end metrics of
// one window. Traced, it runs an untraced window and then a traced one on
// the same deployment and reports the per-layer metrics.
func measure(ctx context.Context, wl workload, seed int64, d time.Duration, trace bool) (*result, error) {
	workers := runtime.NumCPU()
	host := readHostInfo()
	scheds := [][]op{makeSchedule(wl, seed, d)}
	reps := setupReps
	if trace {
		// The traced window draws its own schedule from the complemented
		// seed; set-up time is not reported, so one build suffices.
		scheds = append(scheds, makeSchedule(wl, ^seed, d))
		reps = 1
	}
	var (
		setupCPU, setupWall []float64
		e                   *env
	)
	for i := 0; i < reps; i++ {
		if e != nil {
			e.dep.close()
		}
		start := readUsage()
		var err error
		e, err = setup(ctx, wl, workers, scheds, trace)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		end := readUsage()
		setupCPU = append(setupCPU, (end.cpu - start.cpu).Seconds())
		setupWall = append(setupWall, end.at.Sub(start.at).Seconds())
	}
	defer e.dep.close()

	w := measureWindow(ctx, e, scheds[0], workers, d)
	hostLine, _ := json.Marshal(host)
	fmt.Printf("# host %s steal_frac=%.4f\n", hostLine, w.steal)
	fmt.Printf("# workload %s seed %d: %d ops in %.1fs with %d workers; set-up cpu %.3v s, wall %.3v s\n",
		wl.name, seed, len(scheds[0]), w.load.wall.Seconds(), workers, setupCPU, setupWall)
	w.printClasses()

	res := &result{Attempted: len(scheds[0]), Failed: w.failed, Metrics: map[string]metric{}}
	var spans []span
	var traced window
	if trace {
		e.tr.on.Store(true)
		traced = measureWindow(ctx, e, scheds[1], workers, d)
		e.tr.on.Store(false)
		spans = e.tr.takeSpans()
		res.Attempted += len(scheds[1])
		res.Failed += traced.failed
	}
	bad := e.audit(ctx)
	if trace {
		layers, err := perLayer(ctx, e, w, traced, spans)
		if err != nil {
			bad = append(bad, err.Error())
		}
		res.Metrics = layers
	} else {
		res.Metrics = endToEnd(w, medianFloat(setupCPU))
	}
	for _, b := range bad {
		fmt.Printf("# VIOLATION %s\n", b)
	}
	res.Correct = len(bad) == 0
	return res, nil
}

// window is one measured open-loop window with the resources it used.
type window struct {
	wl       workload
	sched    []op
	load     loadResult
	failed   int
	byClass  map[string]int
	cpuPerOp []float64 // ms per operation, one per slice
	peakRSS  float64   // MB
	steal    float64
	mem      runtime.MemStats // deltas over the window
	relay    relay.Stats      // counter deltas over the window
	ledgers  ledgerWindow
}

func measureWindow(ctx context.Context, e *env, sched []op, workers int, d time.Duration) window {
	w := window{wl: e.wl, sched: sched, byClass: map[string]int{}}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	heights := e.ledgerHeights()
	stats0 := e.dep.stats()
	u0 := readUsage()
	// CPU use is sampled at slice boundaries and cpu_ms_per_op is the
	// median over slices, so a burst of outside load in one slice does not
	// move it.
	cuts := make(chan []usage, 1)
	go func() {
		var at []usage
		for i := 1; i < slices; i++ {
			time.Sleep(time.Until(u0.at.Add(time.Duration(i) * d / slices)))
			at = append(at, readUsage())
		}
		cuts <- at
	}()
	w.load = runOpenLoop(ctx, sched, workers, e.do)
	u1 := readUsage()
	bounds := append(append([]usage{u0}, <-cuts...), u1)
	for i := 0; i < slices; i++ {
		n := 0
		for _, o := range sched {
			if o.due >= time.Duration(i)*d/slices && o.due < time.Duration(i+1)*d/slices {
				n++
			}
		}
		w.cpuPerOp = append(w.cpuPerOp, ratio(ms(bounds[i+1].cpu-bounds[i].cpu), float64(n)))
	}
	stats1 := e.dep.stats()
	runtime.ReadMemStats(&m1)
	w.peakRSS = float64(u1.maxRSSKB) / 1024
	w.steal = stealFrac(u0, u1)
	w.mem.TotalAlloc = m1.TotalAlloc - m0.TotalAlloc
	w.mem.Mallocs = m1.Mallocs - m0.Mallocs
	w.mem.PauseTotalNs = m1.PauseTotalNs - m0.PauseTotalNs
	w.relay = stats1.Sub(stats0)
	w.ledgers = e.ledgerWindow(heights)
	for _, o := range w.load.outcomes {
		if o.err != nil && !errors.Is(o.err, errWrongAnswer) {
			w.failed++
			w.byClass[classify(o.err)]++
		}
	}
	return w
}

// mixPercentile weights each operation class's p-th percentile latency,
// over the window's successful operations, by the class's share of the
// workload's mix. Unlike a percentile of all operations it does not jump
// between the classes' modes when a seed draws a slightly different mix.
func (w window) mixPercentile(p float64) time.Duration {
	var sum float64
	for _, s := range w.wl.mix {
		sum += float64(s.pct) / 100 * float64(percentile(w.latencies(s.kind), p))
	}
	return time.Duration(sum)
}

// latencies returns the latencies of the window's successful operations of
// the given kinds (all kinds when none are given).
func (w window) latencies(kinds ...opKind) []time.Duration {
	var out []time.Duration
	for i, o := range w.load.outcomes {
		if o.err != nil {
			continue
		}
		if len(kinds) == 0 || containsKind(kinds, w.sched[i].kind) {
			out = append(out, o.latency)
		}
	}
	return out
}

func containsKind(kinds []opKind, k opKind) bool {
	for _, x := range kinds {
		if x == k {
			return true
		}
	}
	return false
}

// printClasses prints, per operation class that occurred, the latency
// median and the highest percentile with at least ten samples beyond it,
// with the sample count, and the failures by class.
func (w window) printClasses() {
	classes := []struct {
		name  string
		kinds []opKind
	}{{"query", []opKind{opCold, opWarm}}, {"invoke", []opKind{opInvoke}}, {"accept", []opKind{opAccept}}, {"all", nil}}
	for _, c := range classes {
		lat := w.latencies(c.kinds...)
		if len(lat) == 0 {
			continue
		}
		p := tailPercentile(len(lat))
		fmt.Printf("# %s n=%d %s_p50_ms=%.3f %s_%s_ms=%.3f\n", c.name, len(lat),
			c.name, ms(percentile(lat, 50)), c.name, tailName(p), ms(percentile(lat, p)))
	}
	var failures []string
	for c, n := range w.byClass {
		failures = append(failures, fmt.Sprintf("%s=%d", c, n))
	}
	sort.Strings(failures)
	fmt.Printf("# failed_frac=%.4f %s\n", ratio(float64(w.failed), float64(len(w.sched))), strings.Join(failures, " "))
}

// endToEnd is the metric set a user of the system sees, from an untraced
// window. setupCPU is the median CPU seconds of a build: on a shared host
// CPU steal swings set-up wall time by half, while the work set-up does,
// which is what a change moving work into set-up adds, stays put.
func endToEnd(w window, setupCPU float64) map[string]metric {
	return map[string]metric{
		"setup_s":       {setupCPU, "s"},
		"mix_p10_ms":    {ms(w.mixPercentile(10)), "ms"},
		"cpu_ms_per_op": {medianFloat(w.cpuPerOp), "ms"},
		"peak_rss_mb":   {w.peakRSS, "MB"},
	}
}

// ledgerWindow counts the transactions both networks committed in a
// window.
type ledgerWindow struct {
	blocks, txs, valid, mvcc, dup int
}

func (e *env) ledgerHeights() [2]uint64 {
	w := e.dep.world
	return [2]uint64{w.STL.Fabric.AllPeers()[0].Blocks().Height(), w.SWT.Fabric.AllPeers()[0].Blocks().Height()}
}

func (e *env) ledgerWindow(from [2]uint64) ledgerWindow {
	var lw ledgerWindow
	w := e.dep.world
	for i, net := range []*ledger.BlockStore{w.STL.Fabric.AllPeers()[0].Blocks(), w.SWT.Fabric.AllPeers()[0].Blocks()} {
		for n := from[i]; n < net.Height(); n++ {
			b, err := net.Block(n)
			if err != nil {
				continue
			}
			lw.blocks++
			for _, tx := range b.Transactions {
				lw.txs++
				switch tx.Validation {
				case ledger.Valid:
					lw.valid++
				case ledger.MVCCConflict:
					lw.mvcc++
				case ledger.Duplicate:
					lw.dup++
				}
			}
		}
	}
	return lw
}
