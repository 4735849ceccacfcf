// Command perfbench is the repository's benchmark. It boots in-process
// Hoplite clusters through the public API, drives one named workload
// closed-loop for a fixed time, verifies every output byte for byte, and
// prints a human-readable report followed, on its last line, by one JSON
// object holding the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run).
//
//	bash perfbench/run.sh --workload collective --seed 1 --seconds 30 --trace 0
//
// --workload all runs every workload untraced and then traced, printing
// each run's report and result line.
//
// See README.md in this directory for the workloads and what each metric
// is expected to move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	setups   int
	workdir  string
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // percentile and sample count, or why it is 0
}

// outcome is everything one invocation measured.
type outcome struct {
	correct           bool
	attempted, failed int
	json              []metric // the metrics the last output line carries
	report            []metric // everything, for the human-readable report
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", ")+
		", or all (each one untraced, then traced)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced window")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build/run", "scratch directory (spill files), removed at exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (workloads[cfg.workload] == nil && cfg.workload != "all") || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s or all), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg.trace = trace == 1
	cfg.setups = setupRuns
	defer os.RemoveAll(cfg.workdir)
	if cfg.workload != "all" {
		return runOne(cfg, stdout, stderr)
	}
	code := 0
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			cfg.workload, cfg.trace = name, traced
			if c := runOne(cfg, stdout, stderr); c != 0 {
				code = c
			}
		}
	}
	return code
}

// runOne runs one workload and prints its report and result line.
func runOne(cfg config, stdout, stderr io.Writer) int {
	out, err := execute(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	printReport(stdout, cfg, out)
	line, err := resultJSON(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.correct {
		fmt.Fprintln(stderr, "perfbench: output check failed")
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// setupRuns is how many times a run boots its cluster; setup_s is the
// median of their times.
const setupRuns = 3

// execute boots the cluster cfg.setups times (keeping the last), runs the
// measured window(s), drains, runs the probes that change node state, and
// checks residue.
func execute(cfg config) (*outcome, error) {
	wl := workloads[cfg.workload]
	baseGoroutines := runtime.NumGoroutine()
	window := time.Duration(cfg.seconds * float64(time.Second))

	var setups []float64
	var b *bench
	for i := 0; i < cfg.setups; i++ {
		if b != nil {
			b.close()
		}
		runtime.GC() // the previous cluster's garbage is not this set-up's cost
		t0 := time.Now()
		nb, err := boot(wl, cfg.seed, filepath.Join(cfg.workdir, fmt.Sprintf("boot-%d", i)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		b = nb
	}
	setup := metric{name: "setup_s", value: median(setups), unit: "s", note: fmt.Sprintf("median of %d set-ups", len(setups))}

	var measured, plain windowResult
	var lp *layerProbes
	if !cfg.trace {
		measured = b.window(window, false)
	} else {
		// Untraced and traced halves on the same cluster: the traced half
		// gives the per-layer numbers, the difference is the overhead.
		plain = b.window(window/2, false)
		var err error
		if lp, err = startProbes(b); err != nil {
			b.close()
			return nil, err
		}
		measured = b.window(window/2, true)
	}

	if lp != nil {
		lp.halt()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	b.cleanup(ctx)
	drainErr := b.gen.drain(ctx)
	if lp != nil {
		lp.afterWindow(ctx)
	}
	res := b.residue(ctx)
	b.close()
	leaked := goroutinesLeaked(baseGoroutines)

	out := &outcome{
		correct:   measured.rec.failures["mismatch"] == 0 && plain.mismatches() == 0 && (lp == nil || lp.mismatches == 0),
		attempted: measured.rec.attempted,
		failed:    measured.rec.failed,
	}
	e2e := endToEnd(wl, setup, measured)
	if !cfg.trace {
		out.json = e2e
		out.report = append(append(e2e, workloadMetrics(measured)...), residueMetrics(res, leaked)...)
	} else {
		layers := perLayer(wl, b, measured, plain, lp, res, leaked)
		out.json = layers
		out.report = append(out.report, prefixed("untraced.", append(endToEnd(wl, setup, plain), workloadMetrics(plain)...))...)
		out.report = append(out.report, prefixed("traced.", append(e2e, workloadMetrics(measured)...))...)
		out.report = append(out.report, layers...)
	}
	if drainErr != nil {
		out.report = append(out.report, metric{name: "drain_error", unit: "count", value: 1, note: drainErr.Error()})
	}
	return out, nil
}

// windowResult is what one measured window recorded.
type windowResult struct {
	rec      *recorder
	tr       *tracer
	start    time.Time
	elapsed  time.Duration
	nodes    nodeCounters
	rt       runtimeCounters
	peakHeap uint64
}

func (w windowResult) mismatches() int {
	if w.rec == nil {
		return 0
	}
	return w.rec.failures["mismatch"]
}

// window runs the workload's clients closed-loop for d.
func (b *bench) window(d time.Duration, traced bool) windowResult {
	w := windowResult{rec: newRecorder()}
	if traced {
		w.tr = newTracer()
	}
	b.rec, b.tr = w.rec, w.tr
	b.cw = newCounterWindow(b.c.Nodes(), readNode)
	runtime.GC() // start every window from the same collector state
	rt0 := readRuntime()
	heap := startHeapSampler(10 * time.Millisecond)
	t0 := time.Now()
	w.start = t0
	end := t0.Add(d)
	done := make(chan struct{})
	for c := 0; c < b.wl.clients; c++ {
		go func(c int) {
			defer func() { done <- struct{}{} }()
			for time.Now().Before(end) {
				b.runOp(c)
			}
		}(c)
	}
	for c := 0; c < b.wl.clients; c++ {
		<-done
	}
	w.elapsed = time.Since(t0)
	w.peakHeap = heap.finish()
	w.rt = readRuntime().sub(rt0)
	w.nodes = b.cw.delta(b.c.Nodes())
	return w
}

// residue is what is left after the final deletes.
type residue struct {
	dirObjects int   // directory entries, summed over every shard replica
	storeBytes int64 // bytes held by node stores
	spillBytes int64 // bytes held in spill files
}

// residue waits briefly for deletes to settle, then reads what remains.
func (b *bench) residue(ctx context.Context) residue {
	var r residue
	for deadline := time.Now().Add(time.Second); ; time.Sleep(20 * time.Millisecond) {
		r = residue{}
		for _, n := range b.c.Nodes() {
			if n == nil {
				continue
			}
			if s := n.ShardServer(); s != nil {
				r.dirObjects += s.Stats().Objects
			}
			r.storeBytes += n.Store().Used()
			if sp := n.Spill(); sp != nil {
				r.spillBytes += sp.Used()
			}
		}
		if r == (residue{}) || time.Now().After(deadline) || ctx.Err() != nil {
			return r
		}
	}
}

// goroutinesLeaked reports goroutines still alive after every cluster was
// closed, beyond those alive before the first boot.
func goroutinesLeaked(base int) int {
	var n int
	for deadline := time.Now().Add(3 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		n = runtime.NumGoroutine() - base
		if n <= 0 {
			return 0
		}
		if time.Now().After(deadline) {
			return n
		}
	}
}

func prefixed(p string, ms []metric) []metric {
	out := make([]metric, len(ms))
	for i, m := range ms {
		m.name = p + m.name
		out[i] = m
	}
	return out
}

func printReport(w io.Writer, cfg config, out *outcome) {
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g %s: attempted=%d failed=%d correct=%v\n",
		cfg.workload, cfg.seed, cfg.seconds, mode, out.attempted, out.failed, out.correct)
	for _, m := range out.report {
		fmt.Fprintf(w, "  %-40s %14.4f %-8s %s\n", m.name, m.value, m.unit, m.note)
	}
}

func resultJSON(out *outcome) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(out.json))
	for _, m := range out.json {
		if _, dup := ms[m.name]; dup {
			return nil, errors.New("duplicate metric " + m.name)
		}
		ms[m.name] = value{m.value, m.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.correct, out.attempted, out.failed, ms})
}
