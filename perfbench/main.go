// Command perfbench is the repository's benchmark. One run executes one
// workload for a fixed time, checks every output, and prints its
// end-to-end metrics; with -trace 1 it runs the workload again with span
// recording and prints the per-layer metrics instead. See README.md for
// the workloads, the metrics and what each layer metric should move.
//
//	go run . -workload fig10-cold -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"
)

// heldOutSeed is never used while tuning the benchmark or a change; a
// claimed gain must also hold on it.
const heldOutSeed = 977

// env is what a workload gets from the command line.
type env struct {
	seed    uint64
	seconds time.Duration
	dir     string  // scratch directory for this run, removed at exit
	tr      *tracer // nil in the untraced phase
}

// workload is one benchmark workload. prepare generates the inputs from
// the seed; setup is the program's set-up, run once per repetition, and
// leaves the workload ready to time; run is one timed phase; verify
// checks outputs after timing; layers fills the per-layer metrics of a
// traced run.
type workload interface {
	prepare(e *env) error
	setup(e *env, rep int) error
	run(e *env, d time.Duration) (loopResult, error)
	verify(e *env) error
	layers(e *env, m metrics) error
	close()
}

// trimmer is a workload that holds data of its own, such as reference
// copies of its inputs, that timing does not need: trim finishes the
// benchmark's own work on it and drops it before the peak resident set
// starts counting.
type trimmer interface{ trim() error }

// calibrator is an open-loop workload. calibrate measures its capacity:
// it runs the workload's own mix at full load in a closed loop, after
// set-up and before timing, and prints how the fixed open-loop rate
// compares with the throughput it reached. The returned ops are checked
// like the timed ones.
type calibrator interface {
	calibrate(e *env) (loopResult, error)
}

// loadShare is the open-loop rate of each serving workload as a share of
// its capacity on the reference machine named in README.md: a server
// busy enough that latency includes some queueing, and idle enough that
// the load generator keeps its schedule. The rate is fixed, not taken
// from each run's own calibration, so a run's latency does not inherit
// the noise of a 3 s capacity measurement, and a slower server meets the
// same offered load.
const loadShare = 0.3

// capacitySeconds is how long calibration runs at full load.
const capacitySeconds = 3

var workloads = map[string]func() workload{
	"fig10-cold":   func() workload { return &fig10{} },
	"serve-read":   func() workload { return &serveRead{} },
	"serve-edit":   func() workload { return &serveEdit{} },
	"restart-cold": func() workload { return &restartCold{} },
}

// workloadOrder is the order -workload all runs them in.
var workloadOrder = []string{"fig10-cold", "serve-read", "serve-edit", "restart-cold"}

// Set-up runs at least minSetupReps times, and more while the
// repetitions so far took less than setupSeconds, up to maxSetupReps;
// setup_s is their median. A set-up of a fraction of a second is thus
// repeated often enough for its median to be steady, and a long one
// costs at most a few repetitions.
const (
	minSetupReps = 3
	maxSetupReps = 25
	setupSeconds = 3
)

func main() {
	name := flag.String("workload", "", "workload: fig10-cold, serve-read, serve-edit, restart-cold, or all to run each in turn")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	work := flag.String("workdir", ".bench_build", "directory for inputs, data dirs and traces")
	flag.Parse()
	names := []string{*name}
	if *name == "all" {
		names = workloadOrder
	}
	failed := false
	for _, n := range names {
		correct, err := run(n, *seed, *seconds, *trace == 1, *work)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		failed = failed || !correct
	}
	if failed {
		os.Exit(1)
	}
}

// run executes one workload and prints its result. It reports whether
// every output was correct; an error means no result was printed.
func run(name string, seed uint64, seconds int, traced bool, work string) (bool, error) {
	mk, ok := workloads[name]
	if !ok {
		return false, fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return false, fmt.Errorf("-seconds must be at least 1")
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return false, err
	}
	dir, err := os.MkdirTemp(work, fmt.Sprintf("%s-%d-", name, seed))
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(dir)
	e := &env{seed: seed, seconds: time.Duration(seconds) * time.Second, dir: dir}
	fmt.Printf("machine: %s\n", machineLine())
	fmt.Printf("workload %s seed %d seconds %d trace %v (held-out seed: %d)\n", name, seed, seconds, traced, heldOutSeed)

	w := mk()
	defer w.close()
	stage := time.Now()
	lap := func(name string) {
		fmt.Printf("stage %-8s %.2f s\n", name, time.Since(stage).Seconds())
		stage = time.Now()
	}
	if err := w.prepare(e); err != nil {
		return false, fmt.Errorf("inputs: %w", err)
	}
	lap("inputs")
	var setup samples
	setupStart := time.Now()
	for rep := 0; rep < minSetupReps || rep < maxSetupReps && time.Since(setupStart) < setupSeconds*time.Second; rep++ {
		t0 := time.Now()
		if err := w.setup(e, rep); err != nil {
			return false, fmt.Errorf("setup: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	lap("setup")

	var probe loopResult
	if c, ok := w.(calibrator); ok {
		if probe, err = c.calibrate(e); err != nil {
			return false, fmt.Errorf("calibration: %w", err)
		}
		lap("capacity")
	}
	m := metrics{}
	if len(probe.records) > 0 {
		m.setN("loadgen.capacity_ops_s", float64(len(probe.records))/probe.wall.Seconds(), "ops/s", len(probe.records),
			"closed loop at full load on the workload's mix")
	}
	// The peak resident set counts from here: benchmark-only data is
	// dropped and returned to the OS first, so the figure belongs to the
	// program's work in the timed phase, not to input generation, earlier
	// set-ups or output checks.
	if t, ok := w.(trimmer); ok {
		if err := t.trim(); err != nil {
			return false, fmt.Errorf("trim: %w", err)
		}
	}
	debug.FreeOSMemory()
	peakNote := "peak resident set (VmHWM) over the timed phase"
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		peakNote = "peak resident set over the whole process: this kernel cannot reset VmHWM"
	}

	// timed is the untraced phase, the source of the end-to-end figures.
	// A traced run splits its time: an untraced half, the baseline for
	// trace.overhead_ratio, then a half with spans.
	d := e.seconds
	if traced {
		d /= 2
	}
	timed, err := w.run(e, d)
	if err != nil {
		return false, err
	}
	peak, err := peakRSSMB()
	if err != nil {
		return false, err
	}
	m.setN("peak_rss_mb", peak, "MiB", 0, peakNote)
	var tracedRes loopResult
	if traced {
		e.tr = newTracer()
		tracedRes, err = w.run(e, d)
		if err != nil {
			return false, err
		}
		base, _, _, _ := latencies(timed.records, false).percentile(50)
		withSpans, _, _, _ := latencies(tracedRes.records, false).percentile(50)
		m.set("trace.overhead_ratio", ratio(withSpans, base)-1, "ratio")
		addRungs(m, tracedRes)
		addReuse(m, tracedRes)
		if err := w.layers(e, m); err != nil {
			return false, fmt.Errorf("layers: %w", err)
		}
	}
	lap("timed")
	verifyErr := w.verify(e)
	lap("verify")
	s := summarize(timed)
	s.addEndToEnd(m, setup)
	if traced {
		s.addLoadgen(m)
		for mod, ms := range e.tr.selfTimeMS() {
			m.set("self_ms."+mod, ms, "ms")
		}
		traces := filepath.Join(work, "traces")
		if err := os.MkdirAll(traces, 0o755); err != nil {
			return false, err
		}
		path := filepath.Join(traces, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
		if err := e.tr.write(path); err != nil {
			return false, err
		}
		fmt.Printf("trace: %s\n", path)
	}
	m.print()

	// Every op of calibration and both phases counts towards attempted,
	// failed and the output check; an op that fails or answers wrongly
	// fails the run.
	all := summarize(loopResult{records: slices.Concat(probe.records, timed.records, tracedRes.records)})
	correct := verifyErr == nil && all.failed() == 0
	if verifyErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: wrong output:", verifyErr)
	}
	if all.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d ops failed, the first with: %v\n", all.failed()-all.wrong, all.firstErr)
	}
	if all.wrong > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d ops returned wrong output\n", all.wrong)
	}
	names := endToEndNames
	if traced {
		names = perLayerNames
	}
	return correct, printResult(correct, all.attempted, all.failed(), m, names)
}

// machineLine names the CPU, core count, GOMAXPROCS and Go version.
func machineLine() string {
	cpu := "unknown CPU"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("%s, nproc=%d, GOMAXPROCS=%d, %s", cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

// peakRSSMB reads the process's peak resident set, VmHWM, from
// /proc/self/status.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// metric is one named figure with its unit; n is the sample count it
// rests on (0 when not a sampled statistic).
type metric struct {
	value float64
	unit  string
	n     int
	note  string
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{value: v, unit: unit} }

func (m metrics) setN(name string, v float64, unit string, n int, note string) {
	m[name] = metric{value: v, unit: unit, n: n, note: note}
}

// print lists every metric, one per line, with its sample count.
func (m metrics) print() {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := m[n]
		line := fmt.Sprintf("  %-34s %14.4f %s", n, v.value, v.unit)
		if v.n > 0 {
			line += fmt.Sprintf("  (n=%d)", v.n)
		}
		if v.note != "" {
			line += "  " + v.note
		}
		fmt.Println(line)
	}
}

// printResult writes the final JSON line with the listed metrics; a
// metric the workload did not measure is reported as 0.
func printResult(correct bool, attempted, failed int, m metrics, names []metricName) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, map[string]value{}}
	for _, n := range names {
		out.Metrics[n.name] = value{m[n.name].value, n.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
