// Command rxbench is the repository's benchmark: it serves the synthetic §5
// view over a loopback socket exactly as xviewd does, drives it from one
// closed-loop HTTP connection in the same process, checks every answer, and
// prints every metric by name with its unit. See README.md.
//
//	bash bench/run.sh --workload read-hot --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command line, and three fields only the tests set: the
// command line has no flag for them, so every run of a workload is at the
// workload's own scale and comparable with the baseline.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	traceOut string
	repeat   string

	nc       int // 0: the workload's |C|
	segments int // 0: fill seconds
	setups   int // 0: setupRepeats
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "read-hot, read-write, write-heavy or restart")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the operation sequence")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the measured phase")
	flag.IntVar(&o.trace, "trace", 0, "1: record spans and print the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&o.traceOut, "trace-out", "", "where a traced run writes its spans (default .bench_build/trace/<workload>-seed<n>.json)")
	flag.StringVar(&o.repeat, "repeat", "", "AxB: run A interleaved sets of B runs of every workload and compare their medians with the declared bounds")
	flag.Parse()

	// One P: client, server and collector take turns on one thread. On a
	// shared VM the second vCPU comes and goes, and with it the cost of
	// every goroutine hand-off between two threads; runs of the same code
	// then differ by 20 %. See README.md, "noise sources".
	runtime.GOMAXPROCS(1)

	if o.repeat != "" {
		os.Exit(repeatMain(o, os.Stdout))
	}
	res, err := runOnce(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	os.Exit(exitCode(res, err))
}

// exitCode is 0 only for a run that was carried out and whose every
// operation passed its checks.
func exitCode(res *result, err error) int {
	switch {
	case err != nil:
		return 2
	case !res.Correct:
		return 1
	}
	return 0
}

// newRunner validates the options and gives the run its scratch directory;
// the caller removes r.dir when done.
func newRunner(o options) (*runner, error) {
	w, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want read-hot, read-write, write-heavy or restart)", o.workload)
	}
	if o.nc > 0 {
		w.nc = o.nc
	}
	if o.seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1")
	}
	if o.setups == 0 {
		o.setups = setupRepeats
	}
	dir, err := scratchRoot()
	if err != nil {
		return nil, err
	}
	r := &runner{
		w: w, seed: o.seed, seconds: time.Duration(o.seconds) * time.Second,
		segments: o.segments, setups: o.setups, tr: newTracer(o.trace != 0), dir: dir,
	}
	if r.tr.on {
		r.setups = 1 // setup_s comes from the untraced run only
	}
	return r, nil
}

// runOnce performs one run and prints its report; the error return is for
// runs that could not be carried out at all, which print no result.
func runOnce(o options, out io.Writer) (*result, error) {
	r, err := newRunner(o)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.dir)
	if err := r.run(); err != nil {
		return nil, fmt.Errorf("%s: %w", r.w.name, err)
	}
	env := r.environment()
	res := r.report(out, env)
	if r.tr.on {
		path := o.traceOut
		if path == "" {
			path = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", r.w.name, o.seed))
		}
		if err := r.tr.write(path, env); err != nil {
			return nil, fmt.Errorf("writing the trace: %w", err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%s\n", line)
	return res, nil
}

func (r *runner) environment() environment {
	env := baseEnvironment()
	env.Workload, env.Seed, env.NC = r.w.name, r.seed, r.w.nc
	env.Fsync = "none (in-memory)"
	if r.w.durable {
		env.Fsync = "always"
		env.CheckpointEvery = 256 // the library default
		if r.w.ckptEvery > 0 {
			env.CheckpointEvery = r.w.ckptEvery
		}
	}
	env.P99Samples = r.est.p99Samples
	env.Segments, env.OpHash = len(r.segs), fmt.Sprintf("%016x", r.opHash)
	env.Seconds = r.measured.Seconds()
	env.ProbeRoundTripUS, env.RefRoundTripUS = r.probeRoundTripUS(), micros(refRoundTrip)
	if r.measured > 0 {
		env.StealRatio = r.steal.Seconds() / r.measured.Seconds()
	}
	return env
}

// slowdown is the run's slowdown: the median over the segments of the
// measured phase.
func (r *runner) slowdown() float64 {
	slow := make([]float64, len(r.segs))
	for i, s := range r.segs {
		slow[i] = s.slow
	}
	return median(slow)
}

// probeRoundTripUS is the reference probe's round trip as the measured
// phase saw it.
func (r *runner) probeRoundTripUS() float64 { return r.slowdown() * micros(refRoundTrip) }

// endToEnd computes the metrics a user of the server would see; the four
// timings are at reference speed (probe.go).
func (r *runner) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s": {r.setup.Seconds() / r.slowdown(), "s"},
		"ops_s":   {r.est.opsPerSec, "1/s"},
		"p50_us":  {micros(r.est.p50), "us"},
		"p99_us":  {micros(r.est.p99), "us"},
		"live_mb": {r.live, "MB"},
	}
}

// report prints the environment block and every metric of the run's mode,
// and returns the contract's result.
func (r *runner) report(out io.Writer, env environment) *result {
	if b, err := json.Marshal(env); err == nil {
		fmt.Fprintf(out, "env %s\n", b)
	}
	if env.StealRatio > 0.02 {
		fmt.Fprintf(os.Stderr, "bench: warning: %.1f%% of the measured phase was stolen by the hypervisor; treat this run as noisy\n", 100*env.StealRatio)
	}
	var metrics map[string]metric
	if r.tr.on {
		metrics = r.layers
	} else {
		metrics = r.endToEnd()
	}
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "metric %s/%s %v %s\n", r.w.name, name, metrics[name].Value, metrics[name].Unit)
	}
	if !r.tr.on {
		// The same estimators over the times as the clock read them.
		fmt.Fprintf(out, "raw %s/setup_s %v s\n", r.w.name, r.setup.Seconds())
		fmt.Fprintf(out, "raw %s/ops_s %v 1/s\n", r.w.name, r.raw.opsPerSec)
		fmt.Fprintf(out, "raw %s/p50_us %v us\n", r.w.name, micros(r.raw.p50))
		fmt.Fprintf(out, "raw %s/p99_us %v us\n", r.w.name, micros(r.raw.p99))
	}
	// One line per segment statistic, as measured, and the slowdown the
	// probe saw: a loud phase of the host shows here as a regime change in
	// all four lines at once, which the metrics above take out on purpose.
	fmt.Fprintf(out, "segment_slowdown %s", r.w.name)
	for _, s := range r.segs {
		fmt.Fprintf(out, " %.4g", s.slow)
	}
	fmt.Fprintln(out)
	for _, row := range []struct {
		name string
		of   func(segmentStats) float64
	}{
		{"segment_ops_s", func(s segmentStats) float64 { return s.opsPerSec }},
		{"segment_p50_us", func(s segmentStats) float64 { return micros(s.p50) }},
		{"segment_p99_us", func(s segmentStats) float64 { return micros(s.p99) }},
	} {
		fmt.Fprintf(out, "%s %s", row.name, r.w.name)
		for _, s := range r.raw.perSegment {
			fmt.Fprintf(out, " %.5g", row.of(s))
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "operations %s attempted=%d failed=%d segments=%d measured=%.2fs\n",
		r.w.name, r.attempted, r.failed, len(r.segs), r.measured.Seconds())
	return &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics}
}
