package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median returns the middle value of xs (mean of the middle two for an even
// count), 0 for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartileSpread is (Q3 − Q1) / median with the exclusive quartile method
// of Python's statistics.quantiles(values, n=4) — the estimator the driver
// applies to ten runs.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k*(n+1)) / 4 // 1-based rank
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / m
}

// percentile is the nearest-rank p-th percentile of an ascending slice.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted))+0.9999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// segment is one exchangeable slice of a measured phase: whole periods of
// the workload, so every segment does the same work from the same state.
type segment struct {
	ops    int
	dur    time.Duration   // timed wall clock of the segment, probe samples left out
	lat    []time.Duration // per-operation latencies of the gated kind
	slow   float64         // the reference probe's slowdown over the segment (probe.go)
	traced bool
}

// atReference returns the segments with every time divided by the segment's
// slowdown: what they would have read at reference speed.
func atReference(segs []segment) []segment {
	out := make([]segment, len(segs))
	for i, s := range segs {
		out[i] = s
		out[i].dur = time.Duration(float64(s.dur) / s.slow)
		out[i].lat = make([]time.Duration, len(s.lat))
		for j, d := range s.lat {
			out[i].lat[j] = time.Duration(float64(d) / s.slow)
		}
	}
	return out
}

// segmentSampleFloor is the per-segment sample count from which a segment's
// own p99 has ten samples beyond it; below it the pooled p99 is reported.
const segmentSampleFloor = 1000

// segmentStats is what one segment contributes to the estimates.
type segmentStats struct {
	opsPerSec float64
	p50, p99  time.Duration
}

// estimates are the three end-to-end timings of a measured phase.
type estimates struct {
	opsPerSec  float64
	p50, p99   time.Duration
	p99Samples int // samples behind one p99: per segment, or pooled
	perSegment []segmentStats
}

// estimate reduces segments to the end-to-end timings: median segment
// throughput, median of segment medians, and the median of segment p99s. A
// steal burst or a GC cycle landing in one segment moves that segment, not
// the estimate. Where segments are too short to carry a p99 of their own,
// the p99 of all samples pooled stands in — unless even the pool is below
// the floor (restart: three samples a segment), where a nearest-rank p99 is
// the single worst sample of the run and the median of the segment maxima
// is reported instead.
func estimate(segs []segment) estimates {
	var est estimates
	var tput, p50s, p99s []float64
	var pooled []time.Duration
	ownP99 := true
	for _, s := range segs {
		var st segmentStats
		if s.dur > 0 {
			st.opsPerSec = float64(s.ops) / s.dur.Seconds()
			tput = append(tput, st.opsPerSec)
		}
		if len(s.lat) > 0 {
			l := append([]time.Duration(nil), s.lat...)
			sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
			st.p50, st.p99 = percentile(l, 50), percentile(l, 99)
			p50s, p99s = append(p50s, float64(st.p50)), append(p99s, float64(st.p99))
			pooled = append(pooled, l...)
			ownP99 = ownP99 && len(l) >= segmentSampleFloor
		}
		est.perSegment = append(est.perSegment, st)
	}
	est.opsPerSec, est.p50 = median(tput), time.Duration(median(p50s))
	if len(p99s) > 0 && (ownP99 || len(pooled) < segmentSampleFloor) {
		est.p99, est.p99Samples = time.Duration(median(p99s)), len(pooled)/len(p99s)
		return est
	}
	sort.Slice(pooled, func(i, j int) bool { return pooled[i] < pooled[j] })
	est.p99, est.p99Samples = percentile(pooled, 99), len(pooled)
	return est
}

// liveMB is the heap in use once everything collectable is collected: two
// cycles so finalizer-released memory is gone as well. Unlike peak RSS it
// does not depend on when the collector last ran.
func liveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// procStatSteal reads the cumulative steal time of all CPUs.
func procStatSteal() time.Duration {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0
	}
	fields := strings.Fields(sc.Text()) // cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return 0
	}
	const userHZ = 100
	return time.Duration(ticks) * time.Second / userHZ
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// environment is attached to every result: a number without it cannot be
// compared with another machine's or another configuration's.
type environment struct {
	Commit          string  `json:"commit"`
	Workload        string  `json:"workload"`
	Seed            int64   `json:"seed"`
	GoVersion       string  `json:"go_version"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	NumCPU          int     `json:"nproc"`
	CPUModel        string  `json:"cpu_model"`
	Kernel          string  `json:"kernel"`
	Fsync           string  `json:"fsync"`
	CheckpointEvery int     `json:"checkpoint_every"`
	NC              int     `json:"nc"`
	Segments        int     `json:"segments"`
	P99Samples      int     `json:"samples_per_p99"`
	OpHash          string  `json:"op_sequence_hash"`
	Seconds         float64 `json:"measured_seconds"`
	StealRatio      float64 `json:"steal_ratio"`
	// ProbeRoundTripUS over RefRoundTripUS is the slowdown the reported
	// timings have been divided by.
	ProbeRoundTripUS float64 `json:"probe_roundtrip_us"`
	RefRoundTripUS   float64 `json:"ref_roundtrip_us"`
}

func baseEnvironment() environment {
	env := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		Kernel:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(data))
	}
	return env
}
