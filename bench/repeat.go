package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// declared is the part of BENCHMARK.json the repeat mode and the tests
// read.
type declared struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readDeclared(path string) (*declared, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// repeatMain runs A interleaved sets of B runs of every workload — the same
// code, the same seeds in every set — and compares the sets the way the
// driver compares two: per (workload, end-to-end metric) every set's median
// and quartile spread, the largest relative gap between the medians of any
// two sets, and the declared bound. Same-code noise has no direction, so the
// gap is taken without its sign. It returns non-zero when a gap or a spread
// exceeds its bound. The spread of setup_s is printed and not gated: the
// driver's acceptance rule exempts it by name, because a set-up is short
// and measured five times where an operation is measured thousands of times.
func repeatMain(o options, out io.Writer) int {
	a, b, ok := strings.Cut(o.repeat, "x")
	sets, _ := strconv.Atoi(a)
	runs, _ := strconv.Atoi(b)
	if !ok || sets < 2 || runs < 2 {
		fmt.Fprintln(os.Stderr, "bench: -repeat wants AxB with A ≥ 2 sets of B ≥ 2 runs, e.g. 2x5")
		return 2
	}
	decl, err := readDeclared("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	// values[workload][metric][set] are the runs' values.
	values := map[string]map[string][][]float64{}
	for _, w := range decl.Workloads {
		values[w.Name] = map[string][][]float64{}
		for _, dm := range decl.EndToEnd {
			values[w.Name][dm.Name] = make([][]float64, sets)
		}
	}
	for k := 0; k < runs; k++ {
		for i := 0; i < sets; i++ {
			set := i
			if k%2 == 1 {
				set = sets - 1 - i // no set always runs first, or right after the build
			}
			for _, w := range decl.Workloads {
				seed := o.seed + int64(k)
				res, err := childRun(self, w.Name, seed, decl.RunSeconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w.Name, seed, err)
					return 2
				}
				fmt.Fprintf(out, "run set=%d workload=%s seed=%d ops_s=%v\n", set, w.Name, seed, res.Metrics["ops_s"].Value)
				for _, dm := range decl.EndToEnd {
					m, ok := res.Metrics[dm.Name]
					if !ok {
						fmt.Fprintf(os.Stderr, "bench: %s seed %d: the run did not report %s, which BENCHMARK.json declares\n", w.Name, seed, dm.Name)
						return 2
					}
					values[w.Name][dm.Name][set] = append(values[w.Name][dm.Name][set], m.Value)
				}
			}
		}
	}
	exit := 0
	fmt.Fprintf(out, "%-12s %-9s %8s %8s %6s  %s\n", "workload", "metric", "max|gap|", "maxspread", "bound", "median(spread) per set")
	for _, w := range decl.Workloads {
		for _, dm := range decl.EndToEnd {
			v := values[w.Name][dm.Name]
			var perSet strings.Builder
			var maxGap, maxSpread float64
			for i := range v {
				mi, si := median(v[i]), quartileSpread(v[i])
				fmt.Fprintf(&perSet, " %.6g(%.4f)", mi, si)
				maxSpread = max(maxSpread, si)
				for j := 0; j < i; j++ {
					mj := median(v[j])
					maxGap = max(maxGap, ratio(math.Abs(mi-mj), min(mi, mj)))
				}
			}
			verdict := "ok"
			switch {
			case maxGap > dm.Bound, dm.Name != "setup_s" && maxSpread > dm.Bound:
				verdict, exit = "OVER", 1
			case maxSpread > dm.Bound:
				verdict = "ok (spread over the bound, not gated for setup_s)"
			}
			fmt.Fprintf(out, "%-12s %-9s %8.4f %8.4f %6.2f %s  %s\n", w.Name, dm.Name, maxGap, maxSpread, dm.Bound, perSet.String(), verdict)
		}
	}
	return exit
}

// childRun runs one untraced run in a process of its own and parses the
// result off its last line.
func childRun(self, workload string, seed int64, seconds int) (*result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("parsing the result line: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("run reported %d failed operations of %d", res.Failed, res.Attempted)
	}
	return &res, nil
}
