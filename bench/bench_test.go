package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// small is a run at test scale: |C|=250, two segments, one set-up, traced
// so one run yields both metric sets. The test runs from bench/, so the
// run's scratch directory is bench/.bench_build.
func small(workload string, seed int64) options {
	return options{workload: workload, seed: seed, seconds: 1, trace: 1, nc: 250, segments: 2, setups: 1}
}

func runSmall(t *testing.T, o options, corrupt int) (*runner, *result, string) {
	t.Helper()
	t.Cleanup(func() { os.RemoveAll(".bench_build") })
	r, err := newRunner(o)
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(r.dir)
	r.corrupt = corrupt
	if err := r.run(); err != nil {
		t.Fatalf("%s: %v", o.workload, err)
	}
	var out bytes.Buffer
	res := r.report(&out, r.environment())
	return r, res, out.String()
}

// Every workload emits every declared metric exactly once, with the
// declared unit, and fails no operation.
func TestEveryWorkloadEmitsEveryDeclaredMetric(t *testing.T) {
	decl, err := readDeclared("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(decl.Workloads), len(workloads))
	}
	for _, dw := range decl.Workloads {
		w, ok := findWorkload(dw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json declares workload %q, the harness has none", dw.Name)
		}
		if dw.Why != w.why {
			t.Errorf("%s: BENCHMARK.json and the harness give different reasons", dw.Name)
		}
		r, res, out := runSmall(t, small(dw.Name, 1), 0)
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", dw.Name, res.Correct, res.Attempted, res.Failed)
		}
		check := func(kind string, want []declaredMetric, got map[string]metric) {
			if len(got) != len(want) {
				t.Errorf("%s: %d %s metrics emitted, %d declared", dw.Name, len(got), kind, len(want))
			}
			for _, dm := range want {
				m, ok := got[dm.Name]
				if !ok {
					t.Errorf("%s: declared %s metric %s not emitted", dw.Name, kind, dm.Name)
				} else if m.Unit != dm.Unit || m.Unit == "" {
					t.Errorf("%s: %s has unit %q, declared %q", dw.Name, dm.Name, m.Unit, dm.Unit)
				}
			}
		}
		check("per-layer", decl.PerLayer, res.Metrics)
		check("end-to-end", decl.EndToEnd, r.endToEnd())
		for _, dm := range decl.PerLayer {
			if n := strings.Count(out, "metric "+dw.Name+"/"+dm.Name+" "); n != 1 {
				t.Errorf("%s: metric %s printed %d times", dw.Name, dm.Name, n)
			}
		}
		for i, sg := range r.segs {
			if !(sg.slow > 0) {
				t.Errorf("%s: segment %d has slowdown %v: the reference probe took no sample in it", dw.Name, i, sg.slow)
			}
		}
		if r.w.name == "read-hot" && res.Metrics["server.memo_hit_ratio"].Value != 1 {
			t.Errorf("read-hot: memo hit ratio %v, want 1", res.Metrics["server.memo_hit_ratio"].Value)
		}
	}
}

// The seed, and nothing else, decides the operation sequence.
func TestSeedDeterminesOperationSequence(t *testing.T) {
	o := small("write-heavy", 7)
	o.trace = 0
	a, _, _ := runSmall(t, o, 0)
	b, _, _ := runSmall(t, o, 0)
	o.seed = 8
	c, _, _ := runSmall(t, o, 0)
	if a.opHash == 0 || a.opHash != b.opHash {
		t.Errorf("same seed, op-sequence hashes %016x and %016x", a.opHash, b.opHash)
	}
	if a.opHash == c.opHash {
		t.Errorf("seeds 7 and 8 gave the same op-sequence hash %016x", a.opHash)
	}
}

// A wrong answer is a failed operation, contributes no latency sample, and
// turns the exit code non-zero.
func TestWrongAnswerIsAFailedOperation(t *testing.T) {
	for _, w := range workloads {
		o := small(w.name, 1)
		o.trace, o.segments = 0, 1
		r, res, _ := runSmall(t, o, 1)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: injected wrong answers, got correct=%v failed=%d", w.name, res.Correct, res.Failed)
		}
		if exitCode(res, nil) == 0 {
			t.Errorf("%s: exit code 0 with %d failed operations", w.name, res.Failed)
		}
		samples := 0
		for _, s := range r.segs {
			samples += len(s.lat)
		}
		if samples+res.Failed > res.Attempted {
			t.Errorf("%s: %d samples + %d failed > %d attempted: a failed operation left a sample", w.name, samples, res.Failed, res.Attempted)
		}
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) = [3.5, 13.5, 31.0]
	xs := []float64{46, 1, 22, 2, 4, 37, 7, 11, 29, 16}
	if got, want := quartileSpread(xs), (31.0-3.5)/13.5; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}
