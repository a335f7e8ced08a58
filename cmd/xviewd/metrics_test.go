package main

// End-to-end observability: run the daemon with durability on, drive a
// small workload over HTTP, scrape GET /metrics, and require the output
// to be valid Prometheus text exposition covering all four instrumented
// layers — the update pipeline, the serving engine, the compiled-path
// cache, and the WAL. The scrape is parsed with the same obs parser
// xviewctl uses, so every family the daemon emits must round-trip.

import (
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"rxview/internal/obs"
)

func TestMetricsScrapeCoversAllLayers(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := filepath.Join(t.TempDir(), "xviewd")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building xviewd: %v", err)
	}

	addr := freePort(t)
	cmd := exec.Command(bin, "-addr", addr, "-data", t.TempDir(),
		"-fsync", "off", "-slow-threshold", "1ns")
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Signal(syscall.SIGTERM)
		cmd.Wait()
	}()
	waitHealthy(t, addr)

	// A workload touching every layer: writes exercise the pipeline and
	// (with -data) the WAL, queries exercise the engine and the path cache.
	postJSON(t, addr, "/update", map[string]any{
		"kind": "insert", "type": "course",
		"values": []string{"CS870", "Scrape"}, "path": ".",
	}, nil)
	for i := 0; i < 3; i++ {
		postJSON(t, addr, "/query", map[string]string{"path": `//course[cno="CS870"]`}, nil)
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type %q is not Prometheus text exposition", ct)
	}

	// ParseExposition fails on any malformed line, so a successful parse
	// vouches for every family the daemon emitted, not just the ones the
	// layer checks below name.
	fams, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("scrape does not parse: %v", err)
	}
	byName := make(map[string]obs.ParsedFamily, len(fams))
	for _, f := range fams {
		if f.Type == "" {
			t.Errorf("family %s has no TYPE line", f.Name)
		}
		if len(f.Samples) == 0 {
			t.Errorf("family %s has no samples", f.Name)
		}
		byName[f.Name] = f
	}

	layers := map[string]string{
		"pipeline": "xview_pipeline_phase_seconds",
		"engine":   "xview_engine_queries_total",
		"cache":    "xview_path_cache_hits_total",
		"wal":      "xview_wal_appends_total",
	}
	for layer, fam := range layers {
		if _, ok := byName[fam]; !ok {
			t.Errorf("layer %s: family %s missing from scrape", layer, fam)
		}
	}

	// The workload above must be visible in the counters: one applied
	// update appended to the WAL, three served queries.
	if f, ok := byName["xview_engine_queries_total"]; ok && f.Samples[0].Value < 3 {
		t.Errorf("engine_queries_total = %v, want >= 3", f.Samples[0].Value)
	}
	if f, ok := byName["xview_wal_appends_total"]; ok && f.Samples[0].Value < 1 {
		t.Errorf("wal_appends_total = %v, want >= 1", f.Samples[0].Value)
	}
}
