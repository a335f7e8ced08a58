package main

// End-to-end replication: build the daemon, run a durable primary plus two
// -replica-of followers as real processes, SIGKILL one follower mid-stream,
// restart it, and require both followers to converge to the primary's exact
// state (same generation, same query results). A second test hosts three
// named views in one -views process — two primaries and a follower of the
// first through the /v/ prefix — and checks routing plus generation
// isolation over the wire.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildDaemon compiles the daemon binary once per test.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "xviewd")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building xviewd: %v", err)
	}
	return bin
}

// startDaemon launches the binary and waits for readiness — which for a
// follower also means caught up to within the follow watermark.
func startDaemon(t *testing.T, bin string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd
}

func getJSON(t *testing.T, addr, path string, out any) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("GET %s: %s: %s", path, resp.Status, buf.String())
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// nodeState fingerprints a serving node over the wire: its generation and
// the result counts of a query set.
func nodeState(t *testing.T, addr, prefix string, paths []string) string {
	t.Helper()
	var st struct {
		Generation uint64 `json:"generation"`
	}
	getJSON(t, addr, prefix+"/stats", &st)
	out := fmt.Sprintf("gen=%d", st.Generation)
	for _, q := range paths {
		var got struct {
			Count int `json:"count"`
		}
		postJSON(t, addr, prefix+"/query", map[string]string{"path": q}, &got)
		out += fmt.Sprintf(" %s=%d", q, got.Count)
	}
	return out
}

func TestReplicationPrimaryTwoFollowersKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills daemon binaries")
	}
	bin := buildDaemon(t)
	primaryAddr := freePort(t)
	primary := startDaemon(t, bin, "-addr", primaryAddr, "-data", t.TempDir(), "-fsync", "off")
	defer func() {
		primary.Process.Signal(syscall.SIGTERM)
		primary.Wait()
	}()
	waitHealthy(t, primaryAddr)

	insert := func(i int) map[string]any {
		return map[string]any{
			"kind": "insert", "type": "student",
			"path":   `//course[cno="CS650"]/takenBy`,
			"values": []string{fmt.Sprintf("SE%d", i), "E2E"},
		}
	}
	for i := 0; i < 6; i++ {
		postJSON(t, primaryAddr, "/update", insert(i), nil)
	}

	primaryURL := "http://" + primaryAddr
	followerArgs := func(addr string) []string {
		return []string{"-addr", addr, "-replica-of", primaryURL, "-follow-watermark", "0"}
	}
	f1Addr, f2Addr := freePort(t), freePort(t)
	f1 := startDaemon(t, bin, followerArgs(f1Addr)...)
	defer func() { f1.Process.Kill(); f1.Wait() }()
	f2 := startDaemon(t, bin, followerArgs(f2Addr)...)
	defer func() {
		f2.Process.Signal(syscall.SIGTERM)
		f2.Wait()
	}()
	// Readiness doubles as the catch-up barrier: with watermark 0 a
	// follower answers 200 only at zero lag.
	waitHealthy(t, f1Addr)
	waitHealthy(t, f2Addr)

	paths := []string{`//course[cno="CS650"]/takenBy/student`, `//student`, `//course`}
	want := nodeState(t, primaryAddr, "", paths)
	for _, fa := range []string{f1Addr, f2Addr} {
		if got := nodeState(t, fa, "", paths); got != want {
			t.Fatalf("follower %s diverged: %s, primary %s", fa, got, want)
		}
	}

	// A write against a follower is misdirected back to the primary.
	body, _ := json.Marshal(insert(100))
	resp, err := http.Post("http://"+f1Addr+"/update", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("follower /update = %s, want 421", resp.Status)
	}
	if got := resp.Header.Get("X-Xview-Primary"); got != primaryURL {
		t.Fatalf("X-Xview-Primary = %q, want %q", got, primaryURL)
	}

	// Kill follower 1 the hard way, keep writing, then restart it on the
	// same flags: it must re-sync from the primary's checkpoint + stream
	// and converge to the exact post-kill state.
	if err := f1.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	f1.Wait()
	for i := 6; i < 14; i++ {
		postJSON(t, primaryAddr, "/update", insert(i), nil)
	}
	f1b := startDaemon(t, bin, followerArgs(f1Addr)...)
	defer func() {
		f1b.Process.Signal(syscall.SIGTERM)
		f1b.Wait()
	}()
	waitHealthy(t, f1Addr)
	waitHealthy(t, f2Addr)

	want = nodeState(t, primaryAddr, "", paths)
	for _, fa := range []string{f1Addr, f2Addr} {
		if got := nodeState(t, fa, "", paths); got != want {
			t.Fatalf("follower %s after kill/restart: %s, primary %s", fa, got, want)
		}
	}
}

func TestViewsMultiTenantDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := buildDaemon(t)
	addr := freePort(t)
	spec := fmt.Sprintf(`[
	  {"name": "alpha", "data": %q, "fsync": "off"},
	  {"name": "beta", "dataset": "synthetic", "nc": 50, "seed": 7},
	  {"name": "mirror", "replica_of": "http://%s/v/alpha"}
	]`, t.TempDir(), addr)
	cfg := filepath.Join(t.TempDir(), "views.json")
	if err := os.WriteFile(cfg, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := startDaemon(t, bin, "-addr", addr, "-views", cfg, "-follow-watermark", "0")
	defer func() {
		cmd.Process.Signal(syscall.SIGTERM)
		cmd.Wait()
	}()
	waitHealthy(t, addr) // aggregate: 200 only once every tenant is ready

	var views struct {
		Views []struct {
			Name  string `json:"name"`
			State string `json:"state"`
		} `json:"views"`
	}
	getJSON(t, addr, "/views", &views)
	if len(views.Views) != 3 {
		t.Fatalf("/views listed %d tenants, want 3: %+v", len(views.Views), views)
	}

	for i := 0; i < 4; i++ {
		postJSON(t, addr, "/v/alpha/update", map[string]any{
			"kind": "insert", "type": "student",
			"path":   `//course[cno="CS650"]/takenBy`,
			"values": []string{fmt.Sprintf("SV%d", i), "Tenant"},
		}, nil)
	}

	var alpha, beta struct {
		Generation uint64 `json:"generation"`
	}
	getJSON(t, addr, "/v/alpha/stats", &alpha)
	getJSON(t, addr, "/v/beta/stats", &beta)
	if alpha.Generation != 4 || beta.Generation != 0 {
		t.Fatalf("generation isolation: alpha=%d beta=%d, want 4 and 0", alpha.Generation, beta.Generation)
	}

	// The mirror follows alpha through the registry's own /v/ prefix;
	// poll until it reports the primary's generation, then compare states.
	paths := []string{`//course[cno="CS650"]/takenBy/student`, `//student`}
	want := nodeState(t, addr, "/v/alpha", paths)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if got := nodeState(t, addr, "/v/mirror", paths); got == want {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("mirror never converged: %s, alpha %s", got, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// writeViews writes a -views file.
func writeViews(t *testing.T, spec string) string {
	t.Helper()
	cfg := filepath.Join(t.TempDir(), "views.json")
	if err := os.WriteFile(cfg, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestViewsRefusesPerViewFlags: a flag that configures the one view of
// single-view mode means nothing beside -views, so the daemon refuses to
// start and names every such flag it was given.
func TestViewsRefusesPerViewFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := buildDaemon(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cfg := writeViews(t, `[{"name": "alpha"}]`)
	out, err := exec.CommandContext(ctx, bin, "-addr", freePort(t), "-views", cfg,
		"-data", t.TempDir(), "-force", "-timeout", "5s").CombinedOutput()
	if ctx.Err() != nil || err == nil {
		t.Fatalf("xviewd -views -data -force did not refuse to start (err %v):\n%s", err, out)
	}
	for _, name := range []string{"-data", "-force"} {
		if !strings.Contains(string(out), name) {
			t.Errorf("refusal does not name %s:\n%s", name, out)
		}
	}
	if strings.Contains(string(out), "-timeout") {
		t.Errorf("refusal names -timeout, which applies to every view:\n%s", out)
	}
}

// TestViewsArmsChaos: -chaos is process-wide, so a -views daemon arms it
// too, before any tenant serves: the first commit meets the injected
// append failure (503, applied but not durable).
func TestViewsArmsChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := buildDaemon(t)
	addr := freePort(t)
	cfg := writeViews(t, fmt.Sprintf(`[{"name": "alpha", "data": %q, "fsync": "off"}]`, t.TempDir()))
	cmd := startDaemon(t, bin, "-addr", addr, "-views", cfg, "-chaos", "wal.append:count=1")
	defer func() {
		cmd.Process.Signal(syscall.SIGTERM)
		cmd.Wait()
	}()
	waitHealthy(t, addr)

	body := `{"kind":"insert","type":"student","path":"//course[cno=\"CS650\"]/takenBy","values":["SC1","Chaos"]}`
	resp, err := http.Post("http://"+addr+"/v/alpha/update", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(out), "injected") {
		t.Fatalf("first commit under -chaos wal.append:count=1 = %s %s, want 503 naming the injected fault", resp.Status, out)
	}
}
