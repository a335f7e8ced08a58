package main

// Remote introspection: scrape a running daemon's telemetry endpoints and
// render them for a terminal. Both commands are read-only HTTP GETs against
// the same surface Prometheus and curl use — xviewctl adds no privileged
// channel.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"rxview/internal/obs"
)

// baseURL normalizes an address argument: "localhost:8080", ":8080" and
// "http://host:8080" are all accepted.
func baseURL(addr string) string {
	if strings.HasPrefix(addr, "http://") || strings.HasPrefix(addr, "https://") {
		return strings.TrimRight(addr, "/")
	}
	if strings.HasPrefix(addr, ":") {
		addr = "localhost" + addr
	}
	return "http://" + addr
}

// fetch GETs a daemon endpoint, retrying overload and not-ready responses
// (429, 503) a few times with jittered exponential backoff. A Retry-After
// header, when the daemon sends one, overrides the backoff — the server
// knows its queue better than the client does.
func fetch(addr, path string) (io.ReadCloser, error) {
	cl := &http.Client{Timeout: 10 * time.Second}
	backoff := 100 * time.Millisecond
	for attempt := 0; ; attempt++ {
		resp, err := cl.Get(baseURL(addr) + path)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode == http.StatusOK {
			return resp.Body, nil
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		retryable := resp.StatusCode == http.StatusTooManyRequests ||
			resp.StatusCode == http.StatusServiceUnavailable
		if !retryable || attempt >= 3 {
			return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, strings.TrimSpace(string(body)))
		}
		d := backoff
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
				d = time.Duration(secs) * time.Second
			}
		}
		time.Sleep(d/2 + time.Duration(rand.Int63n(int64(d)/2+1)))
		backoff *= 2
	}
}

// exitCodeError carries a scripting exit code through the one-shot command
// path: main exits with code instead of the generic failure 1.
type exitCodeError struct {
	code int
	msg  string
}

func (e *exitCodeError) Error() string { return e.msg }

// healthCheck fetches /healthz and renders the node's serving state with
// scripting-friendly exit codes: 0 ready, 2 starting or stalled (loading,
// recovering, checkpointing), 3 degraded (read-only after a disk failure),
// 1 transport or usage errors. Unlike the other scrapes it never retries —
// a health probe reports the state it found, it does not wait one out.
func healthCheck(out io.Writer, addr string) error {
	if addr == "" {
		return fmt.Errorf("usage: health <addr>")
	}
	cl := &http.Client{Timeout: 10 * time.Second}
	resp, err := cl.Get(baseURL(addr) + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var in struct {
		OK         bool   `json:"ok"`
		State      string `json:"state"`
		Generation uint64 `json:"generation"`
		Digest     string `json:"digest"`
		QueueDepth int64  `json:"queue_depth"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&in); err != nil {
		return fmt.Errorf("decoding /healthz: %w", err)
	}
	fmt.Fprintf(out, "  state=%s generation=%d digest=%s queue_depth=%d (HTTP %d)\n",
		in.State, in.Generation, orNone(in.Digest), in.QueueDepth, resp.StatusCode)
	printLastRecovery(out, cl, addr)
	switch {
	case in.OK:
		return nil
	case in.State == "degraded":
		fmt.Fprintln(out, "  writes are refused while degraded; snapshot reads keep serving,"+
			" and the recovery prober restores read-write automatically")
		return &exitCodeError{code: 3, msg: "node is degraded (read-only)"}
	default:
		return &exitCodeError{code: 2, msg: "node is not ready: " + in.State}
	}
}

// printLastRecovery adds what the node's last restore cost — the
// xview_recovery_last_* gauges of /metrics — to a health report. A node that
// never restored (non-durable, or a genesis boot) has no such series, and a
// failed scrape is not a health verdict: both print nothing.
func printLastRecovery(out io.Writer, cl *http.Client, addr string) {
	resp, err := cl.Get(baseURL(addr) + "/metrics")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	fams, err := obs.ParseExposition(resp.Body)
	if err != nil {
		return
	}
	var secs, recs float64
	found := false
	for _, f := range fams {
		for _, s := range f.Samples {
			switch s.Name {
			case "xview_recovery_last_seconds":
				secs, found = s.Value, true
			case "xview_recovery_last_records":
				recs = s.Value
			}
		}
	}
	if found {
		fmt.Fprintf(out, "  last recovery: %s, %d records replayed\n",
			time.Duration(secs*float64(time.Second)).Round(time.Microsecond), int(recs))
	}
}

// metricsScrape fetches /metrics and summarizes each family: plain value
// for counters and gauges, count/sum plus interpolated p50/p95/p99 for
// histograms.
func metricsScrape(out io.Writer, addr string) error {
	if addr == "" {
		return fmt.Errorf("usage: metrics <addr>")
	}
	body, err := fetch(addr, "/metrics")
	if err != nil {
		return err
	}
	defer body.Close()
	fams, err := obs.ParseExposition(body)
	if err != nil {
		return fmt.Errorf("parsing exposition: %w", err)
	}
	for _, f := range fams {
		switch f.Type {
		case "histogram":
			printHistFamily(out, f)
		default:
			for _, s := range f.Samples {
				fmt.Fprintf(out, "  %-44s %s\n", s.Name+labelSuffix(s.Labels, ""), fmtValue(s.Value))
			}
		}
	}
	return nil
}

// scrapedHist is one histogram series reassembled from its cumulative
// _bucket/_sum/_count exposition lines: the finite buckets' counts are the
// differences of consecutive cumulative values, and the +Inf bucket gets
// what _count holds beyond the last one.
type scrapedHist struct {
	obs.HistSnapshot
	cum float64 // the last cumulative bucket value read
}

// printHistFamily regroups a histogram family's _bucket/_sum/_count series
// by label set and prints one summary line per series, its quantiles
// estimated as the daemon's own histograms estimate them.
func printHistFamily(out io.Writer, f obs.ParsedFamily) {
	series := map[string]*scrapedHist{}
	var order []string
	get := func(labels map[string]string) *scrapedHist {
		key := labelSuffix(labels, "le")
		h, ok := series[key]
		if !ok {
			h = &scrapedHist{}
			series[key] = h
			order = append(order, key)
		}
		return h
	}
	for _, s := range f.Samples {
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			h := get(s.Labels)
			le := s.Labels["le"]
			if le == "+Inf" {
				continue // the +Inf bucket equals _count
			}
			var bound float64
			fmt.Sscanf(le, "%g", &bound)
			h.Bounds = append(h.Bounds, bound)
			h.Counts = append(h.Counts, uint64(max(s.Value-h.cum, 0)))
			h.cum = s.Value
		case strings.HasSuffix(s.Name, "_sum"):
			get(s.Labels).Sum = s.Value
		case strings.HasSuffix(s.Name, "_count"):
			get(s.Labels).Count = uint64(s.Value)
		}
	}
	for _, key := range order {
		h := series[key]
		h.Counts = append(h.Counts, uint64(max(float64(h.Count)-h.cum, 0)))
		fmt.Fprintf(out, "  %-44s count=%s sum=%s p50=%s p95=%s p99=%s\n",
			f.Name+key, fmtValue(float64(h.Count)), fmtValue(h.Sum),
			fmtValue(h.P50()), fmtValue(h.P95()), fmtValue(h.P99()))
	}
}

// labelSuffix renders a label set as {k="v",...}, skipping one key (the
// histogram's le); empty sets render as nothing.
func labelSuffix(labels map[string]string, skip string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != skip {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return ""
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%q", k, labels[k])
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func fmtValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.6g", v)
}

// slowEntryJSON mirrors the wire shape of /debug/slow entries.
type slowEntryJSON struct {
	At       time.Time `json:"at"`
	Kind     string    `json:"kind"`
	Detail   string    `json:"detail"`
	Route    string    `json:"route"`
	Duration int64     `json:"duration_ns"`
	Gen      uint64    `json:"gen"`
}

type slowJSON struct {
	ThresholdNS int64           `json:"threshold_ns"`
	Dropped     uint64          `json:"dropped"`
	Entries     []slowEntryJSON `json:"entries"`
}

// slowDump fetches /debug/slow and prints the ring buffer, newest first.
func slowDump(out io.Writer, addr string) error {
	if addr == "" {
		return fmt.Errorf("usage: slow <addr>")
	}
	body, err := fetch(addr, "/debug/slow")
	if err != nil {
		return err
	}
	defer body.Close()
	var in slowJSON
	if err := json.NewDecoder(body).Decode(&in); err != nil {
		return fmt.Errorf("decoding /debug/slow: %w", err)
	}
	if in.ThresholdNS <= 0 {
		fmt.Fprintln(out, "  slow log disabled (start xviewd with -slow-threshold)")
		return nil
	}
	fmt.Fprintf(out, "  threshold %v, %d dropped, %d entr%s\n",
		time.Duration(in.ThresholdNS), in.Dropped, len(in.Entries), plural(len(in.Entries), "y", "ies"))
	for _, e := range in.Entries {
		if e.Route != "" {
			e.Detail += " [" + e.Route + "]"
		}
		fmt.Fprintf(out, "  %s %-7s gen=%-6d %-10v %s\n",
			e.At.Format(time.RFC3339), e.Kind, e.Gen, time.Duration(e.Duration), e.Detail)
	}
	return nil
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}
