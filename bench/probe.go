package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"time"
)

// The reference probe.
//
// This benchmark runs on a shared VM whose speed moves in phases of seconds
// to minutes: measured here, work that stays inside the core's own caches
// keeps its pace to 4 %, while everything that enters the kernel or misses
// those caches — which is all a server does — ran up to 2× slower in a loud
// phase than in a quiet one, with no steal time reported. Ten runs of
// read-hot read 11.0 k to 19.6 k ops/s, a quartile spread of 0.50. No
// estimator inside a run sees past a phase that outlasts the run.
//
// So every run carries its own yardstick. The probe is a fixed piece of
// work that contains none of this repository's code: probeRequests round
// trips over a loopback connection to a net/http handler that discards the
// request and writes a constant body. It is sampled between the workload's
// operations, about every probeEvery of wall time, outside every timed
// region. A segment's slowdown is the mean round trip its samples saw over
// refRoundTrip, and ops_s, p50_us and p99_us are reported at reference speed:
// the measured time divided by the slowdown (throughput multiplied by it).
// setup_s is divided by the run's slowdown, the median over the segments
// of the measured phase that follows the set-ups within seconds: a handful
// of samples right around a set-up turned out too few to divide by (they
// doubled its spread), while the run's slowdown halved the gaps between the
// medians of sets of ten runs (12–18 % as measured, 5–10 % divided).
// On the same runs this took the quartile spreads from 0.11–0.53 down to
// 0.02–0.10. The measured values are printed next to the reported ones
// ("raw" lines), and the probe's own reading is the per-layer metric
// env.probe_roundtrip_us.
const (
	probeRequests = 40
	probeEvery    = 40 * time.Millisecond
	// refRoundTrip is what one probe round trip took on the machine in the
	// README's environment block in its quiet phases; it fixes the scale of
	// the reported values and nothing else.
	refRoundTrip = 30 * time.Microsecond
)

// probeBody is what the probe's handler answers: the size of a small /query
// response.
var probeBody = bytes.Repeat([]byte("0123456789abcdef"), 256)

// probe owns the reference server and its one client connection.
type probe struct {
	srv    *http.Server
	served chan error
	c      *client
	req    []byte

	last    time.Time
	spent   time.Duration   // total time inside samples: what timed regions leave out
	samples []time.Duration // round-trip means since the last cut
	err     error           // the first failed sample; checked once, at the end of the run
}

func newProbe() (*probe, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("reference probe: %w", err)
	}
	p := &probe{served: make(chan error, 1), req: queryBody(`//C[val="v0"]`)}
	p.srv = &http.Server{
		ReadHeaderTimeout: 5 * time.Second,
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.Copy(io.Discard, r.Body) // a short read shows as a failed sample on the client side
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(probeBody)
		}),
	}
	go func() { p.served <- p.srv.Serve(ln) }()
	p.c = newClient("http://"+ln.Addr().String(), nil)
	return p, nil
}

// close stops the reference server and waits for it.
func (p *probe) close() error {
	p.c.closeIdle()
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	err := p.srv.Shutdown(ctx)
	if serr := <-p.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// sample takes one sample now.
func (p *probe) sample() {
	t0 := time.Now()
	for i := 0; i < probeRequests; i++ {
		status, body, err := p.c.do(http.MethodPost, "/query", p.req)
		if err == nil && (status != http.StatusOK || len(body) != len(probeBody)) {
			err = fmt.Errorf("status %d, %d bytes", status, len(body))
		}
		if err != nil {
			if p.err == nil {
				p.err = fmt.Errorf("reference probe: %w", err)
			}
			break
		}
	}
	p.last = time.Now()
	d := p.last.Sub(t0)
	p.spent += d
	p.samples = append(p.samples, d/probeRequests)
}

// tick takes a sample when probeEvery has passed since the last one. The
// workloads call it between operations.
func (p *probe) tick() {
	if time.Since(p.last) >= probeEvery {
		p.sample()
	}
}

// around takes the samples that stand for an operation too long to sample
// inside (a reopen); it is called right before and right after. The first
// sample after a second of other work finds the caches cold and reads a
// fifth high; it is taken and not kept.
func (p *probe) around() {
	p.sample()
	p.samples = p.samples[:len(p.samples)-1]
	for i := 0; i < 4; i++ {
		p.sample()
	}
}

// cut ends a stretch of work and returns its slowdown: the mean round trip
// of the samples taken since the last cut (at least one: every segment
// starts with a sample), the slowest tenth left out (a GC cycle or an
// interrupt inside a sample), over refRoundTrip. 1 is reference speed, 1.5 a
// machine that takes half as long again.
func (p *probe) cut() float64 {
	xs := p.samples
	p.samples = nil
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	xs = xs[:len(xs)-len(xs)/10]
	var sum time.Duration
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs)) / float64(refRoundTrip)
}
