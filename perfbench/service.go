package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cmp"
	"repro/internal/config"
	"repro/internal/resultcache"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// daemon is one in-process fgstpd: the server behind a loopback HTTP
// listener, with a fresh result cache.
type daemon struct {
	srv   *server.Server
	hs    *http.Server
	url   string
	cache string
	done  chan error
}

// startDaemon is the service workload's set-up: open a fresh cache,
// start the server and its listener, and wait until /readyz answers.
func startDaemon(dir string, workers int, client *http.Client) (*daemon, error) {
	cache, err := os.MkdirTemp(dir, "cache-")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Workers: workers, CacheDir: cache})
	if err != nil {
		os.RemoveAll(cache)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(context.Background())
		os.RemoveAll(cache)
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(),
		cache: cache, done: make(chan error, 1)}
	go func() { d.done <- d.hs.Serve(ln) }()
	resp, err := client.Get(d.url + "/readyz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("readyz: %s", resp.Status)
		}
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop closes the listener, drains the server and removes its cache,
// returning once the serving goroutine has exited.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := d.srv.Drain(ctx); err == nil {
		err = derr
	}
	if rerr := os.RemoveAll(d.cache); err == nil {
		err = rerr
	}
	return err
}

// metricz scrapes the daemon's counters.
func (d *daemon) metricz(client *http.Client) (map[string]float64, error) {
	resp, err := client.Get(d.url + "/metricz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metricz %q: %w", sc.Text(), err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// outcome is one completed request.
type outcome struct {
	class   string // sim, bench or sweep
	cache   string // hit or miss (a sweep is a hit when every unit is)
	latency time.Duration
	err     error // transport error, non-200 or wrong bytes
}

// send issues one request and checks its response: status 200, and
// body bytes equal to the in-process rendering of the same request,
// whose digest the references hold. A sweep streams one document per
// unit; each must equal the bench document of its experiment.
func send(client *http.Client, base string, r request, want map[string]string) outcome {
	o := outcome{class: r.Class}
	start := time.Now()
	resp, err := client.Post(base+r.Path, "application/json", strings.NewReader(r.Body))
	if err != nil {
		o.err = err
		return o
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.latency = time.Since(start)
	switch {
	case err != nil:
		o.err = err
	case resp.StatusCode != http.StatusOK:
		o.err = fmt.Errorf("%s %s: %s", r.Path, r.Body, resp.Status)
	case r.Class == "sweep":
		o.cache, o.err = checkSweep(body, want)
	default:
		o.cache = resp.Header.Get(server.HeaderCache)
		o.err = check(want, r.Key, body)
	}
	return o
}

// sweepRecord is the part of an fgstpd.sweep/1 stream record the check
// reads: unit records carry a document, the summary carries done.
type sweepRecord struct {
	Experiment string `json:"experiment"`
	Insts      uint64 `json:"insts"`
	Status     int    `json:"status"`
	Exit       int    `json:"exit"`
	Cache      string `json:"cache"`
	Document   string `json:"document"`
	Done       bool   `json:"done"`
}

func checkSweep(body []byte, want map[string]string) (cache string, err error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	var header struct{ Units int }
	if err := dec.Decode(&header); err != nil {
		return "", fmt.Errorf("sweep header: %w", err)
	}
	cache = "hit"
	units := 0
	for {
		var rec sweepRecord
		if err := dec.Decode(&rec); err != nil {
			return "", fmt.Errorf("sweep stream ended without a summary: %w", err)
		}
		if rec.Done {
			if units != header.Units || rec.Exit != 0 {
				return "", fmt.Errorf("sweep summary: %d of %d units, exit %d", units, header.Units, rec.Exit)
			}
			return cache, nil
		}
		units++
		if rec.Status != http.StatusOK || rec.Exit != 0 {
			return "", fmt.Errorf("sweep unit %s: status %d exit %d", rec.Experiment, rec.Status, rec.Exit)
		}
		if rec.Cache != "hit" {
			cache = "miss"
		}
		if err := check(want, benchKey(rec.Experiment, rec.Insts), []byte(rec.Document)); err != nil {
			return "", fmt.Errorf("sweep unit: %w", err)
		}
	}
}

// runRound runs one round of the script against d with two clients
// sharing it: each takes the next request once its previous one has
// been answered (a closed loop). It returns the outcomes and the
// round's wall time. A non-nil span log gets one span per request.
func runRound(client *http.Client, d *daemon, script []request, want map[string]string, sp *spans, root int) ([]outcome, time.Duration) {
	out := make([]outcome, len(script))
	answered := make([]chan struct{}, len(script))
	for i := range answered {
		answered[i] = make(chan struct{})
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(script) {
					return
				}
				if script[i].Repeat {
					<-answered[script[i].Of] // taken earlier, so answered or in flight
				}
				_, end := sp.begin("server."+script[i].Class, root)
				out[i] = send(client, d.url, script[i], want)
				end()
				close(answered[i])
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// serviceRun accumulates the rounds of one run.
type serviceRun struct {
	walls       []float64 // untraced rounds
	cpus        []float64 // untraced rounds, normalised
	tracedWalls []float64
	requests    int // in untraced rounds
	lat         map[string][]float64
	counters    map[string]float64 // /metricz deltas over traced rounds
	peakQueue   float64
	traceBuilds []float64
	traceKeys   []float64
	traceInsts  int
}

func runService(rc runConfig, rep *report) {
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}}
	defer client.CloseIdleConnections()
	sr := &serviceRun{lat: map[string][]float64{}, counters: map[string]float64{}}
	if !rc.trace {
		rep.attempted++
		s, err := daemonSetup(rc, client)
		if err != nil {
			rep.fail(1, "service set-up: %v", err)
		}
		rep.set("setup_s", s)
	}
	round := 0
	var roundErr error
	loop(rc, func(traced bool) time.Duration {
		began := time.Now()
		if err := sr.round(rc, client, rc.seed, round, traced, rep); err != nil && roundErr == nil {
			roundErr = err
		}
		round++
		return time.Since(began)
	})
	if roundErr != nil {
		rep.fail(1, "service: %v", roundErr)
	}
	rc.logf("service: %d rounds, walls %v s, normalised cpus %v s", round, sr.walls, sr.cpus)
	if !rc.trace {
		rep.set("cpu_s", median(sr.cpus))
		return
	}
	rep.set("wall_s", median(sr.walls))
	rep.set("req_per_s", float64(sr.requests)/sum(sr.walls))
	hits := sr.lat["sim.hit"]
	tailV, beyond := tail(hits, 10)
	rep.set("sim_hit_p50_ms", median(hits))
	rep.set("sim_hit_tail_ms", tailV)
	rep.set("sim_hit_tail_beyond", float64(beyond))
	rep.set("sim_miss_p50_ms", median(sr.lat["sim.miss"]))
	rep.set("sweep_p50_ms", median(append(append([]float64(nil), sr.lat["sweep.hit"]...), sr.lat["sweep.miss"]...)))
	rep.set("server.bench.hit_p50_ms", median(sr.lat["bench.hit"]))
	rep.set("server.bench.miss_p50_ms", median(sr.lat["bench.miss"]))
	rc.logf("service: sim hit p50 %.1f ms, tail %.1f ms with %d of %d samples beyond", median(hits), tailV, beyond, len(hits))
	c := sr.counters
	rep.set("server.doc_hit_frac", c["fgstpd_cache_hits"]/(c["fgstpd_cache_hits"]+c["fgstpd_cache_misses"]))
	rep.set("server.cell_hit_frac", c["fgstpd_cell_hits"]/(c["fgstpd_cell_hits"]+c["fgstpd_cell_misses"]))
	rep.set("server.queue_depth_peak", sr.peakQueue)
	rep.set("server.rejected", c["fgstpd_rejected"]+c["fgstpd_shed"])
	rep.set("resultcache.puts", c["fgstpd_store_puts"])
	rep.set("resultcache.hits", c["fgstpd_store_hits"])
	build := sum(sr.traceBuilds)
	rep.set("trace.build_s", build)
	rep.set("trace.build_p50_ms", 1000*median(sr.traceBuilds))
	rep.set("trace.key_p50_ms", 1000*median(sr.traceKeys))
	rep.set("trace.minsts_per_s", float64(sr.traceInsts)/1e6/build)
	rep.attempted++
	overrun, err := cancelProbe(rc, client)
	if err != nil {
		rep.fail(1, "service cancel probe: %v", err)
	}
	rep.set("server.cancel_overrun_ms", overrun)
	rep.set("trace_overhead_pct", overheadPct(sr.walls, sr.tracedWalls))
}

// daemonSetup times the service workload's set-up, starting a daemon
// until it is ready.
func daemonSetup(rc runConfig, client *http.Client) (float64, error) {
	return timeSetup(func() (func() error, error) {
		d, err := startDaemon(rc.outDir, rc.jobs, client)
		if err != nil {
			return nil, err
		}
		return d.stop, nil
	})
}

// round starts a fresh daemon, runs one round of
// the script and stops the daemon. A traced round also records a span
// per request, scrapes /metricz around the script, and afterwards
// times the trace capture and cache-key hashing each /v1/sim request
// costs the daemon before its cache lookup.
func (sr *serviceRun) round(rc runConfig, client *http.Client, seed int64, round int, traced bool, rep *report) error {
	script := roundScript(seed, round)
	d, err := startDaemon(rc.outDir, rc.jobs, client)
	if err != nil {
		return err
	}
	var before map[string]float64
	var sp *spans
	if traced {
		if before, err = d.metricz(client); err != nil {
			d.stop()
			return err
		}
		sp = newSpans()
	}
	root, endRound := sp.begin("round", -1)
	a := rc.cal.mark()
	outs, wall := runRound(client, d, script, rc.refs.Service.Digests, sp, root)
	b := rc.cal.mark()
	endRound()
	for _, o := range outs {
		rep.attempted++
		if o.err != nil {
			rep.fail(1, "service %s: %v", o.class, o.err)
			continue
		}
		if !traced {
			sr.lat[o.class+"."+o.cache] = append(sr.lat[o.class+"."+o.cache], millis(o.latency))
		}
	}
	if !traced {
		sr.walls = append(sr.walls, seconds(wall))
		sr.cpus = append(sr.cpus, normalise(seconds(work(a, b)), chunkTime(a, b)))
		sr.requests += len(outs)
		return d.stop()
	}
	sr.tracedWalls = append(sr.tracedWalls, seconds(wall))
	after, err := d.metricz(client)
	if err != nil {
		d.stop()
		return err
	}
	for k, v := range after {
		sr.counters[k] += v - before[k]
	}
	sr.peakQueue = max(sr.peakQueue, after["fgstpd_queue_depth_peak"])
	if err := d.stop(); err != nil {
		return err
	}
	// Every round sends one /v1/sim request per workload.
	for _, w := range workloads.All() {
		_, end := sp.begin("trace.build", root)
		tr := w.Trace(simInsts)
		sr.traceBuilds = append(sr.traceBuilds, seconds(end()))
		sr.traceInsts += tr.Len()
		_, end = sp.begin("trace.key", root)
		if _, err := traceKey(tr); err != nil {
			return err
		}
		sr.traceKeys = append(sr.traceKeys, seconds(end()))
	}
	saveSpans(rc.outDir, sp, "service")
	return nil
}

// traceKey does what the daemon does to a captured trace before it
// looks up a /v1/sim request: serialise it and hash it into the cache
// key with the machine configuration.
func traceKey(tr *trace.Trace) (string, error) {
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		return "", err
	}
	m := config.Medium()
	cfg, err := m.ToJSON()
	if err != nil {
		return "", err
	}
	return resultcache.Key(cmp.EngineVersion, cfg, buf.Bytes(), "sim"), nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// The cancellation probe: two large /v1/sim requests with a short
// deadline occupy both workers; a tiny request sent at their deadline
// can only start once a worker lets go. A cell that has started runs to
// completion, so the gap between the deadline and the tiny request's
// start is the work done after the deadline.
const (
	probeTimeoutMs = 50
	probeBigInsts  = 1_000_000
	probeTinyInsts = 1_000
)

var probeBig = []string{"calculix", "leslie3d"}

func probeBigRequest(workload string) request {
	return request{Class: "sim", Path: "/v1/sim", Body: mustJSON(map[string]any{
		"workload": workload, "mode": "fgstp", "insts": probeBigInsts, "timeout_ms": probeTimeoutMs})}
}

func probeTinyRequest() request {
	return request{Class: "sim", Path: "/v1/sim", Key: fmt.Sprintf("sim/gcc/medium/%d/single", probeTinyInsts),
		Body: mustJSON(map[string]any{"workload": "gcc", "mode": "single", "insts": probeTinyInsts, "format": "json"})}
}

// cancelProbe returns the overrun in milliseconds. The server starts a
// request's deadline after validating it, which captures and hashes the
// trace; the probe times that same work here to place the deadline.
// The tiny request's start is its response time less its latency on an
// idle daemon. With two connections, the tiny request may also wait for
// a connection; both the connection and a worker come free when the
// first large request's work ends.
func cancelProbe(rc runConfig, client *http.Client) (float64, error) {
	d, err := startDaemon(rc.outDir, rc.jobs, client)
	if err != nil {
		return 0, err
	}
	defer d.stop()
	want := rc.refs.Service.Digests
	tiny := probeTinyRequest()
	var idle []float64
	for i := 0; i < 4; i++ { // the first is the miss that fills the cache
		o := send(client, d.url, tiny, want)
		if o.err != nil {
			return 0, o.err
		}
		if i > 0 {
			idle = append(idle, millis(o.latency))
		}
	}
	validate := make([]time.Duration, len(probeBig))
	for i, name := range probeBig {
		w, _ := workloads.ByName(name)
		t := time.Now()
		if _, err := traceKey(w.Trace(probeBigInsts)); err != nil {
			return 0, err
		}
		validate[i] = time.Since(t)
	}
	var wg sync.WaitGroup
	statuses := make([]int, len(probeBig))
	var deadline time.Time
	for i, name := range probeBig {
		sent := time.Now()
		if dl := sent.Add(validate[i] + probeTimeoutMs*time.Millisecond); dl.After(deadline) {
			deadline = dl
		}
		wg.Add(1)
		go func(i int, r request) {
			defer wg.Done()
			resp, err := client.Post(d.url+r.Path, "application/json", strings.NewReader(r.Body))
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses[i] = resp.StatusCode
		}(i, probeBigRequest(name))
	}
	time.Sleep(time.Until(deadline))
	sent := time.Now()
	o := send(client, d.url, tiny, want)
	wg.Wait()
	if o.err != nil {
		return 0, o.err
	}
	// A request whose only cell started before the deadline runs it to
	// the end and answers 200; one whose cells had not started answers
	// 504. Either is expected here.
	for i, st := range statuses {
		if st != http.StatusOK && st != http.StatusGatewayTimeout {
			return 0, fmt.Errorf("%s: status %d", probeBig[i], st)
		}
	}
	rc.logf("service: cancel probe statuses %v", statuses)
	started := sent.Add(o.latency - time.Duration(median(idle)*float64(time.Millisecond)))
	return millis(started.Sub(deadline)), nil
}
