// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time, checks every result document it produces
// against recorded digests, and prints its metrics as one JSON line:
//
//	perfbench --workload suite|sampled|service --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics of untraced passes.
// With --trace 1 it alternates untraced and traced passes, and prints
// the per-layer metrics the traced passes measured by timing each call
// the benchmark makes into a layer, plus the tracing overhead. Spans of
// the last traced pass are written to $CARGO_TARGET_DIR/perfbench
// (default .bench_build/perfbench).
//
//	perfbench regen [-o perfbench/refs.json]
//
// records the reference digests and exact IPCs for the current engine
// version.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/metrics"
	"repro/internal/workloads"
)

// metricDef names a metric, its unit and which direction is better.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics every workload reports from untraced passes.
// Times are CPU time of the whole process, all threads together, at the
// host speed of refChunk (see calib.go): on a shared host, wall time
// measures the neighbours as much as the program (wall_s is a
// per-layer metric).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
	{"ok_frac", "1", "higher"},
}

// perLayer are the metrics of traced runs. A workload that does not
// exercise a layer reports its metrics as 0.
var perLayer = func() []metricDef {
	d := []metricDef{
		{"wall_s", "s", "lower"},
		{"paper_gap_pp", "pp", "lower"},
		{"sampled_ipc_err_pct", "%", "lower"},
		{"req_per_s", "1/s", "higher"},
		{"sim_hit_p50_ms", "ms", "lower"},
		{"sim_hit_tail_ms", "ms", "lower"},
		{"sim_hit_tail_beyond", "count", "higher"},
		{"sim_miss_p50_ms", "ms", "lower"},
		{"sweep_p50_ms", "ms", "lower"},
		{"trace_overhead_pct", "%", "lower"},
		{"trace.build_s", "s", "lower"},
		{"trace.minsts_per_s", "Minst/s", "higher"},
		{"trace.build_p50_ms", "ms", "lower"},
		{"trace.key_p50_ms", "ms", "lower"},
		{"simpoint.choose_s", "s", "lower"},
		{"simpoint.ci_miss", "count", "lower"},
	}
	for _, m := range layerModes {
		d = append(d, metricDef{"checkpoint." + m + ".warm_s", "s", "lower"})
	}
	for _, m := range layerModes {
		d = append(d, metricDef{"slice." + m + ".busy_s", "s", "lower"})
	}
	d = append(d,
		metricDef{"slice.count", "count", "lower"},
		metricDef{"slice.detailed_insts_frac", "1", "lower"})
	for _, m := range layerModes {
		d = append(d,
			metricDef{"engine." + m + ".busy_s", "s", "lower"},
			metricDef{"engine." + m + ".cells", "count", "lower"},
			metricDef{"engine." + m + ".minsts_per_s", "Minst/s", "higher"},
			metricDef{"engine." + m + ".host_ns_per_cycle", "ns", "lower"})
	}
	d = append(d,
		metricDef{"hotblock.replayed_insts_frac", "1", "higher"},
		metricDef{"hotblock.templates", "count", "higher"},
		metricDef{"hotblock.wasted_frac", "1", "lower"},
		metricDef{"sched.utilization", "1", "higher"})
	for _, id := range []string{"E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10"} {
		d = append(d, metricDef{"experiments." + id + "_s", "s", "lower"})
	}
	d = append(d,
		metricDef{"experiments.export_s", "s", "lower"},
		metricDef{"export.bytes", "B", "lower"})
	return append(d,
		metricDef{"server.bench.hit_p50_ms", "ms", "lower"},
		metricDef{"server.bench.miss_p50_ms", "ms", "lower"},
		metricDef{"server.doc_hit_frac", "1", "higher"},
		metricDef{"server.cell_hit_frac", "1", "higher"},
		metricDef{"server.queue_depth_peak", "count", "lower"},
		metricDef{"server.rejected", "count", "lower"},
		metricDef{"server.cancel_overrun_ms", "ms", "lower"},
		metricDef{"resultcache.puts", "count", "lower"},
		metricDef{"resultcache.hits", "count", "higher"})
}()

var runners = map[string]func(runConfig, *report){
	"suite":   runSuite,
	"sampled": runSampled,
	"service": runService,
}

// runConfig is what every workload runner gets.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	jobs    int
	refs    *refs
	outDir  string
	cal     *calibrator
}

func (rc runConfig) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// loop runs passes until the run's time is spent: untraced passes, or
// with tracing untraced and traced passes in turn, at least one of
// each. A pass starts only while the longest pass so far still fits.
func loop(rc runConfig, pass func(traced bool) time.Duration) {
	start := time.Now()
	var longest time.Duration
	minPasses := 1
	if rc.trace {
		minPasses = 2
	}
	for i := 0; ; i++ {
		longest = max(longest, pass(rc.trace && i%2 == 1))
		if i+1 >= minPasses && time.Since(start)+longest > rc.seconds {
			return
		}
	}
}

// overheadPct is how much slower the traced passes ran, in percent of
// the untraced median.
func overheadPct(untraced, traced []float64) float64 {
	return 100 * (median(traced)/median(untraced) - 1)
}

// setups is how many times a run repeats its set-up to report the
// median: one set-up takes under a millisecond of CPU, so a single one
// is at the mercy of the host.
const setups = 31

// timeSetup runs a set-up setups times, each followed by a reference
// chunk, and returns the median of the set-up's CPU times, each
// normalised by the chunk that follows it: the host can change speed
// between two set-ups. The set-up returns how to undo it, outside the
// timed part.
func timeSetup(setup func() (undo func() error, err error)) (float64, error) {
	ref := newReference()
	var ts []float64
	for i := 0; i < setups; i++ {
		start := cpuTime()
		undo, err := setup()
		if err != nil {
			return 0, err
		}
		t := seconds(cpuTime() - start)
		if undo != nil {
			if err := undo(); err != nil {
				return 0, err
			}
		}
		ts = append(ts, normalise(t, seconds(ref.timeChunk())))
	}
	return median(ts), nil
}

// kernelSetup times the set-up of the suite and sampled workloads:
// parsing the references and building every workload's program.
func kernelSetup() (float64, error) {
	return timeSetup(func() (func() error, error) {
		if _, err := loadRefs(); err != nil {
			return nil, err
		}
		for _, w := range workloads.All() {
			w.Build()
		}
		return nil, nil
	})
}

// saveSpans writes a traced pass's spans into dir for offline
// inspection; the metrics never depend on the file. An empty dir (the
// tests) writes nothing.
func saveSpans(dir string, sp *spans, name string) {
	if dir == "" {
		return
	}
	b, err := json.Marshal(sp.items)
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, "spans-"+name+".json"), b, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: spans: %v\n", err)
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "regen" {
		if err := regen(os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench regen: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "suite, sampled or service")
	seed := flag.Int64("seed", 1, "seed of the workload's inputs")
	secs := flag.Int("seconds", 20, "how long to measure")
	traceFlag := flag.Int("trace", 0, "1 to report per-layer metrics from traced passes")
	flag.Parse()
	runner, ok := runners[*workload]
	if !ok || *secs < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		flag.Usage()
		return fmt.Errorf("bad arguments")
	}
	r, err := loadRefs()
	if err != nil {
		return err
	}
	out := os.Getenv("CARGO_TARGET_DIR")
	if out == "" {
		out = ".bench_build"
	}
	outDir := filepath.Join(out, "perfbench")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	// Load comes from this one process: the simulations, the daemon and
	// its clients share at most two CPUs.
	jobs := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(jobs)
	rc := runConfig{seed: *seed, seconds: time.Duration(*secs) * time.Second, trace: *traceFlag == 1,
		jobs: jobs, refs: r, outDir: outDir}

	var rep report
	if *workload != "service" && !rc.trace {
		s, err := kernelSetup()
		if err != nil {
			return err
		}
		rep.set("setup_s", s)
	}
	rc.cal = startCalibrator()
	runner(rc, &rep)
	rc.cal.close()
	for _, p := range rep.problems {
		rc.logf("FAILED %s", p)
	}
	defs := perLayer
	if !rc.trace {
		rss, ok := metrics.PeakRSS()
		if !ok {
			return fmt.Errorf("peak RSS unavailable")
		}
		rep.set("peak_rss_mib", float64(rss)/(1<<20))
		rep.set("ok_frac", 1-float64(rep.failed)/float64(max(rep.attempted, 1)))
		defs = endToEnd
	}
	return printResult(os.Stdout, &rep, defs, !rc.trace)
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult writes the result line. Every metric of defs is printed;
// a per-layer metric the workload does not exercise reads 0, while a
// missing end-to-end metric is a bug in the benchmark.
func printResult(w io.Writer, rep *report, defs []metricDef, strict bool) error {
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.failed == 0 && rep.attempted > 0, rep.attempted, rep.failed, map[string]value{}}
	var missing []string
	for _, d := range defs {
		v, ok := rep.values[d.Name]
		if !ok && strict {
			missing = append(missing, d.Name)
		}
		out.Metrics[d.Name] = value{v, d.Unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %v", missing)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
