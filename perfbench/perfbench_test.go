package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cmp"
	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		value  float64
		beyond int
	}{
		{100, 90, 10}, // p90: the highest order statistic with 10 samples above
		{20, 10, 10},
		{11, 1, 10},
		{10, 10, 0}, // no order statistic has 10 above: the maximum
		{0, 0, 0},
	} {
		v, b := tail(seq(tc.n), 10)
		if v != tc.value || b != tc.beyond {
			t.Errorf("tail of 1..%d = %v with %d beyond, want %v with %d", tc.n, v, b, tc.value, tc.beyond)
		}
	}
}

func TestScriptDeterministic(t *testing.T) {
	a, b := roundScript(7, 3), roundScript(7, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed and round gave different scripts")
	}
	if reflect.DeepEqual(a, roundScript(8, 3)) {
		t.Fatal("another seed gave the same script")
	}
	// Every seed sends the same requests; only their order differs, so
	// the work per round does not depend on the seed.
	multiset := func(script []request) map[string]int {
		m := map[string]int{}
		for _, r := range script {
			m[fmt.Sprint(r.Class, r.Body, r.Repeat)]++
		}
		return m
	}
	if !reflect.DeepEqual(multiset(a), multiset(roundScript(8, 0))) {
		t.Fatal("seeds differ in which requests they send")
	}
	if !reflect.DeepEqual(scriptShares(a), scriptShares(roundScript(99, 1))) {
		t.Fatal("request class shares depend on the seed")
	}
	// A repeat names an earlier request with the same body.
	for i, r := range a {
		if r.Repeat && (r.Of >= i || a[r.Of].Body != r.Body || a[r.Of].Repeat) {
			t.Fatalf("request %d (%s) repeats %d", i, r.Body, r.Of)
		}
	}
}

// A cell runner that returns a wrong run for one cell must make the
// digest check fail the experiments rendered from that cell, and only
// them.
func TestDigestCatchesPerturbedCell(t *testing.T) {
	const insts = 1_000
	want := suiteDigests(insts, 2, nil)
	if want == nil {
		t.Fatal("reference pass had failed cells")
	}
	var clean report
	verifySuite(runSuitePass(insts, 2, nil, nil, -1, nil), insts, want, &clean)
	if clean.failed != 0 {
		t.Fatalf("unperturbed pass failed the check: %v", clean.problems)
	}

	perturb := func(m config.Machine, mode cmp.Mode, w workloads.Workload, tr *trace.Trace) (stats.Run, error) {
		run, err := cmp.Run(m, mode, tr)
		if m.Name == "small" && mode == cmp.ModeFgSTP && w.Name == "mcf" {
			run.Cycles++
		}
		return run, err
	}
	var rep report
	verifySuite(runSuitePass(insts, 2, perturb, nil, -1, nil), insts, want, &rep)
	if rep.failed == 0 {
		t.Fatal("a perturbed cell passed the digest check")
	}
	if got := strings.Join(rep.problems, "\n"); !strings.Contains(got, "E3") || strings.Contains(got, "E2:") {
		t.Errorf("want E3 (small machine) reported and E2 (medium) not, got:\n%s", got)
	}
}

// The traced sampled path calls the layers one by one; it must give
// exactly what experiments.SimpointEstimates gives.
func TestTracedEstimateMatchesLibrary(t *testing.T) {
	w, _ := workloads.ByName("gcc")
	tr := w.Trace(60_000)
	l := &sampledLayers{warmS: map[string]float64{}, sliceS: map[string]float64{}}
	traced := estimate(config.Medium(), tr, 2, l, newSpans(), -1)
	plain := estimate(config.Medium(), tr, 2, nil, nil, -1)
	if !reflect.DeepEqual(traced, plain) {
		t.Fatalf("traced estimates differ:\n%+v\n%+v", traced, plain)
	}
	if l.slices == 0 || l.sliceS["fgstp"] == 0 {
		t.Fatalf("traced path measured nothing: %+v", l)
	}
}

// A miss, its repeat (a doc-cache hit) and the in-process rendering of
// the same request must be the same bytes.
func TestRoundMatchesInProcessRendering(t *testing.T) {
	client := &http.Client{}
	defer client.CloseIdleConnections()
	d, err := startDaemon(t.TempDir(), 2, client)
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	const insts = 2_000
	var script []request
	want := map[string]string{}
	for _, name := range []string{"gcc", "mcf", "lbm"} {
		w, _ := workloads.ByName(name)
		doc, err := renderSim(config.Medium(), w.Trace(insts), cmp.Modes(), 2)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = digest(doc)
		script = append(script, request{Class: "sim", Path: "/v1/sim", Key: name,
			Body: mustJSON(map[string]any{"workload": name, "insts": insts})})
	}
	for i := 0; i < 3; i++ {
		r := script[i]
		r.Repeat, r.Of = true, i
		script = append(script, r)
	}
	outs, _ := runRound(client, d, script, want, newSpans(), -1)
	for i, o := range outs {
		wantCache := "miss"
		if script[i].Repeat {
			wantCache = "hit"
		}
		if o.err != nil || o.cache != wantCache {
			t.Errorf("request %d: cache %q (want %q), err %v", i, o.cache, wantCache, o.err)
		}
	}
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from the program's:\n%+v\n%+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the program's:\n%+v\n%+v", doc.PerLayer, perLayer)
	}
}

func TestRefsMatchEngine(t *testing.T) {
	r, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	if r.Suite.Insts != suiteInsts || r.Sampled.Insts != sampledInsts || r.Sampled.Interval != sampledInterval {
		t.Fatalf("refs recorded at other budgets: run `perfbench regen`")
	}
	for _, req := range roundScript(1, 0) {
		if req.Class != "sweep" && r.Service.Digests[req.Key] == "" {
			t.Errorf("no digest for scripted request %s", req.Key)
		}
	}
}

// The calibrator's chunks run while a pass runs; the pass's work must
// not count them.
func TestCalibratorMarks(t *testing.T) {
	c := startCalibrator()
	a := c.mark()
	ref := newReference()
	for deadline := time.Now().Add(200 * time.Millisecond); time.Now().Before(deadline); {
		ref.chunk()
	}
	b := c.mark()
	c.close()
	if b.chunks <= a.chunks {
		t.Fatal("no reference chunk ran during the measurement")
	}
	if w := work(a, b); w <= 0 || w >= b.proc-a.proc {
		t.Fatalf("work %v of %v process CPU time", w, b.proc-a.proc)
	}
	if got := normalise(3, 2*refChunk); got != 1.5 {
		t.Fatalf("3 s at twice the reference chunk time normalised to %v s, want 1.5", got)
	}
}
