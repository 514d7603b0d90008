package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cmp"
	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/hotblock"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// suiteInsts is the per-cell budget of the suite workload: every
// experiment of the evaluation keeps its full cell count (1073 cells),
// and a pass is short enough to repeat within one run. The suite is the
// paper's fixed evaluation, run in its own order, so it takes nothing
// from the seed.
const suiteInsts = 10_000

// The paper's headline speedups of Fg-STP over Core Fusion: +18% on the
// medium 2-core CMP (E2) and +7% on the small one (E3).
const (
	paperMedium = 1.18
	paperSmall  = 1.07
)

// modeName maps engine modes to the layer names of the metrics.
func modeName(m cmp.Mode) string {
	if m == cmp.ModeFusion {
		return "fused"
	}
	return string(m)
}

var layerModes = []string{"single", "fused", "fgstp"}

// suitePass is one regeneration of the evaluation: E1..E10 in one
// session, then the JSON export.
type suitePass struct {
	wall    time.Duration
	results []*experiments.Result
	expDur  map[string]time.Duration
	export  []byte
	exportT time.Duration
	err     error
}

// runSuitePass runs the evaluation the way `fgstpbench -experiment all
// -format json` does. A non-nil cell runner intercepts every engine
// call, which is how the traced pass times the engine layer; enter, if
// non-nil, learns the span of each experiment as it starts.
func runSuitePass(insts uint64, jobs int, cell experiments.CellFunc, sp *spans, root int, enter func(span int)) suitePass {
	p := suitePass{expDur: map[string]time.Duration{}}
	start := time.Now()
	s := experiments.NewSession(insts, jobs)
	if cell != nil {
		s.SetCellRunner(cell)
	}
	for _, id := range experiments.IDs() {
		idx, end := sp.begin("experiments."+id, root)
		if enter != nil {
			enter(idx)
		}
		res, err := s.RunCtx(context.Background(), id)
		p.expDur[id] = end()
		if err != nil {
			p.err = fmt.Errorf("%s: %w", id, err)
			return p
		}
		p.results = append(p.results, res)
	}
	_, end := sp.begin("experiments.export", root)
	var buf bytes.Buffer
	p.err = experiments.WriteJSON(&buf, insts, p.results)
	p.exportT = end()
	p.export = buf.Bytes()
	p.wall = time.Since(start)
	return p
}

// suiteDocs renders the checked documents of a pass: each
// experiment's own export, keyed by id, and the whole export.
func suiteDocs(p suitePass, insts uint64) (map[string][]byte, error) {
	docs := map[string][]byte{"export": p.export}
	for _, res := range p.results {
		var buf bytes.Buffer
		if err := experiments.WriteJSON(&buf, insts, []*experiments.Result{res}); err != nil {
			return nil, err
		}
		docs[res.ID] = buf.Bytes()
	}
	return docs, nil
}

// verifySuite checks every experiment document and the whole export
// against the recorded digests; each is one attempted operation. An
// experiment with failed cells is a failure even if it rendered.
func verifySuite(p suitePass, insts uint64, want map[string]string, rep *report) {
	ops := len(experiments.IDs()) + 1
	rep.attempted += ops
	docs, err := suiteDocs(p, insts)
	if err == nil {
		err = p.err
	}
	if err != nil {
		rep.fail(ops, "suite: %v", err)
		return
	}
	for _, res := range p.results {
		if res.Failed() {
			rep.fail(1, "suite %s: %d failed cells", res.ID, len(res.Failures))
		} else if err := check(want, res.ID, docs[res.ID]); err != nil {
			rep.fail(1, "suite %v", err)
		}
	}
	if err := check(want, "export", docs["export"]); err != nil {
		rep.fail(1, "suite %v", err)
	}
}

// paperGap is |E2 - 1.18| + |E3 - 1.07| in percentage points, from the
// geomean Fg-STP/Core Fusion speedups the pass computed.
func paperGap(results []*experiments.Result) float64 {
	var gap float64
	for _, res := range results {
		switch res.ID {
		case "E2":
			gap += abs(res.Metrics["geomean_fgstp_vs_fusion"] - paperMedium)
		case "E3":
			gap += abs(res.Metrics["geomean_fgstp_vs_fusion"] - paperSmall)
		}
	}
	return 100 * gap
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// engineLayer accumulates the engine calls of one mode.
type engineLayer struct {
	busy   time.Duration
	cells  int
	insts  uint64
	cycles uint64
}

// cellTracer is the traced pass's cell runner: it makes the same
// cmp.RunOpts call the session would, with a hot-block counter sink
// (telemetry only; results are byte-identical), and times it.
type cellTracer struct {
	sp     *spans
	parent atomic.Int64 // the experiment span the session is inside

	mu     sync.Mutex
	modes  map[string]*engineLayer
	hb     hotblock.Counters
	traced map[string]bool // workloads whose cells ran
}

func newCellTracer(sp *spans) *cellTracer {
	c := &cellTracer{sp: sp, modes: map[string]*engineLayer{}, traced: map[string]bool{}}
	for _, m := range layerModes {
		c.modes[m] = &engineLayer{}
	}
	return c
}

func (c *cellTracer) run(m config.Machine, mode cmp.Mode, w workloads.Workload, tr *trace.Trace) (stats.Run, error) {
	var local hotblock.Counters
	_, end := c.sp.begin("engine."+modeName(mode), int(c.parent.Load()))
	run, err := cmp.RunOpts(m, mode, tr, cmp.Options{HotBlock: &local})
	d := end()
	c.mu.Lock()
	defer c.mu.Unlock()
	l := c.modes[modeName(mode)]
	l.busy += d
	l.cells++
	l.insts += run.Insts
	l.cycles += run.Cycles
	c.hb.Merge(local)
	c.traced[w.Name] = true
	return run, err
}

func runSuite(rc runConfig, rep *report) {
	var walls, cpus, tracedWalls []float64
	var gap float64
	var layers *suiteLayers
	loop(rc, func(traced bool) time.Duration {
		var p suitePass
		if traced {
			var l suiteLayers
			p = l.pass(rc)
			layers = &l
			tracedWalls = append(tracedWalls, seconds(p.wall))
		} else {
			a := rc.cal.mark()
			p = runSuitePass(suiteInsts, rc.jobs, nil, nil, -1, nil)
			b := rc.cal.mark()
			walls = append(walls, seconds(p.wall))
			cpus = append(cpus, normalise(seconds(work(a, b)), chunkTime(a, b)))
		}
		verifySuite(p, suiteInsts, rc.refs.Suite.Digests, rep)
		gap = paperGap(p.results)
		return p.wall
	})
	rc.logf("suite: %d-inst cells, walls %v s, normalised cpus %v s, paper gap %.2f pp", suiteInsts, walls, cpus, gap)
	if !rc.trace {
		rep.set("cpu_s", median(cpus))
		return
	}
	rep.set("wall_s", median(walls))
	layers.metrics(rep, rc.jobs)
	rep.set("paper_gap_pp", gap)
	rep.set("trace_overhead_pct", overheadPct(walls, tracedWalls))
}

// suiteLayers is what the traced suite pass measured.
type suiteLayers struct {
	p       suitePass
	cells   *cellTracer
	buildS  float64
	buildMi float64
}

func (l *suiteLayers) pass(rc runConfig) suitePass {
	sp := newSpans()
	root, end := sp.begin("suite", -1)
	l.cells = newCellTracer(sp)
	p := runSuitePass(suiteInsts, rc.jobs, l.cells.run, sp, root, func(span int) { l.cells.parent.Store(int64(span)) })
	end()
	l.p = p
	// The session builds each workload's trace once, out of sight of
	// the cell runner. Build the same traces again, outside the pass
	// wall, to time the trace layer.
	var insts int
	for _, w := range workloads.All() {
		if !l.cells.traced[w.Name] {
			continue
		}
		_, end := sp.begin("trace.build", root)
		insts += w.Trace(suiteInsts).Len()
		l.buildS += seconds(end())
	}
	l.buildMi = float64(insts) / 1e6
	saveSpans(rc.outDir, sp, "suite")
	return p
}

func (l *suiteLayers) metrics(rep *report, jobs int) {
	c := l.cells
	var busy time.Duration
	var insts uint64
	for _, m := range layerModes {
		e := c.modes[m]
		busy += e.busy
		insts += e.insts
		rep.set("engine."+m+".busy_s", seconds(e.busy))
		rep.set("engine."+m+".cells", float64(e.cells))
		rep.set("engine."+m+".minsts_per_s", float64(e.insts)/1e6/seconds(e.busy))
		rep.set("engine."+m+".host_ns_per_cycle", float64(e.busy.Nanoseconds())/float64(e.cycles))
	}
	rep.set("trace.build_s", l.buildS)
	rep.set("trace.minsts_per_s", l.buildMi/l.buildS)
	hb := c.hb
	rep.set("hotblock.replayed_insts_frac", float64(hb.ReplayedInsts)/float64(insts))
	rep.set("hotblock.templates", float64(hb.Templates))
	rep.set("hotblock.wasted_frac",
		float64(hb.AbortsSpanLimit+hb.AbortsUnsteady+hb.InvalidationsSquash+hb.InvalidationsPrecond)/float64(hb.Templates))
	rep.set("sched.utilization", seconds(busy)/(seconds(l.p.wall)*float64(jobs)))
	for _, id := range experiments.IDs()[1:] {
		rep.set("experiments."+id+"_s", seconds(l.p.expDur[id]))
	}
	rep.set("experiments.export_s", seconds(l.p.exportT))
	rep.set("export.bytes", float64(len(l.p.export)))
}
