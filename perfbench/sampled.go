package main

import (
	"encoding/json"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/cmp"
	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/simpoint"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// The sampled workload estimates every workload in every mode at a
// budget a hundred times the suite's, clamped to each kernel's natural
// length: the path a user takes when full simulation is too slow.
const (
	sampledInsts    = 1_000_000
	sampledInterval = 10_000
)

// calibrated lists the workloads scripts/simpointcheck tuned the
// confidence interval on. The rest are held out: simpoint.ci_miss
// counts how often their exact IPC falls outside the interval.
var calibrated = map[string]bool{"mcf": true, "gcc": true, "bzip2": true, "lbm": true, "gobmk": true, "hmmer": true}

var sampledMachine = config.Medium

func estimateKey(workload string, m cmp.Mode) string { return workload + "/" + string(m) }

// estimateDoc is the checked rendering of one estimate.
func estimateDoc(workload string, e experiments.SimEstimate) []byte {
	b, _ := json.Marshal(struct {
		Workload string `json:"workload"`
		experiments.SimEstimate
	}{workload, e}) // marshalling plain fields cannot fail
	return b
}

// sampledLayers accumulates what the traced pass measured.
type sampledLayers struct {
	traceS     float64
	traceInsts int
	chooseS    float64
	warmS      map[string]float64
	sliceS     map[string]float64
	slices     int
	detailed   uint64
	traceTotal uint64
}

// estimate produces the sampled estimates of one workload. Untraced,
// it is exactly experiments.SimpointEstimates, the path `fgstpsim
// -simpoint` takes. Traced, it makes the same calls through the
// layers' public functions — simpoint.Choose and Slices,
// cmp.NewSliceSim for the checkpoints, simpoint.EstimateCPI around
// SliceSim.Run — and times each; the digest check proves both paths
// give the same estimates.
func estimate(m config.Machine, tr *trace.Trace, jobs int, l *sampledLayers, sp *spans, parent int) []experiments.SimEstimate {
	p := experiments.SimpointParams{Interval: sampledInterval, Warmup: -1, Jobs: jobs}
	if l == nil {
		return experiments.SimpointEstimates(m, tr, cmp.Modes(), p)
	}
	warmup := sampledInterval // SimpointParams{Warmup: -1} picks one interval
	out := make([]experiments.SimEstimate, 0, 3)
	_, end := sp.begin("simpoint.choose", parent)
	reps, err := simpoint.Choose(tr, sampledInterval, experiments.DefaultSimpointK)
	l.chooseS += seconds(end())
	var slices []simpoint.Slice
	if err == nil {
		slices, err = simpoint.Slices(reps, sampledInterval, warmup, tr.Len())
	}
	boundaries := make([]int, len(slices))
	for i, s := range slices {
		boundaries[i] = s.WStart
	}
	for _, md := range cmp.Modes() {
		e := experiments.SimEstimate{Mode: string(md), Interval: sampledInterval, Warmup: warmup}
		if err != nil {
			e.Error = err.Error()
			out = append(out, e)
			continue
		}
		name := modeName(md)
		idx, end := sp.begin("checkpoint."+name, parent)
		sim, serr := cmp.NewSliceSim(m, md, tr, boundaries)
		l.warmS[name] += seconds(end())
		if serr != nil {
			e.Error = serr.Error()
			out = append(out, e)
			continue
		}
		var busy atomic.Int64 // slices run concurrently
		run := func(wstart, start, end int) (uint64, uint64, error) {
			_, done := sp.begin("slice."+name, idx)
			c, n, err := sim.Run(wstart, start, end)
			busy.Add(int64(done()))
			return c, n, err
		}
		est, eerr := simpoint.EstimateCPI(reps, sampledInterval, warmup, tr.Len(), jobs, run)
		l.sliceS[name] += seconds(time.Duration(busy.Load()))
		if eerr != nil {
			e.Error = eerr.Error()
			out = append(out, e)
			continue
		}
		l.slices += est.Points
		l.detailed += est.SampledInsts
		l.traceTotal += est.TraceInsts
		e.Points, e.IPC, e.IPCLow, e.IPCHigh = est.Points, est.IPC, est.IPCLow, est.IPCHigh
		e.SampledInsts, e.TraceInsts = est.SampledInsts, est.TraceInsts
		out = append(out, e)
	}
	return out
}

// sampledPass estimates every workload once, checking each estimate
// against its recorded digest and scoring it against the exact IPC.
type sampledPass struct {
	wall   time.Duration
	cpu    float64   // normalised CPU seconds
	absErr []float64 // |sampled - exact| / exact, per workload × mode
	ciMiss int       // held-out exact IPCs outside the 95% interval
}

func runSampledPass(rc runConfig, rep *report, l *sampledLayers) sampledPass {
	var p sampledPass
	var sp *spans
	if l != nil {
		sp = newSpans()
	}
	root, endRoot := sp.begin("sampled", -1)
	first := rc.cal.mark()
	var cpu time.Duration
	m := sampledMachine()
	// The estimates of one workload do not depend on the others, so the
	// seed only decides the order the workloads run in.
	ws := workloads.All()
	rand.New(rand.NewSource(rc.seed)).Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
	for _, w := range ws {
		// A user estimates one workload per fgstpsim process. Collecting
		// the previous workload's garbage first, outside the timed work,
		// makes the peak RSS that of the largest single workload rather
		// than depend on where the collector happened to run.
		runtime.GC()
		start, a := time.Now(), rc.cal.mark()
		idx, end := sp.begin("trace.build", root)
		tr := w.Trace(sampledInsts)
		if l != nil {
			l.traceS += seconds(end())
			l.traceInsts += tr.Len()
		}
		ests := estimate(m, tr, rc.jobs, l, sp, idx)
		p.wall += time.Since(start)
		cpu += work(a, rc.cal.mark())
		for _, e := range ests {
			key := estimateKey(w.Name, cmp.Mode(e.Mode))
			rep.attempted++
			if e.Error != "" {
				rep.fail(1, "sampled %s: %s", key, e.Error)
				continue
			}
			if err := check(rc.refs.Sampled.Digests, key, estimateDoc(w.Name, e)); err != nil {
				rep.fail(1, "sampled %v", err)
			}
			exact := rc.refs.Sampled.ExactIPC[key]
			p.absErr = append(p.absErr, abs(e.IPC-exact)/exact)
			if !calibrated[w.Name] && (exact < e.IPCLow || exact > e.IPCHigh) {
				p.ciMiss++
			}
		}
	}
	endRoot()
	p.cpu = normalise(seconds(cpu), chunkTime(first, rc.cal.mark()))
	if l != nil {
		saveSpans(rc.outDir, sp, "sampled")
	}
	return p
}

func runSampled(rc runConfig, rep *report) {
	var walls, cpus, tracedWalls []float64
	var last sampledPass
	var l *sampledLayers
	loop(rc, func(traced bool) time.Duration {
		var layers *sampledLayers
		if traced {
			layers = &sampledLayers{warmS: map[string]float64{}, sliceS: map[string]float64{}}
		}
		p := runSampledPass(rc, rep, layers)
		if traced {
			l = layers
			tracedWalls = append(tracedWalls, seconds(p.wall))
		} else {
			walls = append(walls, seconds(p.wall))
			cpus = append(cpus, p.cpu)
		}
		last = p
		return p.wall
	})
	errPct := 100 * mean(last.absErr)
	rc.logf("sampled: walls %v s, normalised cpus %v s, mean |IPC error| %.3f%%, held-out CI misses %d", walls, cpus, errPct, last.ciMiss)
	if !rc.trace {
		rep.set("cpu_s", median(cpus))
		return
	}
	rep.set("wall_s", median(walls))
	rep.set("sampled_ipc_err_pct", errPct)
	rep.set("simpoint.ci_miss", float64(last.ciMiss))
	rep.set("trace.build_s", l.traceS)
	rep.set("trace.minsts_per_s", float64(l.traceInsts)/1e6/l.traceS)
	rep.set("simpoint.choose_s", l.chooseS)
	for _, m := range layerModes {
		rep.set("checkpoint."+m+".warm_s", l.warmS[m])
		rep.set("slice."+m+".busy_s", l.sliceS[m])
	}
	rep.set("slice.count", float64(l.slices))
	rep.set("slice.detailed_insts_frac", float64(l.detailed)/float64(l.traceTotal))
	rep.set("trace_overhead_pct", overheadPct(walls, tracedWalls))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
