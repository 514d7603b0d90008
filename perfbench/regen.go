package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/cmp"
	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// regen records the references for the current engine version. The
// service digests come from rendering each scripted request in
// process, exactly as the daemon's executor does, so a response that
// matches them matches the direct rendering of the same request.
func regen(args []string) error {
	fs := flag.NewFlagSet("regen", flag.ContinueOnError)
	out := fs.String("o", "perfbench/refs.json", "file to write")
	if err := fs.Parse(args); err != nil {
		return err
	}
	jobs := runtime.NumCPU()
	r := &refs{EngineVersion: cmp.EngineVersion}

	r.Suite.Insts = suiteInsts
	r.Suite.Digests = suiteDigests(suiteInsts, jobs, nil)
	if r.Suite.Digests == nil {
		return fmt.Errorf("suite: failed cells")
	}

	r.Sampled.Insts, r.Sampled.Interval = sampledInsts, sampledInterval
	r.Sampled.Digests = map[string]string{}
	r.Sampled.ExactIPC = map[string]float64{}
	m := sampledMachine()
	type cell struct {
		w    string
		mode cmp.Mode
		tr   *trace.Trace
	}
	var cells []cell
	for _, w := range workloads.All() {
		tr := w.Trace(sampledInsts)
		for _, e := range experiments.SimpointEstimates(m, tr, cmp.Modes(), experiments.SimpointParams{
			Interval: sampledInterval, Warmup: -1, Jobs: jobs}) {
			if e.Error != "" {
				return fmt.Errorf("sampled %s/%s: %s", w.Name, e.Mode, e.Error)
			}
			r.Sampled.Digests[estimateKey(w.Name, cmp.Mode(e.Mode))] = digest(estimateDoc(w.Name, e))
		}
		for _, md := range cmp.Modes() {
			cells = append(cells, cell{w.Name, md, tr})
		}
	}
	ipcs, err := sched.Map(jobs, cells, func(c cell) (float64, error) {
		run, err := cmp.Run(m, c.mode, c.tr)
		return run.IPC(), err
	})
	if err != nil {
		return fmt.Errorf("exact runs: %w", err)
	}
	for i, c := range cells {
		r.Sampled.ExactIPC[estimateKey(c.w, c.mode)] = ipcs[i]
	}

	r.Service.Digests = map[string]string{}
	medium := config.Medium()
	for _, w := range workloads.All() {
		doc, err := renderSim(medium, w.Trace(simInsts), cmp.Modes(), jobs)
		if err != nil {
			return err
		}
		r.Service.Digests[simKey(w.Name)] = digest(doc)
	}
	gcc, _ := workloads.ByName("gcc")
	doc, err := renderSim(medium, gcc.Trace(probeTinyInsts), []cmp.Mode{cmp.ModeSingle}, jobs)
	if err != nil {
		return err
	}
	r.Service.Digests[probeTinyRequest().Key] = digest(doc)
	ids := append([]string(nil), benchIDs...)
	for _, set := range sweepSets {
		ids = append(ids, set...)
	}
	for _, id := range ids {
		doc, err := renderBench(id, benchInsts, jobs)
		if err != nil {
			return err
		}
		r.Service.Digests[benchKey(id, benchInsts)] = digest(doc)
	}
	if err := writeRefs(*out, r); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench regen: wrote %s for %s\n", *out, cmp.EngineVersion)
	return nil
}

// suiteDigests runs one suite pass and digests its documents; nil when
// a cell failed.
func suiteDigests(insts uint64, jobs int, cell experiments.CellFunc) map[string]string {
	p := runSuitePass(insts, jobs, cell, nil, -1, nil)
	docs, err := suiteDocs(p, insts)
	if err != nil || p.err != nil {
		return nil
	}
	for _, res := range p.results {
		if res.Failed() {
			return nil
		}
	}
	d := map[string]string{}
	for k, doc := range docs {
		d[k] = digest(doc)
	}
	return d
}

// renderSim renders a /v1/sim request in process, as the daemon's
// executor does: the per-mode jobs, then the fgstp.sim/1 writer.
func renderSim(m config.Machine, tr *trace.Trace, modes []cmp.Mode, jobs int) ([]byte, error) {
	jl, err := experiments.SimJobs(m, tr, modes, "")
	if err != nil {
		return nil, err
	}
	runs, errs := sched.RunJobsAll(jobs, jl)
	var buf bytes.Buffer
	err = experiments.WriteSimFormatEst(&buf, "json", m.Name, tr, modes, runs, errs, nil)
	return buf.Bytes(), err
}

// renderBench renders a one-experiment /v1/bench request in process: a
// fresh session, as the daemon uses per request.
func renderBench(id string, insts uint64, jobs int) ([]byte, error) {
	res, err := experiments.NewSession(insts, jobs).Run(id)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = experiments.WriteFormat(&buf, "json", insts, []*experiments.Result{res})
	return buf.Bytes(), err
}
