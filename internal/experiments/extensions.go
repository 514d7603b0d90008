package experiments

import (
	"fmt"

	"repro/internal/adaptive"
	"repro/internal/cmp"
	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Extension experiments: E11 (energy) and E12 (adaptive
// reconfiguration) study questions the paper motivates but does not
// evaluate. They are excluded from "all" comparisons against the paper
// and labelled accordingly.

// e11 compares the modes' energy and energy-delay product under the
// activity-based model.
func (r *runner) e11() (*Result, error) {
	res := &Result{
		ID:    "E11",
		Title: "EXTENSION — energy and energy-delay product by mode (medium)",
		Notes: []string{
			"Activity-based model (internal/energy); arbitrary units, ratios are the result.",
			"Not a paper figure: the paper motivates the power wall but does not report energy.",
		},
	}
	m := config.Medium()
	weights := energy.Default()
	tb := stats.NewTable("Geomean ratios vs the single core",
		"mode", "speedup", "energy ratio", "EDP gain")
	compared := []cmp.Mode{cmp.ModeFusion, cmp.ModeFgSTP}
	ws := workloads.All()
	// One job per workload: each simulates all three modes (through the
	// session's cell cache) and reduces them to the per-mode
	// energy comparisons, which aggregate below in workload order.
	type row struct {
		c map[cmp.Mode]energy.Compare
	}
	rows, err := sched.MapCtx(r.ctx, r.jobs, ws, func(w workloads.Workload) (row, error) {
		runs := make(map[cmp.Mode]stats.Run, len(cmp.Modes()))
		for _, mode := range cmp.Modes() {
			run, err := r.runOf(m, mode, w)
			if err != nil {
				return row{}, err
			}
			runs[mode] = run
		}
		single := runs[cmp.ModeSingle]
		baseB, err := energy.Estimate(&single, weights)
		if err != nil {
			return row{}, err
		}
		out := row{c: make(map[cmp.Mode]energy.Compare, len(compared))}
		for _, mode := range compared {
			run := runs[mode]
			b, err := energy.Estimate(&run, weights)
			if err != nil {
				return row{}, err
			}
			out.c[mode] = energy.Against(&single, baseB, &run, b)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for _, mode := range compared {
		var sp, en, edp []float64
		for _, rw := range rows {
			c := rw.c[mode]
			sp = append(sp, c.Speedup)
			en = append(en, c.EnergyRatio)
			edp = append(edp, c.EDPGain)
		}
		gmEn := notedGeomean(res, string(mode)+" energy", en)
		gmEDP := notedGeomean(res, string(mode)+" EDP", edp)
		tb.AddRowf(string(mode), notedGeomean(res, string(mode)+" speedup", sp),
			gmEn, gmEDP)
		res.metric(string(mode)+"_energy_ratio", gmEn)
		res.metric(string(mode)+"_edp_gain", gmEDP)
	}
	res.Tables = append(res.Tables, tb)
	return res, nil
}

// e12 compares reconfiguration policies at phase granularity on a
// representative workload subset (full phase studies are expensive:
// every phase runs in both modes).
func (r *runner) e12() (*Result, error) {
	res := &Result{
		ID:    "E12",
		Title: "EXTENSION — dynamic reconfiguration policies (medium)",
		Notes: []string{
			"Phase-granularity mode selection with switch penalties (internal/adaptive).",
			"Not a paper figure: region-level reconfiguration is future work there.",
		},
	}
	subset := []string{"astar", "hmmer", "gobmk", "bwaves", "omnetpp", "xalancbmk"}
	cfg := adaptive.Config{PhaseInsts: int(r.insts) / 8, SwitchPenalty: 200}
	if cfg.PhaseInsts < 1000 {
		cfg.PhaseInsts = 1000
	}
	m := config.Medium()
	tb := stats.NewTable(
		fmt.Sprintf("IPC by policy (%d-inst phases, %d-cycle switch)",
			cfg.PhaseInsts, cfg.SwitchPenalty),
		"workload", "single", "fgstp", "history", "oracle")
	// One job per workload; each policy comparison is itself many
	// phase-level simulations, so the subset fans out well.
	policies, err := sched.MapCtx(r.ctx, r.jobs, subset, func(name string) (map[adaptive.Policy]adaptive.Result, error) {
		w, ok := workloads.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		_, results, err := adaptive.Compare(m, r.traceOf(w), cfg)
		return results, err
	})
	if err != nil {
		return nil, err
	}
	type gm struct{ s, f, h, o []float64 }
	var g gm
	for i, name := range subset {
		results := policies[i]
		rs := results[adaptive.PolicyAlwaysSingle]
		rf := results[adaptive.PolicyAlwaysFgSTP]
		rh := results[adaptive.PolicyHistory]
		ro := results[adaptive.PolicyOracle]
		tb.AddRowf(name, rs.IPC(), rf.IPC(), rh.IPC(), ro.IPC())
		g.s = append(g.s, rs.IPC())
		g.f = append(g.f, rf.IPC())
		g.h = append(g.h, rh.IPC())
		g.o = append(g.o, ro.IPC())
	}
	gmS := notedGeomean(res, "single IPC", g.s)
	gmF := notedGeomean(res, "fgstp IPC", g.f)
	gmH := notedGeomean(res, "history IPC", g.h)
	gmO := notedGeomean(res, "oracle IPC", g.o)
	tb.AddRowf("GEOMEAN", gmS, gmF, gmH, gmO)
	res.metric("geomean_ipc_single", gmS)
	res.metric("geomean_ipc_fgstp", gmF)
	res.metric("geomean_ipc_history", gmH)
	res.metric("geomean_ipc_oracle", gmO)
	res.Tables = append(res.Tables, tb)
	return res, nil
}
