package experiments

import (
	"fmt"
	"sync"

	"repro/internal/cmp"
	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// A simulation *cell* is the atomic unit every experiment decomposes
// into: one cmp run of one execution mode on one workload trace under
// one machine configuration. Its identity is the canonical machine
// (canonicalCell below, rendered by CellConfig) plus the mode and the
// workload (plus the trace, which a session fixes by its budget). Two
// places key on that identity: the session's single-flight cell cache
// (runner.runOf), so each distinct cell runs at most once per session
// however many experiments ask for it, and the fgstpd daemon's
// content-addressed result cache, installed as a CellFunc below the
// session cache, so repeated requests and sweeps share cells across
// sessions.

// canonicalCell is the one definition of a cell's machine identity:
// the validated machine with the sections mode never reads blanked, so
// a single-core cell of an Fg-STP fabric sweep is the same cell in
// every fabric variant. Every mode reads Name, Core and Hier; only
// Core Fusion reads Fusion, only the Fg-STP pair reads the fabric
// parameters. An invalid machine has no identity: canonicalCell
// returns the validation error every mode's run would fail with (runs
// validate every section), so a blanked section can never make an
// invalid machine share a valid one's result.
func canonicalCell(m config.Machine, mode cmp.Mode) (config.Machine, error) {
	if err := m.Validate(); err != nil {
		return config.Machine{}, err
	}
	switch mode {
	case cmp.ModeSingle:
		m.Fusion = config.FusionOverheads{}
		m.FgSTP = config.FgSTP{}
	case cmp.ModeFusion:
		m.FgSTP = config.FgSTP{}
	case cmp.ModeFgSTP:
		m.Fusion = config.FusionOverheads{}
	}
	return m, nil
}

// CellConfig renders a cell's machine identity (see canonicalCell) as
// indented JSON, the form the fgstpd result cache hashes into its cell
// keys. Every field a mode reads is part of it; TestCellConfigInvariance
// checks that field by field.
func CellConfig(m config.Machine, mode cmp.Mode) ([]byte, error) {
	c, err := canonicalCell(m, mode)
	if err != nil {
		return nil, err
	}
	return c.ToJSON()
}

// CellFunc runs one simulation cell. The trace is the session's shared
// immutable capture of w at the session budget; implementations must
// return a run byte-equivalent to cmp.Run(m, mode, tr) — experiment
// documents are rendered from the returned runs, and the repository's
// byte-identity guarantees extend over any installed cell runner. A
// CellFunc is called from the session's worker pool and must be safe
// for concurrent use.
type CellFunc func(m config.Machine, mode cmp.Mode, w workloads.Workload, tr *trace.Trace) (stats.Run, error)

// SetCellRunner intercepts every clean simulation cell the session
// simulates with fn (nil restores the direct engine path). It sits
// below the session's cell cache, so fn sees each distinct cell at
// most once per session. Poisoned cells (Session.Poison) never reach
// the runner: a fault-injected run is deliberately outside any
// memoisation contract.
func (s *Session) SetCellRunner(fn CellFunc) { s.r.cell = fn }

// cellRun is the single interception point between the experiment
// harness and the simulation engine: every clean cell the session
// simulates funnels through here, once per distinct cell (the
// session's cell cache in runOf sits above it).
func (r *runner) cellRun(m config.Machine, mode cmp.Mode, w workloads.Workload) (stats.Run, error) {
	tr := r.traceOf(w)
	if r.cell != nil {
		return r.cell(m, mode, w, tr)
	}
	return cmp.Run(m, mode, tr)
}

// Cell identifies one simulation cell of an experiment: the full
// machine configuration (ablations and sweeps mutate the Fg-STP fabric
// of a preset without renaming it, so the name alone is not the
// identity), the execution mode and the workload.
type Cell struct {
	Machine  config.Machine
	Mode     cmp.Mode
	Workload string
}

// Cells enumerates the simulation cells experiment id will run at the
// given per-cell instruction budget (0 picks the default of 100k), in
// deterministic submission order, by executing the experiment in a
// fresh session under a recording stub cell runner — no engine
// simulation runs, only trace capture. The enumeration mirrors
// execution exactly: each distinct cell appears once (E4's fabric
// variants share one single-core cell per workload; each variant's
// Fg-STP cells appear per variant).
//
// E12 is the one experiment that does not decompose into cmp cells
// (its phase-granularity simulations run inside internal/adaptive), so
// enumerating it is an error rather than an expensive full run.
func Cells(id string, insts uint64) ([]Cell, error) {
	if id == "E12" {
		return nil, fmt.Errorf("experiment E12 does not decompose into simulation cells (phase-level runs live in internal/adaptive)")
	}
	// One worker keeps the recording in submission order.
	s := NewSession(insts, 1)
	var mu sync.Mutex
	var cells []Cell
	s.SetCellRunner(func(m config.Machine, mode cmp.Mode, w workloads.Workload, _ *trace.Trace) (stats.Run, error) {
		mu.Lock()
		cells = append(cells, Cell{Machine: m, Mode: mode, Workload: w.Name})
		mu.Unlock()
		// A minimal plausible run keeps every aggregation path alive
		// (the energy model rejects runs without an active_cores
		// counter); the rendered result is discarded.
		run := stats.Run{Workload: w.Name, Mode: string(mode), Cycles: 1, Insts: 1}
		run.Set("active_cores", 1)
		return run, nil
	})
	if _, err := s.Run(id); err != nil {
		return nil, err
	}
	return cells, nil
}

// allIDs is the hoisted experiment id universe: the paper set in order,
// then the extensions. Built once — request validation must not rebuild
// it per call.
var allIDs = append(IDs(), ExtensionIDs()...)

// idSet indexes allIDs for O(1) validation.
var idSet = func() map[string]bool {
	set := make(map[string]bool, len(allIDs))
	for _, id := range allIDs {
		set[id] = true
	}
	return set
}()

// AllIDs lists every experiment id: E1..E10, then the extensions
// E11/E12. Callers own the returned slice.
func AllIDs() []string {
	out := make([]string, len(allIDs))
	copy(out, allIDs)
	return out
}

// ValidID reports whether id names an experiment (paper set or
// extension).
func ValidID(id string) bool { return idSet[id] }
