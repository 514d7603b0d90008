// Package cmp composes the chip multiprocessor: it builds a machine in
// one of the three execution modes the experiments compare — a single
// conventional core, the two cores fused Core Fusion style, or the two
// cores reconfigured as an Fg-STP pair — and runs a workload trace on
// it. This is the top-level simulation API the CLI tools, examples and
// benchmarks use.
package cmp

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/corefusion"
	"repro/internal/hotblock"
	"repro/internal/metrics"
	"repro/internal/ooo"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// EngineVersion identifies the timing semantics of the simulation
// engine. It is part of every content-addressed result-cache key
// (internal/resultcache): byte-identical determinism makes cached
// results correct by construction *for one engine version*, so any
// change that can alter a cycle count, a counter, or an export byte —
// timing-model changes, new counters, schema or formatting changes —
// MUST bump this string, or stale cache entries will be served as
// current results. Pure speedups proven byte-identical (such as
// event-driven cycle skipping) do not require a bump; the results
// golden in internal/experiments/testdata enforces both directions.
//
// Since PR 8 the store also memoises individual simulation *cells*
// (one Run of one mode on one workload, as JSON-encoded stats.Run
// documents composed back into rendered exports), so the rule covers
// more than rendered bytes: any change that alters ANY counter or
// cycle count of ANY (config, mode, trace) cell must bump, even if no
// CLI export happens to render that counter — a stale cell entry would
// be silently recomposed into fresh documents.
const EngineVersion = "fgstp-engine/7"

// Mode selects how the 2-core CMP executes a single thread.
type Mode string

// Execution modes.
const (
	// ModeSingle runs one conventional core; the second core idles.
	ModeSingle Mode = "single"
	// ModeFusion fuses the two cores into one double-width core with
	// the Core Fusion overhead terms.
	ModeFusion Mode = "corefusion"
	// ModeFgSTP reconfigures the two cores as an Fg-STP pair.
	ModeFgSTP Mode = "fgstp"
)

// Modes lists all execution modes in comparison order.
func Modes() []Mode { return []Mode{ModeSingle, ModeFusion, ModeFgSTP} }

// ParseMode validates a mode string.
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case ModeSingle, ModeFusion, ModeFgSTP:
		return Mode(s), nil
	}
	return "", fmt.Errorf("unknown mode %q (want single, corefusion or fgstp)", s)
}

// ErrLivelock classifies watchdog failures: errors.Is(err, ErrLivelock)
// holds for any run the livelock watchdog aborted, in any mode. Use
// errors.As with *core.LivelockError or *ooo.LivelockError to recover
// the forensic snapshot.
var ErrLivelock = ooo.ErrLivelock

// Faults is the fault-injection hook threaded into the machine under
// test (see internal/faults for concrete injectors). Channel faults
// only apply to ModeFgSTP — the other modes have no inter-core channel.
type Faults = core.Faults

// Options bundles the optional knobs of a run: fault injection and
// event instrumentation. The zero value reproduces Run.
type Options struct {
	// Faults optionally injects deterministic faults into the run; only
	// ModeFgSTP has an inter-core channel to stall.
	Faults Faults
	// Sink receives pipeline events from the machine under test.
	Sink metrics.Sink
	// HotBlock is never written: the hot-block replay it reported on is
	// gone (see hotblock.Counters). It remains for perfbench only.
	HotBlock *hotblock.Counters
}

// Run simulates tr on machine m in the given mode.
func Run(m config.Machine, mode Mode, tr *trace.Trace) (stats.Run, error) {
	return RunOpts(m, mode, tr, Options{})
}

// RunFaulty simulates like Run with a fault injector installed (nil
// behaves exactly like Run).
func RunFaulty(m config.Machine, mode Mode, tr *trace.Trace, f Faults) (stats.Run, error) {
	return RunOpts(m, mode, tr, Options{Faults: f})
}

// RunTraced simulates like Run with a pipeline event sink attached to
// the machine under test (nil behaves exactly like Run); the events
// render into a Chrome trace via metrics.WriteChromeTrace.
func RunTraced(m config.Machine, mode Mode, tr *trace.Trace, sink metrics.Sink) (stats.Run, error) {
	return RunOpts(m, mode, tr, Options{Sink: sink})
}

// RunOpts simulates tr on machine m in the given mode under the full
// option set.
func RunOpts(m config.Machine, mode Mode, tr *trace.Trace, opts Options) (stats.Run, error) {
	if err := m.Validate(); err != nil {
		return stats.Run{}, err
	}
	if tr.Len() == 0 {
		return stats.Run{}, fmt.Errorf("empty trace %q", tr.Name)
	}
	switch mode {
	case ModeSingle:
		return ooo.RunTraceWith(m.Core, m.Hier, tr, opts.Sink)
	case ModeFusion:
		return corefusion.RunWith(m, tr, opts.Sink)
	case ModeFgSTP:
		return core.RunWith(m, tr, opts.Faults, opts.Sink)
	default:
		return stats.Run{}, fmt.Errorf("unknown mode %q", mode)
	}
}

// RunWorkload captures a fresh trace of the named workload and runs it.
func RunWorkload(m config.Machine, mode Mode, workload string, insts uint64) (stats.Run, error) {
	w, ok := workloads.ByName(workload)
	if !ok {
		return stats.Run{}, fmt.Errorf("unknown workload %q", workload)
	}
	tr := w.Trace(insts)
	if uint64(tr.Len()) < insts {
		return stats.Run{}, fmt.Errorf("workload %q yielded only %d of %d instructions",
			workload, tr.Len(), insts)
	}
	return Run(m, mode, tr)
}

// ModeResult pairs an execution mode with its run summary.
type ModeResult struct {
	Mode Mode
	Run  stats.Run
}

// RunModes runs tr in every execution mode and returns the results in
// Modes() comparison order — the deterministic form of RunAll for
// callers that iterate rather than index.
func RunModes(m config.Machine, tr *trace.Trace) ([]ModeResult, error) {
	out := make([]ModeResult, 0, len(Modes()))
	for _, mode := range Modes() {
		r, err := Run(m, mode, tr)
		if err != nil {
			return nil, fmt.Errorf("mode %s: %w", mode, err)
		}
		out = append(out, ModeResult{Mode: mode, Run: r})
	}
	return out, nil
}

// RunAll runs tr in every mode and returns the results keyed by mode.
// Map iteration order is random: callers producing ordered output must
// index by mode (or use RunModes, which returns results in comparison
// order).
func RunAll(m config.Machine, tr *trace.Trace) (map[Mode]stats.Run, error) {
	ordered, err := RunModes(m, tr)
	if err != nil {
		return nil, err
	}
	out := make(map[Mode]stats.Run, len(ordered))
	for _, mr := range ordered {
		out[mr.Mode] = mr.Run
	}
	return out, nil
}
