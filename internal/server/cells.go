package server

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"sync"
	"sync/atomic"

	"repro/internal/cmp"
	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/resultcache"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// The cell cache memoises individual simulation cells — one cmp run of
// one mode on one workload at one instruction budget — rather than only
// whole rendered documents. The experiment harness exposes exactly that
// granularity (experiments.CellFunc); the daemon installs a runner that
// content-addresses each cell under (engine version, canonical cell
// config, trace digest, mode, workload) and serves repeats from
// internal/resultcache. The canonical cell config is the harness's own
// cell identity (experiments.CellConfig), the same one the session's
// in-memory cell cache keys on: the session dedupes cells within one
// request, this cache across requests. The whole-document cache in
// runCached stays on top: a document hit skips the session entirely, a
// document miss recomposes the document from cell lookups, so
// overlapping experiments (E2 and E4 share every medium single-core and
// full-fabric Fg-STP cell) and repeated sweeps share simulation work
// automatically.

// cellStats counts one request's cell traffic: runs is the number of
// distinct cells the session asked the runner for, hits the ones
// served from the store, misses the ones actually simulated.
// hits+misses falls short of runs only for a cell whose machine is
// invalid: it fails before any lookup.
type cellStats struct {
	runs   atomic.Int64
	hits   atomic.Int64
	misses atomic.Int64
}

// cellStatsSnapshot is the rendered form of cellStats for stream
// records and tests.
type cellStatsSnapshot struct {
	Runs   int64 `json:"runs"`
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

func (st *cellStats) snapshot() cellStatsSnapshot {
	if st == nil {
		return cellStatsSnapshot{}
	}
	return cellStatsSnapshot{Runs: st.runs.Load(), Hits: st.hits.Load(), Misses: st.misses.Load()}
}

// cellStatsCtxKey carries a *cellStats through the job context so the
// engine executor can attribute cell traffic to the request that caused
// it (sweep unit records surface the per-unit counts).
type cellStatsCtxKey struct{}

func withCellStats(ctx context.Context, st *cellStats) context.Context {
	return context.WithValue(ctx, cellStatsCtxKey{}, st)
}

func cellStatsFrom(ctx context.Context) *cellStats {
	st, _ := ctx.Value(cellStatsCtxKey{}).(*cellStats)
	return st
}

// traceDigest is the cache-key component of a captured trace: the hex
// trace digest, SHA-256 of the canonical uncompressed instruction
// records (trace.Digest). Every key that content-addresses a trace —
// /v1/sim documents and cells — derives it here.
func traceDigest(tr *trace.Trace) string {
	d := tr.Digest()
	return hex.EncodeToString(d[:])
}

// cellKey content-addresses one simulation cell: engine version,
// canonical cell config (experiments.CellConfig) and the trace digest
// pin the simulation inputs exactly (the digest subsumes workload
// identity and instruction budget — same records, same result); the
// mode and workload name ride along for debuggability. traceSum is
// traceDigest of the captured trace, hashed once per workload per
// request, not per cell.
func cellKey(cfgJSON []byte, traceSum string, mode cmp.Mode, workload string) string {
	return resultcache.Key(cmp.EngineVersion, cfgJSON, []byte(traceSum),
		"cell", string(mode), workload)
}

// cellRunner builds the CellFunc the engine executor installs on a
// session: every clean cell is served from the result cache when
// possible, computed and persisted otherwise. st (nil-safe) receives
// the per-request traffic counts; the server-global cell counters feed
// /metricz either way.
//
// Correctness leans on the repository's determinism contract: a cell
// result is a pure function of (engine version, canonical config,
// trace digest), which is exactly the key, so a cached stats.Run
// round-tripped through JSON is byte-equivalent to a fresh simulation
// (stats.Run marshals losslessly — uint64 counts and shortest-round-
// trip float64 counters, name-sorted).
func (s *Server) cellRunner(st *cellStats) experiments.CellFunc {
	// traceSums memoises the trace digest per workload for this session:
	// traces are immutable after capture and shared session-wide, so one
	// hash per workload covers every cell on it. The map is guarded by
	// mu, the hashing is not: cells on different workloads never wait on
	// each other's digest, cells on the same one share a single hash.
	var mu sync.Mutex
	traceSums := map[string]func() string{}
	sumOf := func(w workloads.Workload, tr *trace.Trace) string {
		mu.Lock()
		sum, ok := traceSums[w.Name]
		if !ok {
			sum = sync.OnceValue(func() string { return traceDigest(tr) })
			traceSums[w.Name] = sum
		}
		mu.Unlock()
		return sum()
	}
	return func(m config.Machine, mode cmp.Mode, w workloads.Workload, tr *trace.Trace) (stats.Run, error) {
		if st != nil {
			st.runs.Add(1)
		}
		s.nCellRuns.Add(1)
		cfgJSON, err := experiments.CellConfig(m, mode)
		if err != nil {
			return stats.Run{}, err
		}
		key := cellKey(cfgJSON, sumOf(w, tr), mode, w.Name)
		// computed captures the fresh run when its JSON encoding cannot
		// be persisted (NaN/Inf counters): the simulation still succeeded
		// and its result must be served, just not memoised.
		var computed *stats.Run
		env, hit, err := s.cache.GetOrComputeIf(key, func() ([]byte, bool, error) {
			run, err := cmp.Run(m, mode, tr)
			if err != nil {
				return nil, false, err
			}
			payload, jerr := json.Marshal(&run)
			if jerr != nil {
				computed = &run
				return nil, false, nil
			}
			return payload, true, nil
		})
		if err != nil {
			return stats.Run{}, err
		}
		if computed != nil {
			if st != nil {
				st.misses.Add(1)
			}
			s.nCellMisses.Add(1)
			return *computed, nil
		}
		if env == nil {
			// A single-flight peer computed an unserialisable run; its
			// captured copy is not ours to read, so run the cell directly.
			if st != nil {
				st.misses.Add(1)
			}
			s.nCellMisses.Add(1)
			return cmp.Run(m, mode, tr)
		}
		var run stats.Run
		if err := json.Unmarshal(env, &run); err != nil {
			// The store verifies content hashes, so this is an entry from
			// a different encoding era; recompute rather than fail.
			if st != nil {
				st.misses.Add(1)
			}
			s.nCellMisses.Add(1)
			return cmp.Run(m, mode, tr)
		}
		if st != nil {
			if hit {
				st.hits.Add(1)
			} else {
				st.misses.Add(1)
			}
		}
		if hit {
			s.nCellHits.Add(1)
		} else {
			s.nCellMisses.Add(1)
		}
		return run, nil
	}
}
