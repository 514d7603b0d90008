package server

import (
	"encoding/json"
	"os"
	"sync"
	"testing"

	"repro/internal/cmp"
	"repro/internal/config"
	"repro/internal/workloads"
)

// Cells of one session run concurrently and share the runner's
// per-workload digest memo, which hashes outside its lock. Every cell,
// whichever goroutine first needs its workload's digest, must be stored
// under the key a direct derivation gives and return the uncached run.
func TestCellRunnerConcurrentDigests(t *testing.T) {
	const (
		insts = 500
		reps  = 4
	)
	dir := t.TempDir()
	s := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	var st cellStats
	run := s.cellRunner(&st)
	m := config.Medium()
	ws := workloads.All()[:3]

	var wg sync.WaitGroup
	for _, w := range ws {
		tr := w.Trace(insts)
		for _, mode := range cmp.Modes() {
			want, err := cmp.Run(m, mode, tr)
			if err != nil {
				t.Fatal(err)
			}
			wantJSON, err := json.Marshal(&want)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < reps; r++ {
				wg.Add(1)
				go func(w workloads.Workload, mode cmp.Mode) {
					defer wg.Done()
					got, err := run(m, mode, w, tr)
					if err != nil {
						t.Error(err)
						return
					}
					if gotJSON, _ := json.Marshal(&got); string(gotJSON) != string(wantJSON) {
						t.Errorf("%s/%s: concurrent cell differs from a direct run", w.Name, mode)
					}
				}(w, mode)
			}
		}
	}
	wg.Wait()

	cells := len(ws) * len(cmp.Modes())
	if got := st.runs.Load(); got != int64(cells*reps) {
		t.Fatalf("runner saw %d cells, want %d", got, cells*reps)
	}
	for _, w := range ws {
		for _, mode := range cmp.Modes() {
			if _, err := os.Stat(entryPath(dir, cellKeyFor(t, m, mode, w.Name, insts))); err != nil {
				t.Errorf("%s/%s: no entry under the derived cell key: %v", w.Name, mode, err)
			}
		}
	}
}
