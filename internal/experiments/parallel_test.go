package experiments

import (
	"testing"

	"repro/internal/workloads"
)

// determinismInsts is deliberately small: each checked experiment runs
// twice (serial and 8-way parallel), and the suite also runs under
// -race.
const determinismInsts = 2_000

// TestJobsDeterminism checks the harness determinism guarantee: an
// experiment's rendered output is byte-identical between a serial run
// and a parallel run, because job results aggregate in submission
// order. E2 covers the full workload × mode grid, E4 the shared
// single-core baseline under concurrent variants, E5 the sweep path.
func TestJobsDeterminism(t *testing.T) {
	for _, id := range []string{"E2", "E4", "E5"} {
		serial, err := NewSession(determinismInsts, 1).Run(id)
		if err != nil {
			t.Fatalf("%s serial: %v", id, err)
		}
		parallel, err := NewSession(determinismInsts, 8).Run(id)
		if err != nil {
			t.Fatalf("%s parallel: %v", id, err)
		}
		if s, p := serial.String(), parallel.String(); s != p {
			t.Errorf("%s: -jobs 1 and -jobs 8 outputs differ:\n--- serial ---\n%s\n--- parallel ---\n%s", id, s, p)
		}
	}
}

// TestSessionCachesShared checks that one session reuses traces and
// cells across experiments: after E2 ran the medium grid, E4 on the
// same session must not re-capture any trace nor re-simulate any cell
// E2 already ran.
func TestSessionCachesShared(t *testing.T) {
	s := NewSession(determinismInsts, 0)
	if _, err := s.Run("E2"); err != nil {
		t.Fatal(err)
	}
	captured := s.r.traces.Len()
	if captured == 0 {
		t.Fatal("E2 captured no traces")
	}
	if _, err := s.Run("E4"); err != nil {
		t.Fatal(err)
	}
	if got := s.r.traces.Len(); got != captured {
		t.Errorf("E4 grew the trace cache %d -> %d; want reuse", captured, got)
	}
	// E4 shares E2's medium single-core cell and its full-fabric Fg-STP
	// cell on every workload; only its four other fabric variants are
	// new simulations. Its five variants ask for the one single-core
	// cell five times, so it reuses 2+4 cells per workload.
	w := int64(len(workloads.All()))
	simulated, reused := s.CellCounts()
	if want := 3*w + 4*w; simulated != want {
		t.Errorf("E2+E4 simulated %d cells, want %d", simulated, want)
	}
	if want := 6 * w; reused != want {
		t.Errorf("E2+E4 reused %d cells, want %d", reused, want)
	}
	if got := int64(s.r.cells.Len()); got != simulated {
		t.Errorf("cell cache holds %d runs, want one per simulated cell (%d)", got, simulated)
	}
}
