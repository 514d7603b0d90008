package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cmp"
	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// sharingInsts keeps the all-experiments sharing check cheap: it runs
// E1..E10 once in one session and once more in fresh per-experiment
// sessions, under -race too.
const sharingInsts = 500

// cellKeyOf is the test's rendering of a session cell identity.
func cellKeyOf(t *testing.T, m config.Machine, mode cmp.Mode, workload string) string {
	t.Helper()
	cfg, err := CellConfig(m, mode)
	if err != nil {
		t.Fatal(err)
	}
	return string(cfg) + "\x00" + string(mode) + "\x00" + workload
}

// TestCellConfigInvariance turns the cell identity into a checked
// property, field by field: every leaf of config.Machine that a mode
// reads must change that mode's CellConfig, and a leaf it never reads
// must leave it alone. Name, Core and Hier are read by every mode,
// Fusion only by Core Fusion, FgSTP only by the Fg-STP pair. Each leaf
// moves to a value that keeps the machine valid (invalid machines
// have no identity; TestCellConfigRejectsInvalid covers them).
func TestCellConfigInvariance(t *testing.T) {
	base := config.Medium()
	readers := map[string][]cmp.Mode{
		"Name":   cmp.Modes(),
		"Core":   cmp.Modes(),
		"Hier":   cmp.Modes(),
		"Fusion": {cmp.ModeFusion},
		"FgSTP":  {cmp.ModeFgSTP},
	}
	keys := func(m config.Machine) map[cmp.Mode]string {
		out := map[cmp.Mode]string{}
		for _, mode := range cmp.Modes() {
			out[mode] = cellKeyOf(t, m, mode, "w")
		}
		return out
	}
	want := keys(base)
	m := base
	mv := reflect.ValueOf(&m).Elem()
	leaves := 0
	for i := 0; i < mv.NumField(); i++ {
		section := mv.Type().Field(i).Name
		modes, ok := readers[section]
		if !ok {
			t.Fatalf("config.Machine section %s has no declared reader modes; add it here", section)
		}
		eachLeaf(mv.Field(i), section, func(name string, leaf reflect.Value) {
			leaves++
			orig := reflect.ValueOf(leaf.Interface())
			perturb(t, name, leaf, func() bool { return m.Validate() == nil })
			got := keys(m)
			leaf.Set(orig)
			for _, mode := range cmp.Modes() {
				reads := false
				for _, r := range modes {
					reads = reads || r == mode
				}
				if changed := got[mode] != want[mode]; changed != reads {
					t.Errorf("%s: %s cell key changed=%v, want %v", name, mode, changed, reads)
				}
			}
		})
	}
	if !reflect.DeepEqual(m, base) {
		t.Fatal("perturbed fields were not restored")
	}
	if leaves < 40 {
		t.Fatalf("walked only %d leaf fields of config.Machine", leaves)
	}
}

// eachLeaf calls visit on every scalar reachable from the addressable
// value v through struct fields and array elements, with its dotted
// name.
func eachLeaf(v reflect.Value, name string, visit func(string, reflect.Value)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			eachLeaf(v.Field(i), name+"."+v.Type().Field(i).Name, visit)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			eachLeaf(v.Index(i), fmt.Sprintf("%s[%d]", name, i), visit)
		}
	default:
		visit(name, v)
	}
}

// enumValues are the non-default values of the string fields machine
// validation restricts (steering policy, predictor kind).
var enumValues = []string{"roundrobin", "chunk64", "affinity", "bimodal", "gshare", "tournament"}

// perturb changes a leaf field's value to the first candidate that
// keeps the machine valid (ok reports validity), restoring it and
// failing the test when no candidate does.
func perturb(t *testing.T, name string, v reflect.Value, ok func() bool) {
	t.Helper()
	orig := reflect.ValueOf(v.Interface())
	var candidates []reflect.Value
	switch v.Kind() {
	case reflect.Int:
		n := v.Int()
		for _, c := range []int64{n + 1, 2 * n, n - 1, 1} {
			candidates = append(candidates, reflect.ValueOf(int(c)))
		}
	case reflect.Bool:
		candidates = append(candidates, reflect.ValueOf(!v.Bool()))
	case reflect.String:
		candidates = append(candidates, reflect.ValueOf(v.String()+"x"))
		for _, e := range enumValues {
			candidates = append(candidates, reflect.ValueOf(e))
		}
	default:
		t.Fatalf("%s: config.Machine leaf of kind %s: teach perturb to change it", name, v.Kind())
	}
	for _, c := range candidates {
		if c.Interface() == orig.Interface() {
			continue
		}
		v.Set(c.Convert(v.Type()))
		if ok() {
			return
		}
	}
	v.Set(orig)
	t.Fatalf("%s: no candidate value keeps the machine valid", name)
}

// TestSessionRunsEachCellOnce runs the whole evaluation in one session
// through a counting cell runner: every distinct cell identity must
// reach the runner exactly once, and each experiment's document must
// equal the one a fresh single-experiment session renders — a key that
// is too loose would hand one experiment another's run.
func TestSessionRunsEachCellOnce(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]int{}
	s := NewSession(sharingInsts, 0)
	s.SetCellRunner(func(m config.Machine, mode cmp.Mode, w workloads.Workload, tr *trace.Trace) (stats.Run, error) {
		key := cellKeyOf(t, m, mode, w.Name)
		mu.Lock()
		seen[key]++
		mu.Unlock()
		return cmp.Run(m, mode, tr)
	})
	doc := func(res *Result) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := WriteJSON(&buf, sharingInsts, []*Result{res}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, id := range IDs() {
		shared, err := s.Run(id)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewSession(sharingInsts, 0).Run(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(doc(shared), doc(fresh)) {
			t.Errorf("%s: document from the shared session differs from a fresh session's", id)
		}
	}
	runs := 0
	for key, n := range seen {
		runs += n
		if n != 1 {
			t.Errorf("cell simulated %d times, want once:\n%s", n, key)
		}
	}
	simulated, reused := s.CellCounts()
	if simulated != int64(runs) {
		t.Errorf("CellCounts simulated = %d, runner saw %d", simulated, runs)
	}
	if reused == 0 {
		t.Error("the evaluation reused no cell across experiments")
	}
}

// TestCellConfigRejectsInvalid checks an invalid machine gets no cell
// identity in any mode, not even one whose invalid section the mode
// never simulates: validation reads every section, so the run fails,
// and a blanked section must not let it share a valid cell's result.
func TestCellConfigRejectsInvalid(t *testing.T) {
	m := config.Medium()
	m.FgSTP.Steering = "bogus"
	for _, mode := range cmp.Modes() {
		if _, err := CellConfig(m, mode); err == nil {
			t.Errorf("%s: CellConfig accepted an invalid machine", mode)
		}
	}
}
