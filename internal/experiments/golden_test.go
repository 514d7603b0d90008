package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cmp"
)

// goldenInsts is the per-cell budget of the committed results golden:
// the same budget scripts/check.sh uses, a few seconds for E1..E10.
const goldenInsts = 3000

// goldenPath names the golden export of the current engine version.
func goldenPath() string {
	return filepath.Join("testdata", "golden-"+strings.ReplaceAll(cmp.EngineVersion, "/", "-")+".json")
}

// TestGoldenExport pins the full evaluation's exact numbers to the
// engine version. The result cache trusts cmp.EngineVersion to change
// whenever any result byte changes; this test enforces that contract in
// both directions: output drift without a version bump fails the byte
// comparison, and a version bump without a regenerated golden fails to
// find its file.
func TestGoldenExport(t *testing.T) {
	path := goldenPath()
	regen := "regenerate it with\n\tgo run ./cmd/fgstpbench -experiment all -insts 3000 -format json -jobs 1 > internal/experiments/" + path +
		"\n(only for an intended output change, after bumping cmp.EngineVersion)"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no results golden for engine version %s: %v\n%s", cmp.EngineVersion, err, regen)
	}
	s := NewSession(goldenInsts, 0)
	results := make([]*Result, 0, len(IDs()))
	for _, id := range IDs() {
		res, err := s.Run(id)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	var got bytes.Buffer
	if err := WriteJSON(&got, goldenInsts, results); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		line := 1 + bytes.Count(want[:commonPrefix(got.Bytes(), want)], []byte("\n"))
		t.Fatalf("-experiment all export differs from %s (first difference on line %d) without an engine version bump;\n"+
			"cached results are keyed on cmp.EngineVersion. If the change is intended, bump it and %s", path, line, regen)
	}
}

func commonPrefix(a, b []byte) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}
