package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/cmp"
)

// refs are the recorded correct outputs the benchmark checks against:
// a sha256 digest of every result document each workload produces and
// the exact full-run IPCs the sampled estimates are scored against.
// They are valid for one engine version only; `perfbench regen`
// records them again after a deliberate cmp.EngineVersion bump.
type refs struct {
	EngineVersion string `json:"engine_version"`
	Suite         struct {
		Insts   uint64            `json:"insts"`
		Digests map[string]string `json:"digests"` // experiment id or "export"
	} `json:"suite"`
	Sampled struct {
		Insts    uint64             `json:"insts"`
		Interval int                `json:"interval"`
		Digests  map[string]string  `json:"digests"`   // workload/mode estimate
		ExactIPC map[string]float64 `json:"exact_ipc"` // workload/mode full run
	} `json:"sampled"`
	Service struct {
		Digests map[string]string `json:"digests"` // request key
	} `json:"service"`
}

//go:embed refs.json
var refsJSON []byte

// loadRefs parses the embedded references and refuses them when they
// were recorded for another engine version: the outputs may then
// legitimately differ, and checking against them would be meaningless.
func loadRefs() (*refs, error) {
	var r refs
	if err := json.Unmarshal(refsJSON, &r); err != nil {
		return nil, fmt.Errorf("refs.json: %w", err)
	}
	if r.EngineVersion != cmp.EngineVersion {
		return nil, fmt.Errorf("refs.json was recorded for %q, the engine is %q: run `perfbench regen`",
			r.EngineVersion, cmp.EngineVersion)
	}
	return &r, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// check compares a produced document with its recorded digest.
func check(want map[string]string, key string, doc []byte) error {
	w, ok := want[key]
	if !ok {
		return fmt.Errorf("%s: no recorded digest", key)
	}
	if got := digest(doc); got != w {
		return fmt.Errorf("%s: digest %.12s, recorded %.12s", key, got, w)
	}
	return nil
}

func writeRefs(path string, r *refs) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
