// Package metrics is the observability layer of the simulator: a
// structured, deterministic counter registry that every timing model
// summarises into (replacing ad-hoc string-keyed maps), a typed
// pipeline event stream the Fg-STP machine emits steering, value-
// transfer and squash events into, a Chrome trace-event exporter that
// renders one run's event stream into a Perfetto-loadable file, and
// small process-introspection helpers (peak RSS) for the CLI session
// footers.
package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
)

// Sample is one named counter value.
type Sample struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Registry is an ordered counter sink. Counters keep their registration
// order (the order the model Set them in), and every export view —
// Samples, Sorted, MarshalJSON — is deterministic, so two identical
// simulations produce byte-identical exports regardless of scheduling.
// Lookups scan the samples linearly: a run registers at most ~50
// counters, once, and experiment sessions keep hundreds of runs alive,
// so an index map would cost more memory than its lookups save. The
// zero value is ready to use. A Registry is not safe for concurrent
// mutation; models populate it single-threaded and readers treat it as
// immutable afterwards.
type Registry struct {
	samples []Sample
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// find returns the index of name in samples, or -1 when absent.
func (g *Registry) find(name string) int {
	if g == nil {
		return -1
	}
	for i := range g.samples {
		if g.samples[i].Name == name {
			return i
		}
	}
	return -1
}

// Set records v under name, registering the counter on first use.
func (g *Registry) Set(name string, v float64) {
	if i := g.find(name); i >= 0 {
		g.samples[i].Value = v
		return
	}
	g.samples = append(g.samples, Sample{Name: name, Value: v})
}

// Add increments name by v, registering the counter at v on first use.
func (g *Registry) Add(name string, v float64) {
	if i := g.find(name); i >= 0 {
		g.samples[i].Value += v
		return
	}
	g.samples = append(g.samples, Sample{Name: name, Value: v})
}

// Get returns the value of name (zero when absent).
func (g *Registry) Get(name string) float64 {
	if i := g.find(name); i >= 0 {
		return g.samples[i].Value
	}
	return 0
}

// Has reports whether name is registered.
func (g *Registry) Has(name string) bool { return g.find(name) >= 0 }

// Len returns the number of registered counters.
func (g *Registry) Len() int {
	if g == nil {
		return 0
	}
	return len(g.samples)
}

// Samples returns the counters in registration order.
func (g *Registry) Samples() []Sample {
	if g == nil {
		return nil
	}
	out := make([]Sample, len(g.samples))
	copy(out, g.samples)
	return out
}

// Sorted returns the counters in name order — the rendering order of
// every text and machine-readable export.
func (g *Registry) Sorted() []Sample {
	out := g.Samples()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// MarshalJSON renders the registry as a JSON object with name-sorted
// keys, so the encoding is stable across runs.
func (g *Registry) MarshalJSON() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteByte('{')
	for i, s := range g.Sorted() {
		if i > 0 {
			buf.WriteByte(',')
		}
		k, err := json.Marshal(s.Name)
		if err != nil {
			return nil, err
		}
		v, err := json.Marshal(s.Value)
		if err != nil {
			return nil, fmt.Errorf("counter %s: %w", s.Name, err)
		}
		buf.Write(k)
		buf.WriteByte(':')
		buf.Write(v)
	}
	buf.WriteByte('}')
	return buf.Bytes(), nil
}

// UnmarshalJSON accepts the object form MarshalJSON produces. Counters
// register in name order (the order information is not preserved by
// JSON objects).
func (g *Registry) UnmarshalJSON(data []byte) error {
	m := map[string]float64{}
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		g.Set(k, m[k])
	}
	return nil
}
