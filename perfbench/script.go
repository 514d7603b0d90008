package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/workloads"
)

// The service script: every round sends each workload's /v1/sim
// request once and repeats it once (a doc-cache hit), sends each bench
// experiment once and repeats it once, and sends two sweeps whose
// cells overlap the bench experiments. The seed decides the order and
// where each repeat and sweep lands; the multiset of requests is the
// same for every seed, so the work per round is too.
const (
	simInsts   = 50_000
	benchInsts = 2_000
	clients    = 2
)

var (
	benchIDs = []string{"E2", "E3", "E8", "E10"}
	// sweepSets overlap the bench experiments: E2 and E3 are doc-cache
	// hits once their bench requests ran, and E4/E5 vary the Fg-STP
	// fabric of the medium machine, so they share E2's baseline cells.
	sweepSets = [][]string{{"E2", "E5"}, {"E3", "E4"}}
)

// request is one scripted call.
type request struct {
	Class  string // sim, bench or sweep
	Path   string
	Body   string
	Key    string // reference digest key; sweeps check units by bench key
	Repeat bool   // scripted as a repeat of an earlier request
	Of     int    // script index of the repeated request, if Repeat
}

func simKey(workload string) string {
	return fmt.Sprintf("sim/%s/medium/%d/all", workload, simInsts)
}

func benchKey(id string, insts uint64) string { return fmt.Sprintf("bench/%s/%d", id, insts) }

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain maps of strings and numbers always marshal
	}
	return string(b)
}

func simRequest(workload string) request {
	return request{Class: "sim", Path: "/v1/sim", Key: simKey(workload),
		Body: mustJSON(map[string]any{"workload": workload, "machine": "medium", "insts": simInsts, "format": "json"})}
}

func benchRequest(id string) request {
	return request{Class: "bench", Path: "/v1/bench", Key: benchKey(id, benchInsts),
		Body: mustJSON(map[string]any{"experiment": id, "insts": benchInsts, "format": "json"})}
}

func sweepRequest(ids []string) request {
	return request{Class: "sweep", Path: "/v1/sweep",
		Body: mustJSON(map[string]any{"experiments": ids, "insts": []int{benchInsts}, "format": "json"})}
}

// roundScript returns the requests of one round in script order. The
// clients share the script: each takes the next request when its
// previous one has been answered (a closed loop), so the load stays
// balanced over the clients whatever the order. A repeat names its
// original, and the client that takes it waits for the original's
// response first, so a repeat is a doc-cache hit by construction.
func roundScript(seed int64, round int) []request {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(round)))
	var base []request
	for _, w := range workloads.Names() {
		base = append(base, simRequest(w))
	}
	for _, id := range benchIDs {
		base = append(base, benchRequest(id))
	}
	rng.Shuffle(len(base), func(i, j int) { base[i], base[j] = base[j], base[i] })

	type placed struct {
		at    float64
		r     request
		first int // index in base of the original, -1 for originals
	}
	n := float64(len(base))
	var s []placed
	for i, r := range base {
		s = append(s, placed{float64(i), r, -1})
	}
	for i, r := range base {
		r.Repeat = true
		s = append(s, placed{float64(i) + 0.5 + rng.Float64()*(n-float64(i)), r, i})
	}
	// Sweeps land in the middle of the round, after most bench
	// experiments they overlap and away from its end, where one long
	// request would leave the other client idle.
	for _, set := range sweepSets {
		s = append(s, placed{n * (0.4 + 0.3*rng.Float64()), sweepRequest(set), -1})
	}
	sort.SliceStable(s, func(i, j int) bool { return s[i].at < s[j].at })
	pos := map[int]int{} // base index -> script index
	out := make([]request, len(s))
	for i, p := range s {
		out[i] = p.r
		if p.first >= 0 {
			out[i].Of = pos[p.first]
		} else if p.r.Class != "sweep" {
			pos[int(p.at)] = i
		}
	}
	return out
}

// scriptShares reports the share of each request class in a round, as
// recorded in BENCHMARK.json.
func scriptShares(script []request) map[string]float64 {
	counts := map[string]int{}
	for _, r := range script {
		class := r.Class
		switch {
		case r.Class == "sweep":
		case r.Repeat:
			class += "_repeat"
		default:
			class += "_first"
		}
		counts[class]++
	}
	out := map[string]float64{}
	for k, v := range counts {
		out[k] = float64(v) / float64(len(script))
	}
	return out
}
