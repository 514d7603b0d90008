// Digest and codec tests. The digest keys the daemon's result cache, so
// a field it skipped would let two different traces share a cache entry:
// TestDigestCoversEveryField is the correctness gate for that key. The
// package is external (trace_test) so it can capture workload traces.
package trace_test

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func workloadTrace(tb testing.TB, name string, insts uint64) *trace.Trace {
	tb.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		tb.Fatalf("unknown workload %q", name)
	}
	return w.Trace(insts)
}

// savePayload returns the uncompressed bytes of tr's Save output.
func savePayload(tb testing.TB, tr *trace.Trace) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	zr, err := gzip.NewReader(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// The trace file format is persisted (fgstpsim -savetrace), so the
// codec must write exactly the bytes it always has. The golden is the
// SHA-256 of the uncompressed stream, recorded from the reflection-based
// encoder this codec replaced; the gzip envelope around it is the
// standard library's and is not pinned.
func TestSaveGolden(t *testing.T) {
	tr := workloadTrace(t, "mcf", 20000)
	raw := savePayload(t, tr)
	if len(raw) != 20+len("mcf")+20000*40 {
		t.Fatalf("payload is %d bytes", len(raw))
	}
	const want = "5d006e537d7488c0bfb0ee3b29ae688b63eb152d3bf5e398cdb98771020326f7"
	if got := sha256.Sum256(raw); hex.EncodeToString(got[:]) != want {
		t.Fatalf("Save payload sha256 %x, want %s", got, want)
	}
}

func TestDigestGolden(t *testing.T) {
	const want = "33b570b69ec77cc108970d49fe3cfa911623f682bdde6a87eb676d95b506fef2"
	if got := workloadTrace(t, "gcc", 5000).Digest(); hex.EncodeToString(got[:]) != want {
		t.Fatalf("Digest %x, want %s", got, want)
	}
}

// The digest is the hash of exactly what Save persists.
func TestDigestIsSavePayloadHash(t *testing.T) {
	for _, tr := range []*trace.Trace{
		{Name: "empty"},
		workloadTrace(t, "hmmer", 3000),
		workloadTrace(t, "lbm", 777),
	} {
		if got, want := tr.Digest(), sha256.Sum256(savePayload(t, tr)); got != want {
			t.Errorf("%s: Digest %x, sha256 of Save payload %x", tr.Name, got, want)
		}
	}
}

func saveLoad(tb testing.TB, tr *trace.Trace) *trace.Trace {
	tb.Helper()
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	back, err := trace.Load(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	return back
}

func TestDigestRoundTrip(t *testing.T) {
	tr := workloadTrace(t, "gcc", 5000)
	if got, want := saveLoad(t, tr).Digest(), tr.Digest(); got != want {
		t.Fatalf("Digest(Load(Save(tr))) %x != Digest(tr) %x", got, want)
	}
}

// Changing any persisted field, the name or the length must change the
// digest, and the change must survive a Save/Load round trip (so the
// field really is persisted, not just hashed). Mutations stay valid:
// PC is changed on the first record and NextPC on the last, where no
// neighbour constrains them.
func TestDigestCoversEveryField(t *testing.T) {
	base := workloadTrace(t, "gcc", 400)
	last := len(base.Insts) - 1
	nextReg := func(r isa.Reg) isa.Reg { return (r + 1) % isa.NumRegs }
	cases := []struct {
		name   string
		mutate func(tr *trace.Trace)
	}{
		{"PC", func(tr *trace.Trace) { tr.Insts[0].PC += 4 }},
		{"Addr", func(tr *trace.Trace) { tr.Insts[last].Addr ^= 8 }},
		{"Target", func(tr *trace.Trace) { tr.Insts[last].Target ^= 4 }},
		{"NextPC", func(tr *trace.Trace) { tr.Insts[last].NextPC += 4 }},
		{"Class", func(tr *trace.Trace) {
			tr.Insts[last].Class = (tr.Insts[last].Class + 1) % isa.Class(isa.NumClasses)
		}},
		{"Dst", func(tr *trace.Trace) { tr.Insts[last].Dst = nextReg(tr.Insts[last].Dst) }},
		{"Src1", func(tr *trace.Trace) { tr.Insts[last].Src1 = nextReg(tr.Insts[last].Src1) }},
		{"Src2", func(tr *trace.Trace) { tr.Insts[last].Src2 = nextReg(tr.Insts[last].Src2) }},
		{"Src3", func(tr *trace.Trace) { tr.Insts[last].Src3 = nextReg(tr.Insts[last].Src3) }},
		{"Taken", func(tr *trace.Trace) { tr.Insts[last].Taken = !tr.Insts[last].Taken }},
		{"Indirect", func(tr *trace.Trace) { tr.Insts[last].Indirect = !tr.Insts[last].Indirect }},
		{"IsCall", func(tr *trace.Trace) { tr.Insts[last].IsCall = !tr.Insts[last].IsCall }},
		{"IsRet", func(tr *trace.Trace) { tr.Insts[last].IsRet = !tr.Insts[last].IsRet }},
		{"Name", func(tr *trace.Trace) { tr.Name += "x" }},
		{"Length", func(tr *trace.Trace) { tr.Insts = tr.Insts[:last] }},
	}
	want := base.Digest()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := &trace.Trace{Name: base.Name, Insts: append([]isa.DynInst(nil), base.Insts...)}
			c.mutate(tr)
			if tr.Digest() == want {
				t.Fatalf("mutating %s left the digest unchanged", c.name)
			}
			if saveLoad(t, tr).Digest() != tr.Digest() {
				t.Fatalf("mutated %s did not survive Save/Load", c.name)
			}
		})
	}
}

// The two benchmarks split a /v1/sim cache key into its layers: hashing
// the canonical records (what the daemon does per request) versus the
// full gzip capture (what -savetrace writes).
const benchInsts = 50000

// digestSink keeps the benchmarked Digest call from being optimised away.
var digestSink [sha256.Size]byte

func BenchmarkTraceDigest(b *testing.B) {
	tr := workloadTrace(b, "mcf", benchInsts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		digestSink = tr.Digest()
	}
}

func BenchmarkTraceSave(b *testing.B) {
	tr := workloadTrace(b, "mcf", benchInsts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Save(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
