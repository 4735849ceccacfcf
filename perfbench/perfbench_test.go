package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"

	"hoplite"
	"hoplite/internal/core"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n   int
		pct float64
		ok  bool
	}{
		{0, 50, false},
		{19, 50, false}, // the median leaves only 9 beyond it
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		pct, ok := tailPercentile(tc.n)
		if pct != tc.pct || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = p%g, %v; want p%g, %v", tc.n, pct, ok, tc.pct, tc.ok)
		}
		if ok && tc.n-1-rank(tc.n, pct) < minBeyond {
			t.Errorf("n=%d p%g leaves fewer than %d samples beyond", tc.n, pct, minBeyond)
		}
	}
}

func TestSummarize(t *testing.T) {
	var samples []float64
	for i := 100; i >= 1; i-- { // unsorted input
		samples = append(samples, float64(i))
	}
	s := summarize(samples)
	if s.N != 100 || s.P50 != 50 || s.Tail != 90 || s.TailPct != 90 || !s.TailOK {
		t.Fatalf("summarize(1..100) = %+v", s)
	}
	if samples[0] != 100 {
		t.Fatal("summarize reordered its input")
	}
	few := summarize([]float64{3, 1, 2})
	if few.Tail != few.P50 || few.TailOK {
		t.Fatalf("summarize of 3 samples = %+v; want tail = median, not OK", few)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %g, want 2.5", m)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	base := time.Unix(0, 0)
	at := func(msec int) time.Time { return base.Add(time.Duration(msec) * time.Millisecond) }
	tr := newTracer()
	parent := tr.newID()
	tr.record(parent, 0, "op", at(0), at(100))
	tr.record(0, parent, "core.get", at(10), at(30))
	tr.record(0, parent, "core.get", at(20), at(50)) // overlaps the first
	tr.record(0, parent, "core.put", at(60), at(70))
	tr.record(0, parent, "core.put", at(62), at(65)) // nested in the previous
	tr.record(0, parent, "core.delete", at(90), at(120))
	// A span of another op must not count.
	other := tr.newID()
	tr.record(other, 0, "op", at(0), at(10))
	tr.record(0, other, "core.get", at(40), at(45))

	got := tr.selfTimes("op")
	sort.Slice(got, func(i, j int) bool { return got[i] > got[j] })
	// Covered: [10,50] + [60,70] + [90,100] (clipped) = 60 ms of 100.
	want := []time.Duration{40 * time.Millisecond, 10 * time.Millisecond}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	if d := tr.durations("core.get"); len(d) != 3 {
		t.Fatalf("durations(core.get) = %v", d)
	}
	var nilTracer *tracer
	nilTracer.record(nilTracer.newID(), 0, "op", at(0), at(1)) // must not panic
}

func TestCounterWindowPerOp(t *testing.T) {
	a, b, restarted := new(core.Node), new(core.Node), new(core.Node)
	now := map[*core.Node]nodeCounters{
		a: {dirCalls: 100, sentBytes: 1000},
		b: {dirCalls: 50, sentBytes: 500},
	}
	w := newCounterWindow([]*core.Node{a, b}, func(n *core.Node) nodeCounters { return now[n] })
	now[a] = nodeCounters{dirCalls: 130, sentBytes: 1600}
	now[b] = nodeCounters{dirCalls: 70, sentBytes: 500}
	w.retire(b) // b is killed and replaced; its 20 calls must survive
	w.retire(b) // retiring twice counts once
	now[restarted] = nodeCounters{dirCalls: 10, sentBytes: 100}
	d := w.delta([]*core.Node{a, restarted, nil})
	if d.dirCalls != 30+20+10 || d.sentBytes != 600+0+100 {
		t.Fatalf("delta = %+v; want 60 calls, 700 bytes", d)
	}
	if got := perOp(d.dirCalls, 12); got != 5 {
		t.Fatalf("perOp = %g, want 5", got)
	}
	if got := perOp(d.dirCalls, 0); got != 0 {
		t.Fatalf("perOp with no ops = %g, want 0", got)
	}
}

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestWorkloadSmoke runs every workload briefly, untraced and traced, and
// checks that each emits exactly the metrics BENCHMARK.json names. The
// gated workloads BENCHMARK.json lists must exist; bcast-fault runs here
// too, though it is not gated.
func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots clusters")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Fatalf("BENCHMARK.json names workload %s, the benchmark has none", w.Name)
		}
	}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			out, err := execute(config{workload: name, seed: 7, seconds: 1, trace: trace, setups: 1, workdir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !out.correct || out.attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d", name, trace, out.correct, out.attempted)
			}
			line, err := resultJSON(out)
			if err != nil {
				t.Fatal(err)
			}
			var res struct {
				Metrics map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line, &res); err != nil {
				t.Fatal(err)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", name, trace, m.Name, got.Value)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestNilNodeSlot covers a node whose RestartNode failed, leaving its
// cluster slot nil: it is never picked as a victim, and a broadcast round
// that reaches it fails as a counted error instead of panicking.
func TestNilNodeSlot(t *testing.T) {
	up := new(core.Node)
	nodes := []*core.Node{up, nil, up, nil, up}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		if v := pickVictim(rng, nodes); v != 2 && v != 4 {
			t.Fatalf("pickVictim picked %d, want a live receiver (2 or 4)", v)
		}
	}
	if v := pickVictim(rng, []*core.Node{up, nil, nil}); v != -1 {
		t.Fatalf("pickVictim with no live receiver = %d, want -1", v)
	}

	o := &op{ctx: context.Background(), b: &bench{}}
	oid := hoplite.ObjectIDFromString("nil-slot")
	futs := []*hoplite.RefFuture{getRefAsync(o.ctx, nil, oid), getRefAsync(o.ctx, nil, oid)}
	fs := o.await(futs, time.Now(), 1) // receiver 1 is this round's victim
	if !errors.Is(fs[0].err, errNodeDown) || fs[1].err != nil {
		t.Fatalf("await over nil slots = %+v; want errNodeDown for receiver 0 only", fs)
	}
	if _, err := o.check(fs, []byte("x"), 1); !errors.Is(err, errNodeDown) {
		t.Fatalf("check = %v, want errNodeDown", err)
	}
	r := newRecorder()
	r.done(errNodeDown, 0)
	if r.attempted != 1 || r.failed != 1 || r.failures["error"] != 1 {
		t.Fatalf("recorder after a nil-slot failure = %+v", r)
	}
}
