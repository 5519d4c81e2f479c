package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestQuantileNearestRank(t *testing.T) {
	s := seq(10)
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.99, 10}, {0, 1}, {1, 10},
	} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..10, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(nil) = %g, want 0", got)
	}
}

// The percentile rule: the highest ladder percentile with at least ten
// samples beyond it; the maximum when no percentile qualifies.
func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n         int
		wantQ     float64
		wantValue float64
	}{
		{5, 1, 5},            // too few: the maximum
		{19, 1, 19},          // p50 would have only 9.5 beyond
		{20, 0.50, 10},       // p50 has exactly 10 beyond
		{99, 0.50, 50},       // p90 would have 9.9 beyond
		{100, 0.90, 90},      // p90 has 10 beyond
		{999, 0.90, 900},     // p99 would have 9.99 beyond
		{1000, 0.99, 990},    // p99 has 10 beyond
		{50000, 0.99, 49500}, // never above p99
	} {
		v, q := tail(seq(c.n))
		if q != c.wantQ || v != c.wantValue {
			t.Errorf("tail(n=%d) = %g at q=%g, want %g at q=%g", c.n, v, q, c.wantValue, c.wantQ)
		}
	}
}

// Open-loop accounting charges a stall to every request it delayed:
// latency runs from the due time, and lateness is reported apart.
func TestDueLatency(t *testing.T) {
	ms := time.Millisecond
	lat, late := dueLatency(10*ms, 12*ms, 15*ms)
	if lat != 5*ms || late != 2*ms {
		t.Fatalf("dueLatency = %v, %v; want 5ms, 2ms", lat, late)
	}
	// A 5 ms stall: both requests leave at 5 ms and are answered at
	// 6 ms. Timed from the send they would both read 1 ms.
	for _, c := range []struct{ due, want time.Duration }{{0, 6 * ms}, {1 * ms, 5 * ms}} {
		if lat, _ := dueLatency(c.due, 5*ms, 6*ms); lat != c.want {
			t.Errorf("stalled request due %v: latency %v, want %v", c.due, lat, c.want)
		}
	}
}

func TestSlotClockMapping(t *testing.T) {
	var c slotClock
	ms := time.Millisecond
	c.observe(10, 1*ms)
	c.observe(10, 2*ms) // later sighting of the same slot: ignored
	c.observe(11, 3*ms)
	c.observe(14, 9*ms)  // the poller missed slots 12 and 13
	c.observe(13, 10*ms) // a clock never runs backwards: ignored
	for _, x := range []struct {
		slot int64
		want time.Duration
	}{
		{9, 1 * ms},  // before the first sighting: the first sighting
		{10, 1 * ms}, // first sighting, not the later one
		{11, 3 * ms},
		{12, 9 * ms}, // completed in a missed slot: visible at the next sighting
		{14, 9 * ms},
	} {
		got, ok := c.wall(x.slot)
		if !ok || got != x.want {
			t.Errorf("wall(%d) = %v, %v; want %v", x.slot, got, ok, x.want)
		}
	}
	if _, ok := c.wall(15); ok {
		t.Error("wall(15) reported a slot the clock never reached")
	}
}

func TestWindowedMediansIgnoreOneBadWindow(t *testing.T) {
	w := newWindowed(10*time.Second, 5)
	for i := 0; i < 500; i++ {
		due := time.Duration(i) * 20 * time.Millisecond
		v := 1.0
		if due >= 4*time.Second && due < 6*time.Second {
			v = 100 // one window disturbed
		}
		w.add(due, v)
	}
	if w.count() != 500 {
		t.Fatalf("count = %d, want 500", w.count())
	}
	if got := w.quantile(0.5); got != 1 {
		t.Errorf("p50 = %g, want 1", got)
	}
	if got := w.quantile(0.9); got != 1 {
		t.Errorf("p90 = %g, want 1", got)
	}
	if got, q := w.tail(); got != 1 || q != 0.9 {
		t.Errorf("tail = %g at q=%g, want 1 at q=0.9 (100 samples per window)", got, q)
	}
}

func TestHistQuantileMergesFabricsAndDiffs(t *testing.T) {
	before, err := parseProm(strings.NewReader(`# HELP h x
# TYPE h histogram
h_bucket{fabric="0",le="0.001"} 10
h_bucket{fabric="0",le="0.01"} 10
h_bucket{fabric="0",le="+Inf"} 10
h_bucket{fabric="1",le="0.001"} 0
h_bucket{fabric="1",le="0.01"} 0
h_bucket{fabric="1",le="+Inf"} 0
c{fabric="0"} 5
c{fabric="1"} 1
`))
	if err != nil {
		t.Fatal(err)
	}
	// Between the scrapes: 10 more in (0, 0.001] on fabric 0 and 10 in
	// (0.001, 0.01] on fabric 1.
	after, err := parseProm(strings.NewReader(`h_bucket{fabric="0",le="0.001"} 20
h_bucket{fabric="0",le="0.01"} 20
h_bucket{fabric="0",le="+Inf"} 20
h_bucket{fabric="1",le="0.001"} 0
h_bucket{fabric="1",le="0.01"} 10
h_bucket{fabric="1",le="+Inf"} 10
c{fabric="0"} 7
c{fabric="1"} 4
`))
	if err != nil {
		t.Fatal(err)
	}
	if got := counterDelta(before, after, "c"); got != 5 {
		t.Errorf("counter delta = %g, want 5", got)
	}
	v, n := histQuantile(before, after, "h", 0.5)
	if n != 20 || math.Abs(v-0.001) > 1e-12 {
		t.Errorf("p50 = %g of %g, want 0.001 of 20", v, n)
	}
	// Rank 15 sits halfway into the (0.001, 0.01] bucket's 10 samples.
	if v, _ := histQuantile(before, after, "h", 0.75); math.Abs(v-0.0055) > 1e-12 {
		t.Errorf("p75 = %g, want 0.0055 (linear inside the bucket)", v)
	}
	if v, n := histQuantile(before, after, "missing", 0.5); v != 0 || n != 0 {
		t.Errorf("missing histogram = %g of %g, want 0 of 0", v, n)
	}
}

func TestDeriveSeedIsStableAndSpread(t *testing.T) {
	if deriveSeed(1, 0) != deriveSeed(1, 0) {
		t.Fatal("deriveSeed is not a function of its arguments")
	}
	seen := map[int64]bool{}
	for s := int64(0); s < 10; s++ {
		for k := uint64(0); k < 10; k++ {
			v := deriveSeed(s, k)
			if v < 0 || seen[v] {
				t.Fatalf("deriveSeed(%d, %d) = %d: negative or repeated", s, k, v)
			}
			seen[v] = true
		}
	}
}

// BENCHMARK.json and the metric lists the program prints must agree.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
