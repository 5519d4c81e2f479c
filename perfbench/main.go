// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload on inputs generated from a seed, checks that the
// program's outputs are correct, and prints every metric by name with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set (untraced run);
// with -trace 1 they are the per-layer set, measured by timing calls
// into each module's public functions from this package. The program
// itself carries no benchmark spans. See NOTES.md for the metric →
// layer → end-to-end map and why each workload exists.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload offline-hlp --seed 1 --seconds 24 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd is the untraced run's metric set, printed for every
// workload. It mirrors BENCHMARK.json's end_to_end list (a test keeps
// the two in step). On the offline workloads the "unit of work" is
// one instance through all of the workload's configurations: ack is
// its first schedule, complete is its last (instance_p50_s). Latency
// tails are printed but not part of the set (see NOTES.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ack_p50_s", "s"},
	{"complete_p50_s", "s"},
	{"objective_ratio", "ratio"},
	{"peak_heap_mb", "MB"},
}

// perLayer is the traced run's metric set, printed for every workload;
// a layer that is not on the workload's path reads 0. It mirrors
// BENCHMARK.json's per_layer list.
var perLayer = []metricDef{
	{"trace.generate_s", "s"},
	{"lpmodel.solve_s", "s"},
	{"lpmodel.solve_allocs", "count"},
	{"lp.iterations", "count"},
	{"lp.rows", "count"},
	{"lp.vars", "count"},
	{"core.order_s", "s"},
	{"core.group_s", "s"},
	{"switchsim.execute_s", "s"},
	{"switchsim.execute_allocs", "count"},
	{"switchsim.matchings", "count"},
	{"switchsim.stages", "count"},
	{"pipeline.coverage", "share"},
	{"loadgen.late_p50_s", "s"},
	{"loadgen.late_p99_s", "s"},
	{"transport.register_p50_s", "s"},
	{"shard.http.register_p50_s", "s"},
	{"shard.http.register_p99_s", "s"},
	{"shard.http.get_p50_s", "s"},
	{"shard.http.cancel_p50_s", "s"},
	{"shard.http.metrics_p50_s", "s"},
	{"shard.http.prometheus_p50_s", "s"},
	{"shard.http.busy_share", "share"},
	{"daemon.tick_p50_s", "s"},
	{"daemon.tick_p99_s", "s"},
	{"daemon.queue_depth_max", "count"},
	{"daemon.slots_per_s", "1/s"},
	{"daemon.ticks_skipped_share", "share"},
	{"daemon.live_coflows_max", "count"},
	{"daemon.complete_slots_p50", "slots"},
	{"daemon.complete_slots_p99", "slots"},
	{"online.step_p50_s", "s"},
	{"online.step_p99_s", "s"},
	{"online.sort_p50_s", "s"},
	{"online.match_p50_s", "s"},
	{"online.replay_p50_s", "s"},
	{"online.warm_start_hit_rate", "share"},
	{"tracing.overhead_share", "share"},
	{"failed_share", "share"},
}

// scale selects input sizes: paper is what the benchmark measures,
// tiny keeps the smoke tests fast.
type scale int

const (
	scalePaper scale = iota
	scaleTiny
)

// runConfig is everything a workload run depends on.
type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
	scale   scale
	// corrupt, when set, is handed each result right before the named
	// correctness check reads it, so tests can prove every check
	// trips. Nil in real runs.
	corrupt func(check string, v any)
}

// tamper passes v to the corruption hook, if any.
func (rc *runConfig) tamper(check string, v any) {
	if rc.corrupt != nil {
		rc.corrupt(check, v)
	}
}

// report collects a run's metrics, counts and check failures.
type report struct {
	values    map[string]float64
	notes     []string // human-readable extra lines (sample counts etc.)
	attempted int64
	failed    int64
	problems  []string // failed correctness checks
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// problem records a failed correctness check without counting a
// failed operation; the caller counts the operation once.
func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// fail records a failed correctness check that is, by itself, one
// failed operation.
func (r *report) fail(format string, args ...any) {
	r.problem(format, args...)
	r.failed++
}

// workload is one named set of inputs.
type workload struct {
	name string
	run  func(rc *runConfig, rep *report) error
}

var workloads = []workload{
	{"offline-hlp", runOfflineHLP},
	{"offline-grid", runOfflineGrid},
	{"serve-light", runServeLight},
	{"serve-live", runServeLive},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs one workload and renders its report: a human-readable
// block (every measured value by name, notes, check failures) and the
// JSON result line last. It returns whether every check passed.
func execute(w workload, rc *runConfig, out io.Writer) (bool, error) {
	rep := newReport()
	peak := startHeapSampler()
	err := w.run(rc, rep)
	heap := peak.stop()
	if err != nil {
		return false, err
	}
	rep.set("peak_heap_mb", heap/1e6)
	if rep.attempted > 0 {
		rep.set("failed_share", float64(rep.failed)/float64(rep.attempted))
	}

	defs := endToEnd
	if rc.traced {
		defs = perLayer
	}
	res := result{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricValue{},
	}
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.name] = d.unit
	}
	for _, n := range []string{"instance_p50_s", "ack_p90_s", "ack_p99_s", "complete_p90_s", "complete_p99_s"} {
		units[n] = "s"
	}
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok && !rc.traced {
			return false, fmt.Errorf("%s: end-to-end metric %s was not measured", w.name, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		return false, fmt.Errorf("%s: no operation attempted", w.name)
	}

	var b bytes.Buffer
	names := make([]string, 0, len(rep.values))
	for n := range rep.values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "workload %s seed %d seconds %g trace %v\n", w.name, rc.seed, rc.seconds, rc.traced)
	for _, n := range names {
		unit := units[n]
		if unit == "" {
			unit = "-"
		}
		fmt.Fprintf(&b, "  %-30s %-14.6g %s\n", n, rep.values[n], unit)
	}
	for _, n := range rep.notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(&b, "  CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, fmt.Errorf("encode result: %w", err)
	}
	fmt.Fprintf(&b, "%s\n", line)
	if _, err := out.Write(b.Bytes()); err != nil {
		return false, fmt.Errorf("write report: %w", err)
	}
	return res.Correct, nil
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measurement seconds")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	rc := &runConfig{seed: *seed, seconds: *seconds, traced: *trace == 1}
	start := time.Now()
	correct, err := execute(w, rc, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s done in %.1fs\n", w.name, time.Since(start).Seconds())
	if !correct {
		os.Exit(1)
	}
}
