// Command perfbench is the repository's benchmark: it runs one named
// workload for a fixed wall-clock window, checks that every output the
// program produced is correct, and prints the metrics by name with their
// units and sample counts. The last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (tracing off); with
// -trace 1 they are the per-module ones, taken from a traced run that also
// writes a Chrome trace. Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload train-densenet-bnff --seed 1 --seconds 20 --trace 0
//
// The benchmark measures every module from outside, by timing calls into
// its public functions; see README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strings"

	"bnff/internal/det"
)

// options are the command-line arguments every workload receives.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "seed every input of the workload is generated from")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-module metrics from a traced run")
	flag.StringVar(&o.traceDir, "trace-dir", ".bench_build/perfbench/traces", "directory the traced run writes its Chrome trace into")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := res.write(os.Stdout, o.trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run dispatches to the workload's runner.
func run(o options) (*result, error) {
	if spec, ok := trainWorkloads[o.workload]; ok {
		return runTrain(o, spec)
	}
	if o.workload == serveWorkload {
		return runServe(o)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
}

func workloadNames() []string {
	names := append(det.SortedKeys(trainWorkloads), serveWorkload)
	sort.Strings(names)
	return names
}

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a -trace 0 run reports, the ones BENCHMARK.json
// bounds. Each has one meaning per workload kind (see aliases), so every
// workload reports all of them.
var endToEnd = []metricDef{
	{"samples_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"setup_s", "s"},
	{"heap_peak_mb", "MB"},
}

// aliases maps each end-to-end metric onto the named metric a workload kind
// measures for it. Training: samples trained per second and the median step
// time. Serving: images (one per request) answered per second by two
// back-to-back clients, and the median latency at the light rate. Tail
// latencies, the heavy-rate latencies and max_rps are printed but not
// bounded: on a 2-vCPU host they spread by 20% to 40% between runs.
var aliases = map[string]map[string]string{
	"train": {"samples_per_s": "samples_per_s", "p50_ms": "step_p50_ms"},
	"serve": {"samples_per_s": "saturated_rps", "p50_ms": "p50_ms.light"},
}

// opKinds are the executor op kinds whose self time the traced run reports,
// with the module that implements each.
var opKinds = []struct{ module, kind string }{
	{"kernels", "ConvStats"}, {"kernels", "BNReLUConv"}, {"kernels", "ReLUConv"},
	{"layers", "Conv"}, {"layers", "BN"}, {"layers", "SubBN1"}, {"layers", "SubBN2"},
	{"layers", "ReLU"}, {"layers", "Pool"}, {"layers", "GlobalPool"}, {"layers", "Concat"},
	{"layers", "EWS"}, {"layers", "FC"},
}

// perLayer lists the metrics a -trace 1 run reports. A metric that does not
// apply to a workload reads 0 there (no fleet on a training workload, no
// backward pass in serving).
func perLayer() []metricDef {
	defs := []metricDef{
		{"workload.batch_ms", "ms"},
		{"core.forward_ms", "ms"},
		{"layers.loss_ms", "ms"},
		{"core.backward_ms", "ms"},
		{"train.sgd_ms", "ms"},
		{"fleet.proxy_self_ms.p50", "ms"},
		{"fleet.proxy_self_ms.p99", "ms"},
		{"fleet.conn_ms.p50", "ms"},
		{"fleet.conn_ms.p99", "ms"},
		{"serve.handler_ms.p50", "ms"},
		{"serve.handler_ms.p99", "ms"},
		{"core.infer_b1_ms", "ms"},
		{"core.infer_b2_ms", "ms"},
		{"loadgen.late_p99_ms", "ms"},
	}
	for _, k := range opKinds {
		for _, dir := range []string{"fwd", "bwd", "inf"} {
			defs = append(defs, metricDef{k.module + "." + k.kind + "." + dir + "_ms", "ms"})
		}
	}
	return append(defs,
		metricDef{"graph.gflop_per_step", "GFLOP"},
		metricDef{"graph.sweep_mb_per_step", "MB"},
		metricDef{"conv.fwd_gflops", "GFLOP/s"},
		metricDef{"conv.bwd_gflops", "GFLOP/s"},
		metricDef{"core.arena_peak_mb", "MB"},
		metricDef{"core.arena_hit_ratio", "ratio"},
		metricDef{"parallel.regions_per_step", "count"},
		metricDef{"parallel.dispatch_ms", "ms"},
		metricDef{"serve.batch_mean", "count"},
		metricDef{"serve.shed_ratio", "ratio"},
		metricDef{"fleet.first_choice_ratio", "ratio"},
		metricDef{"fleet.busiest_share", "ratio"},
		metricDef{"obs.trace_overhead_pct", "%"},
		metricDef{"trace.unattributed_pct", "%"},
	)
}

// value is one measured metric with the number of samples behind it.
type value struct {
	v    float64
	unit string
	n    int
}

// result is everything one run measured and checked.
type result struct {
	kind      string // "train" or "serve"
	attempted int
	failed    int
	failures  []string         // the first few failure details, for stderr
	named     []string         // measured metric names, in measurement order
	values    map[string]value // by metric name
}

func newResult(kind string) *result {
	return &result{kind: kind, values: map[string]value{}}
}

// set records a measured metric.
func (r *result) set(name, unit string, v float64, n int) {
	if _, ok := r.values[name]; !ok {
		r.named = append(r.named, name)
	}
	r.values[name] = value{v: v, unit: unit, n: n}
}

// maxFailureDetails bounds how many failure details a run keeps for stderr.
const maxFailureDetails = 8

// attempt counts one checked operation, and its failure when err is non-nil.
func (r *result) attempt(err error) {
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	if len(r.failures) < maxFailureDetails {
		r.failures = append(r.failures, err.Error())
	}
}

// write prints one line per measured metric, then the JSON result line. The
// run is correct only if no checked operation failed.
func (r *result) write(w io.Writer, trace bool) error {
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	if r.attempted > 0 {
		r.set("fail_ratio", "ratio", float64(r.failed)/float64(r.attempted), r.attempted)
	}
	for _, name := range r.named {
		v := r.values[name]
		if _, err := fmt.Fprintf(w, "%-34s %14.6g %-8s n=%d\n", name, v.v, v.unit, v.n); err != nil {
			return err
		}
	}
	type metricJSON struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricJSON{},
	}
	defs := endToEnd
	if trace {
		defs = perLayer()
	}
	for _, d := range defs {
		name := d.name
		if alias, ok := aliases[r.kind][name]; ok && !trace {
			name = alias
		}
		v := r.values[name] // absent: the metric does not apply, and reads 0
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			return fmt.Errorf("metric %s is not finite", name)
		}
		out.Metrics[d.name] = metricJSON{Value: v.v, Unit: d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// quantile returns the q-quantile of xs by linear interpolation between the
// closest ranks (the definition numpy and Python's "inclusive" method use).
// It is 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// msOf converts nanosecond samples to milliseconds.
func msOf(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}

// heapPeak tracks the largest live-plus-unswept heap seen at its sample
// points. runtime/metrics reads without stopping the world, so sampling on
// every step or request does not perturb the timing.
type heapPeak struct {
	s    []metrics.Sample
	peak uint64
	n    int
}

func newHeapPeak() *heapPeak {
	return &heapPeak{s: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}}
}

func (h *heapPeak) sample() {
	metrics.Read(h.s)
	if v := h.s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
	h.n++
}

// merge folds another sampler's peak into h.
func (h *heapPeak) merge(o *heapPeak) {
	if o.peak > h.peak {
		h.peak = o.peak
	}
	h.n += o.n
}

func (h *heapPeak) mb() float64 { return float64(h.peak) / 1e6 }
