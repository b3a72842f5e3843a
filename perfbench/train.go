package main

import (
	"fmt"
	"math"
	"runtime"

	"bnff/internal/core"
	"bnff/internal/layers"
	"bnff/internal/obs"
	"bnff/internal/scenario"
	"bnff/internal/tensor"
	"bnff/internal/train"
	"bnff/internal/workload"
)

// trainWorkloads are the closed-loop training workloads: batch 16 on two
// workers, one step after another.
//   - train-densenet-bnff is the paper's headline configuration; the fused
//     kernels do most of the non-CONV work.
//   - train-densenet-baseline is the same model, batch, workers and seed
//     unrestructured: internal/kernels does nothing and the unfused BN, ReLU
//     and Concat sweeps in internal/layers do all the non-CONV work. Its
//     arena peaks above the L2 cache where BNFF's fits under it.
//   - train-resnet-bnff is the only workload that runs
//     kernels.ConvForwardStats (sub-BN1 fused into the CONV) and EWS.
var trainWorkloads = map[string]scenario.Spec{
	"train-densenet-bnff":     trainSpec("tiny-densenet", "bnff"),
	"train-densenet-baseline": trainSpec("tiny-densenet", "baseline"),
	"train-resnet-bnff":       trainSpec("tiny-resnet", "bnff"),
}

const (
	trainBatch   = 16
	trainWorkers = 2

	// setupRepeats is how many times a run sets up; setup_s is the median.
	setupRepeats = 5

	// replaySteps is how many of the run's first steps (the warm-up step and
	// the first timed ones) are replayed on fresh executors after timing.
	replaySteps = 3

	// lossTolerance is the relative difference allowed between a loss and
	// its replay on a fresh restructured or baseline executor. The two are
	// bit-equal at the time of writing; the tolerance leaves room for a
	// kernel that reassociates a sum.
	lossTolerance = 1e-5

	// phaseTolerancePct bounds the share of a traced step that falls
	// outside the five timed phases.
	phaseTolerancePct = 2.0

	// minSteps is the fewest timed steps an untraced run reports a 90th
	// percentile from; a run whose window ends earlier keeps stepping.
	minSteps = 100

	// untracedShare is the share of a traced run spent untraced first, to
	// measure the tracer's overhead against.
	untracedShare = 0.3
)

func trainSpec(model, restructure string) scenario.Spec {
	return scenario.Spec{
		Name:        "perfbench/" + model + "/" + restructure,
		Kind:        scenario.KindTrain,
		Model:       model,
		Restructure: restructure,
		Workers:     trainWorkers,
		Batch:       trainBatch,
	}
}

// trainer holds one training run: executor, data source and optimizer,
// driven phase by phase so each module's call is timed on its own.
type trainer struct {
	exec  *core.Executor
	data  *workload.Dataset
	opt   *train.SGD
	clock func() int64
	tr    *obs.Tracer // nil: untraced
}

// phaseNames are the five phases of a training step, in call order, as
// reported by the traced run.
var phaseNames = [5]string{"workload.batch_ms", "core.forward_ms", "layers.loss_ms", "core.backward_ms", "train.sgd_ms"}

// stepTiming is one step's phase durations and total, in nanoseconds.
type stepTiming struct {
	phase [5]int64
	total int64
}

func newTrainer(spec scenario.Spec, clock func() int64) (*trainer, error) {
	exec, err := spec.NewExecutor()
	if err != nil {
		return nil, err
	}
	data, err := spec.Dataset()
	if err != nil {
		return nil, err
	}
	exec.TrackRunningStats(true) // as train.NewTrainer does: training tracks running statistics
	return &trainer{exec: exec, data: data, opt: train.NewSGD(spec.LR, 0.9, 1e-4), clock: clock}, nil
}

// batch draws the next mini-batch from the dataset.
func (t *trainer) batch() (*tensor.Tensor, []int, error) {
	return t.data.Batch(trainBatch)
}

// step runs one forward/loss/backward/update cycle on a given batch and
// times each phase. A phase span is recorded when the trainer is traced.
func (t *trainer) step(x *tensor.Tensor, labels []int, tm *stepTiming, heap *heapPeak) (float64, error) {
	t0 := t.clock()
	logits, err := t.exec.Forward(x)
	if err != nil {
		return 0, err
	}
	t1 := t.span("core.forward", t0)
	if heap != nil {
		heap.sample() // activations are live: the step's high-water mark
		t1 = t.clock()
	}
	loss, dlogits, err := layers.SoftmaxCrossEntropy(logits, labels)
	if err != nil {
		return 0, err
	}
	t2 := t.span("layers.loss", t1)
	grads, err := t.exec.Backward(dlogits)
	if err != nil {
		return 0, err
	}
	t3 := t.span("core.backward", t2)
	if err := t.opt.Step(t.exec.Params, grads); err != nil {
		return 0, err
	}
	t4 := t.span("train.sgd", t3)
	tm.phase[1], tm.phase[2], tm.phase[3], tm.phase[4] = t1-t0, t2-t1, t3-t2, t4-t3
	return loss, nil
}

// timedStep draws a batch and runs a step, timing the whole cycle.
func (t *trainer) timedStep(tm *stepTiming, heap *heapPeak) (float64, *tensor.Tensor, []int, error) {
	t0 := t.clock()
	x, labels, err := t.batch()
	if err != nil {
		return 0, nil, nil, err
	}
	tm.phase[0] = t.span("workload.batch", t0) - t0
	loss, err := t.step(x, labels, tm, heap)
	if err != nil {
		return 0, nil, nil, err
	}
	tm.total = t.span("step", t0) - t0
	return loss, x, labels, nil
}

// benchCat and benchTID place the benchmark's own spans on their own
// Chrome-trace track, apart from the executor's.
const (
	benchCat = "bench"
	benchTID = 12
)

// span ends a benchmark-level span begun at start when tracing, and returns
// the end time either way.
func (t *trainer) span(name string, start int64) int64 {
	end := t.clock()
	if t.tr != nil {
		t.tr.End(name, benchCat, "", benchTID, start)
	}
	return end
}

// checkLoss fails a non-finite loss.
func checkLoss(loss float64) error {
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		return fmt.Errorf("non-finite training loss %v", loss)
	}
	return nil
}

// checkReplay compares a run's loss with its replay on a fresh executor.
func checkReplay(what string, step int, got, want float64) error {
	if d := math.Abs(got - want); !(d <= lossTolerance*math.Max(1, math.Abs(want))) {
		return fmt.Errorf("%s replay of step %d: loss %v, run had %v (tolerance %g relative)", what, step, got, want, lossTolerance)
	}
	return nil
}

// replayed is one of the run's first steps, kept for the replay check.
type replayed struct {
	x      *tensor.Tensor
	labels []int
	loss   float64
}

// runTrain sets up a training workload, measures it for the run's window,
// then replays its first steps on fresh restructured and baseline
// executors.
func runTrain(o options, spec scenario.Spec) (*result, error) {
	spec.Seed = o.seed
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	clock := obs.WallClock()
	res := newResult("train")

	// Setup: executor, dataset, and the first step, which fills the arena.
	var t *trainer
	var first replayed
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		t0 := clock()
		var err error
		if t, err = newTrainer(spec, clock); err != nil {
			return nil, err
		}
		x, labels, err := t.batch()
		if err != nil {
			return nil, err
		}
		first = replayed{x: x.Clone(), labels: append([]int(nil), labels...)}
		var tm stepTiming
		if first.loss, err = t.step(x, labels, &tm, nil); err != nil {
			return nil, err
		}
		setups = append(setups, float64(clock()-t0)/1e9)
	}
	res.set("setup_s", "s", quantile(setups, 0.5), len(setups))
	res.attempt(checkLoss(first.loss))
	runtime.GC() // earlier setups' executors are garbage; keep them out of the heap peak

	kept := []replayed{first}
	// loop runs timed steps until end, and on past it, up to twice the
	// window, until it has atLeast.
	loop := func(end int64, atLeast int, heap *heapPeak) ([]stepTiming, error) {
		steps := make([]stepTiming, 0, 256)
		overtime := end + int64(o.seconds*1e9)
		for now := clock(); now < end || (len(steps) < atLeast && now < overtime); now = clock() {
			var tm stepTiming
			loss, x, labels, err := t.timedStep(&tm, heap)
			if err != nil {
				return nil, err
			}
			res.attempt(checkLoss(loss))
			steps = append(steps, tm)
			if len(kept) < replaySteps {
				kept = append(kept, replayed{x: x.Clone(), labels: append([]int(nil), labels...), loss: loss})
			}
		}
		return steps, nil
	}

	window := int64(o.seconds * 1e9)
	heap := newHeapPeak()
	var untraced []stepTiming
	var tr *obs.Tracer
	if o.trace {
		// The tracer-overhead baseline: the same loop untraced, first. Heap
		// reads would land inside the traced phases, so none are taken.
		var err error
		if untraced, err = loop(clock()+int64(untracedShare*float64(window)), 0, nil); err != nil {
			return nil, err
		}
		window -= int64(untracedShare * float64(window))
		heap = nil
		tr = obs.NewTracer(clock)
		t.tr = tr
		t.exec.SetTracer(tr)
	}
	arenaBefore := t.exec.ArenaStats()
	atLeast := 0
	if !o.trace {
		atLeast = minSteps
	}
	steps, err := loop(clock()+window, atLeast, heap)
	if err != nil {
		return nil, err
	}
	arenaAfter := t.exec.ArenaStats()
	t.exec.SetTracer(nil)

	if err := replay(spec, kept, res); err != nil {
		return nil, err
	}

	totals := stepMs(steps, -1)
	if !o.trace {
		var sum float64
		for _, ms := range totals {
			sum += ms
		}
		res.set("samples_per_s", "1/s", float64(len(steps)*trainBatch)/(sum/1e3), len(steps))
		res.set("step_p50_ms", "ms", quantile(totals, 0.5), len(steps))
		res.set("step_p90_ms", "ms", quantile(totals, 0.9), len(steps))
		res.set("heap_peak_mb", "MB", heap.mb(), heap.n)
		return res, nil
	}

	// Per-module metrics from the traced window.
	for p, name := range phaseNames {
		res.set(name, "ms", quantile(stepMs(steps, p), 0.5), len(steps))
	}
	unattributed := make([]float64, len(steps))
	for i, s := range steps {
		outside := s.total
		for _, d := range s.phase {
			outside -= d
		}
		unattributed[i] = 100 * float64(outside) / float64(s.total)
	}
	gap := quantile(unattributed, 0.5)
	res.set("trace.unattributed_pct", "%", gap, len(steps))
	res.attempt(checkAttribution("training step", gap, phaseTolerancePct))
	res.set("obs.trace_overhead_pct", "%", 100*(quantile(totals, 0.5)/quantile(stepMs(untraced, -1), 0.5)-1), len(untraced))
	res.set("core.arena_peak_mb", "MB", float64(arenaAfter.PeakBytes)/1e6, 1)
	if got := (arenaAfter.Hits - arenaBefore.Hits) + (arenaAfter.Misses - arenaBefore.Misses); got > 0 {
		res.set("core.arena_hit_ratio", "ratio", float64(arenaAfter.Hits-arenaBefore.Hits)/float64(got), int(got))
	}
	if err := nodeBreakdown(res, t.exec, tr.Spans(), true); err != nil {
		return nil, err
	}
	return res, writeTrace(o, tr.Spans())
}

// stepMs returns one phase of every step in milliseconds, or each step's
// total for phase -1.
func stepMs(steps []stepTiming, phase int) []float64 {
	out := make([]float64, len(steps))
	for i, s := range steps {
		ns := s.total
		if phase >= 0 {
			ns = s.phase[phase]
		}
		out[i] = float64(ns) / 1e6
	}
	return out
}

// checkAttribution fails a traced run whose phases leave more than tol
// percent of the step or request unaccounted for.
func checkAttribution(what string, gapPct, tol float64) error {
	if math.Abs(gapPct) > tol {
		return fmt.Errorf("%s: %.2f%% of the time falls outside the timed phases (tolerance %.1f%%)", what, gapPct, tol)
	}
	return nil
}

// replay runs the kept steps on fresh restructured (BNFF) and baseline
// executors built from the same seed and compares every loss with the run's.
func replay(spec scenario.Spec, kept []replayed, res *result) error {
	for _, restructure := range []string{"bnff", "baseline"} {
		s := spec
		s.Restructure = restructure
		t, err := newTrainer(s, obs.WallClock())
		if err != nil {
			return err
		}
		for i, k := range kept {
			var tm stepTiming
			loss, err := t.step(k.x, k.labels, &tm, nil)
			if err != nil {
				return err
			}
			res.attempt(checkReplay(restructure, i, loss, k.loss))
		}
	}
	return nil
}
