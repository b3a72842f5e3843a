package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"bnff/internal/core"
	"bnff/internal/graph"
	"bnff/internal/obs"
)

// kindLabel names the op kind a node's span is charged to. A CONV that
// carries a sub-BN1 statistics epilogue runs kernels.ConvForwardStats in
// training, so it is its own kind there.
func kindLabel(n *graph.Node, training bool) string {
	if n.Kind == graph.OpConv && n.StatsOut != nil && training {
		return "ConvStats"
	}
	return n.Kind.String()
}

// nodeBreakdown charges the executor's per-node spans to op kinds and
// reports each kind's self time as a median per unit of work: a training
// step (the benchmark's "step" spans) or one batch-1 inference (the
// executor's "forward" pass spans). It adds the computed FLOP and sweep
// counts and the worker-pool activity. Node spans nest only pool spans,
// which are the node's own parallel work, so a node span's duration is its
// self time.
func nodeBreakdown(res *result, exec *core.Executor, spans []obs.Span, training bool) error {
	unitName, unitCat := "forward", obs.CatPass
	if training {
		unitName, unitCat = "step", benchCat
	}
	var units []obs.Span
	for _, sp := range spans {
		if sp.Name == unitName && sp.Cat == unitCat {
			units = append(units, sp)
		}
	}
	if len(units) == 0 {
		return fmt.Errorf("no traced %s to attribute", unitName)
	}
	sort.Slice(units, func(i, j int) bool { return units[i].Start < units[j].Start })
	nodes := map[string]*graph.Node{}
	for _, n := range exec.G.Live() {
		nodes[n.Name] = n
	}
	// Per-unit sums, by series name.
	sums := map[string][]int64{}
	add := func(name string, unit int, ns int64) {
		if sums[name] == nil {
			sums[name] = make([]int64, len(units))
		}
		sums[name][unit] += ns
	}
	for _, sp := range spans {
		u := sort.Search(len(units), func(i int) bool { return units[i].Start+units[i].Dur > sp.Start })
		if u == len(units) || sp.Start < units[u].Start {
			continue // outside every unit of work
		}
		if sp.Cat == obs.CatPool {
			if sp.Name == "pool.dispatch" {
				add("parallel.regions_per_step", u, 1)
				add("parallel.dispatch_ms", u, sp.Dur)
			}
			continue
		}
		n, ok := nodes[sp.Name]
		if !ok || sp.Cat == obs.CatPass || sp.Cat == benchCat {
			continue
		}
		dir := sp.Dir
		if !training {
			dir = "inf"
		}
		add(kindLabel(n, training)+"."+dir, u, sp.Dur)
		if n.Kind.IsConvLike() {
			add("conv."+sp.Dir, u, sp.Dur)
		}
	}
	// median returns a series' median per unit, divided by scale.
	median := func(name string, scale float64) float64 {
		xs := make([]float64, len(units))
		for i, v := range sums[name] {
			xs[i] = float64(v) / scale
		}
		return quantile(xs, 0.5)
	}
	for _, k := range opKinds {
		for _, dir := range []string{"fwd", "bwd", "inf"} {
			if _, ok := sums[k.kind+"."+dir]; ok {
				res.set(k.module+"."+k.kind+"."+dir+"_ms", "ms", median(k.kind+"."+dir, 1e6), len(units))
			}
		}
	}
	res.set("parallel.regions_per_step", "count", median("parallel.regions_per_step", 1), len(units))
	res.set("parallel.dispatch_ms", "ms", median("parallel.dispatch_ms", 1e6), len(units))

	// Computed, not measured: the cost model's FLOPs and feature-map sweeps
	// for one unit of work on this graph.
	var costs []graph.OpCost
	var err error
	if training {
		costs, err = exec.G.TrainingCosts()
	} else {
		costs, err = exec.G.PassCosts(graph.Forward)
	}
	if err != nil {
		return err
	}
	var flops, bytes int64
	var convFlops [2]int64
	for _, c := range costs {
		flops += c.FLOPs
		bytes += c.TotalBytes()
		if c.Node != nil && c.Node.Kind.IsConvLike() && !c.Synthetic {
			convFlops[c.Dir] += c.FLOPs
		}
	}
	res.set("graph.gflop_per_step", "GFLOP", float64(flops)/1e9, 1)
	res.set("graph.sweep_mb_per_step", "MB", float64(bytes)/1e6, 1)
	for d, dir := range []string{"fwd", "bwd"} {
		if ms := median("conv."+dir, 1e6); ms > 0 {
			res.set("conv."+dir+"_gflops", "GFLOP/s", float64(convFlops[d])/ms/1e6, len(units))
		}
	}
	return nil
}

// writeTrace writes the traced run's spans as a Chrome trace.
func writeTrace(o options, spans []obs.Span) error {
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, spans, 1); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %d spans to %s\n", len(spans), path)
	return nil
}
