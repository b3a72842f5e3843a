package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"testing"

	"bnff/internal/det"
	"bnff/internal/obs"
	"bnff/internal/serve"
)

// benchmarkFile is the part of ../BENCHMARK.json the smoke test checks the
// output against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// lastLine parses the result line a run prints last.
func lastLine(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return r
}

// TestEveryWorkloadPrintsEveryMetric runs each workload of BENCHMARK.json
// briefly, untraced and traced, and checks that the result line carries
// exactly the file's metrics with their units, and that every check passed.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got := strings.Join(workloadNames(), ","); got != strings.Join(names, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, the benchmark runs %s", names, got)
	}
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			res, err := run(options{workload: name, seed: 7, seconds: 1.5, trace: trace, traceDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s (trace %v): %v", name, trace, err)
			}
			var buf bytes.Buffer
			if err := res.write(&buf, trace); err != nil {
				t.Fatal(err)
			}
			line := lastLine(t, buf.String())
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s (trace %v): correct %v, %d of %d failed", name, trace, line.Correct, line.Failed, line.Attempted)
			}
			want := f.EndToEnd
			if trace {
				want = f.PerLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics printed, BENCHMARK.json lists %d", name, trace, len(line.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := line.Metrics[m.Name]
				switch {
				case !ok || got.Value == nil:
					t.Errorf("%s (trace %v): metric %s not printed", name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s (trace %v): metric %s in %q, BENCHMARK.json says %q", name, trace, m.Name, got.Unit, m.Unit)
				case !trace && *got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v", name, m.Name, *got.Value)
				}
			}
		}
	}
}

// TestWrongLogitFails injects a wrong logit into every answer the proxy
// returns and checks that each such request counts as a failure.
func TestWrongLogitFails(t *testing.T) {
	sp, err := serveSpec(3)
	if err != nil {
		t.Fatal(err)
	}
	in, err := makeInputs(sp)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRig(sp, in, obs.WallClock(), false)
	if err != nil {
		t.Fatal(err)
	}
	proxy := r.servers[len(r.servers)-1]
	proxy.Handler = corruptLogits(proxy.Handler)
	res := newResult("serve")
	var out *phaseOut
	if err := r.serve(func() error {
		out = r.phase(lightRate, 0.5, 1, true, res, nil)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(out.errs) == 0 || res.failed != len(out.errs) {
		t.Fatalf("%d of %d corrupted answers counted as failures", res.failed, len(out.errs))
	}
	var buf bytes.Buffer
	if err := res.write(&buf, false); err != nil {
		t.Fatal(err)
	}
	if lastLine(t, buf.String()).Correct {
		t.Fatal("a run with wrong logits reported correct")
	}
}

// corruptLogits moves the first logit of every answer by one ulp.
func corruptLogits(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		rec := &recorder{header: http.Header{}, status: http.StatusOK}
		h.ServeHTTP(rec, req)
		var pr serve.PredictResponse
		if err := json.Unmarshal(rec.body.Bytes(), &pr); err == nil && len(pr.Logits) > 0 {
			pr.Logits[0] = math.Nextafter32(pr.Logits[0], float32(math.Inf(1)))
			b, _ := json.Marshal(pr)
			rec.body.Reset()
			rec.body.Write(b)
		}
		w.WriteHeader(rec.status)
		w.Write(rec.body.Bytes())
	})
}

type recorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) Write(b []byte) (int, error) { return r.body.Write(b) }
func (r *recorder) WriteHeader(status int)      { r.status = status }

// TestResponseChecks covers the answers a 200 can carry that are not
// correct logits, and a refusal.
func TestResponseChecks(t *testing.T) {
	ref := []float32{0.5, -1.25}
	good, _ := json.Marshal(serve.PredictResponse{Logits: ref})
	wrong, _ := json.Marshal(serve.PredictResponse{Logits: []float32{0.5, -1.5}})
	for _, tc := range []struct {
		name   string
		status int
		body   []byte
		ok     bool
	}{
		{"bit-equal logits", http.StatusOK, good, true},
		{"wrong logit", http.StatusOK, wrong, false},
		{"empty 200", http.StatusOK, nil, false},
		{"undecodable 200", http.StatusOK, []byte("{\"logits\": [0.5,"), false},
		{"429", http.StatusTooManyRequests, []byte("overloaded"), false},
		{"503", http.StatusServiceUnavailable, []byte("no backends"), false},
	} {
		if err := checkResponse(0, tc.status, tc.body, ref); (err == nil) != tc.ok {
			t.Errorf("%s: checkResponse = %v", tc.name, err)
		}
	}
}

// TestNonFiniteLossFails poisons a weight so the training loss is NaN and
// checks that the step counts as a failure, and that a replay disagreeing
// beyond the tolerance does too.
func TestNonFiniteLossFails(t *testing.T) {
	spec := trainWorkloads["train-resnet-bnff"]
	spec.Seed = 5
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	tr, err := newTrainer(spec, obs.WallClock())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range det.SortedKeys(tr.exec.Params) {
		if strings.HasSuffix(name, ".w") {
			tr.exec.Params[name].Data[0] = float32(math.NaN())
			break
		}
	}
	res := newResult("train")
	var tm stepTiming
	loss, _, _, err := tr.timedStep(&tm, nil)
	if err != nil {
		t.Fatal(err)
	}
	res.attempt(checkLoss(loss))
	res.attempt(checkReplay("bnff", 0, 2.3, 2.3*(1+10*lossTolerance)))
	res.attempt(checkReplay("bnff", 1, 2.3, 2.3))
	if res.attempted != 3 || res.failed != 2 {
		t.Fatalf("loss %v: %d of %d checks failed, want 2 of 3", loss, res.failed, res.attempted)
	}
}

// TestQuantile pins the interpolation the latency percentiles use.
func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {0.9, 3.7}, {1, 4}} {
		if got := quantile(xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}
