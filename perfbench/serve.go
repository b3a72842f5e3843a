package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"bnff/internal/core"
	"bnff/internal/fleet"
	"bnff/internal/models"
	"bnff/internal/obs"
	"bnff/internal/parallel"
	"bnff/internal/scenario"
	"bnff/internal/serve"
	"bnff/internal/tensor"
	"bnff/internal/workload"
)

// serveWorkload serves folded tiny-densenet from two engines behind the
// fleet proxy, over loopback HTTP, inside this process. Requests come from
// an open-loop generator with seeded arrivals and distinct images, so hash
// routing spreads them over both backends. Forward runs at batch 1 or 2 with
// no backward pass, no BN statistics and no fused kernels; the serve, fleet
// and obs paths do the non-compute work. Batch-1 serving fits in L2.
const serveWorkload = "serve-densenet-fleet"

const (
	serveModel    = "tiny-densenet"
	serveBackends = 2
	serveMaxBatch = 2

	// senders is the load generator's connection count: one per core of the
	// machine the rates below were chosen on.
	senders = 2

	// lightRate and heavyRate are about 1/3 and 2/3 of the fleet's capacity
	// (about 190 req/s) on a 2-core x86 host.
	lightRate = 60.0
	heavyRate = 120.0

	// latencyLimitMs is the p99 a rate must meet to count toward max_rps.
	latencyLimitMs = 50.0

	// rpsResolution is the ratio between the lowest failing and the highest
	// passing rate at which the max_rps search stops.
	rpsResolution = 1.05

	// maxProbes bounds the max_rps search; the probe length is set so
	// maxProbes fit in the search's share of the window. Five bisections
	// take the initial 4x bracket within rpsResolution.
	maxProbes = 5

	// lateGrowthMs is how much the generator's median lateness may rise from
	// the first to the last quarter of a probe before its backlog counts as
	// growing.
	lateGrowthMs = 5.0

	// serveImages is the number of distinct request images.
	serveImages = 64

	// requestAttributionTolPct bounds the share of a request's client time
	// outside the proxy handler: the load generator's HTTP client and the
	// loopback hop.
	requestAttributionTolPct = 15.0

	// imageHeader tells the traced proxy handler which image a request
	// carries, so its span can be matched with the conn spans inside it.
	imageHeader = "X-Perfbench-Image"
)

// Shares of the window: the light and heavy fixed-rate phases and the
// back-to-back (saturated) phase, interleaved in rounds so that a slow spell
// of the host lands on each, then the max_rps search. A traced run spends untracedShare at the heavy rate untraced,
// tracedShare traced, and the rest timing inference executors.
const (
	lightShare     = 0.3
	heavyShare     = 0.15
	saturatedShare = 0.2
	tracedShare    = 0.5

	rounds = 4
)

func serveSpec(seed uint64) (scenario.Spec, error) {
	sp := scenario.Spec{
		Name:        "perfbench/" + serveWorkload,
		Kind:        scenario.KindServe,
		Model:       serveModel,
		Restructure: "baseline",
		Fold:        true,
		Replicas:    1,
		Workers:     1,
		MaxBatch:    serveMaxBatch,
		Backends:    serveBackends,
		Policy:      "hash",
		Seed:        seed,
	}
	return sp, sp.Normalize()
}

// inputs are the request images, their encoded request bodies, and the
// batch-1 reference logits every answer must bit-match.
type inputs struct {
	images [][]float32
	bodies [][]byte
	refs   [][]float32
	byBits map[uint32]int // first pixel's bits → image index
	ckpt   []byte
}

// buildCheckpoint builds the deterministic checkpoint the engines load:
// seeded parameters plus running statistics over a few forward passes of
// the seeded dataset. It returns the dataset positioned after those batches.
func buildCheckpoint(sp scenario.Spec) ([]byte, *workload.Dataset, error) {
	ds, err := sp.Dataset()
	if err != nil {
		return nil, nil, err
	}
	const ckptBatch = 4
	g, err := models.Build(sp.Model, ckptBatch)
	if err != nil {
		return nil, nil, err
	}
	exec, err := core.NewExecutor(g, core.WithSeed(sp.Seed), core.WithRunningStats())
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < 4; i++ {
		x, _, err := ds.Batch(ckptBatch)
		if err != nil {
			return nil, nil, err
		}
		if _, err := exec.Forward(x); err != nil {
			return nil, nil, err
		}
	}
	var buf bytes.Buffer
	if err := exec.Save(&buf); err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), ds, nil
}

// makeInputs builds the checkpoint, draws the request images, and computes
// their references on a batch-1 folded executor built the way the engine
// builds its replicas.
func makeInputs(sp scenario.Spec) (*inputs, error) {
	ckpt, ds, err := buildCheckpoint(sp)
	if err != nil {
		return nil, err
	}
	in := &inputs{ckpt: ckpt, byBits: map[uint32]int{}}

	ref, err := inferenceExecutor(sp, in.ckpt, 1, nil)
	if err != nil {
		return nil, err
	}
	x, _, err := ds.Batch(serveImages)
	if err != nil {
		return nil, err
	}
	per := len(x.Data) / serveImages
	for i := 0; i < serveImages; i++ {
		img := append([]float32(nil), x.Data[i*per:(i+1)*per]...)
		body, err := json.Marshal(serve.PredictRequest{Image: img})
		if err != nil {
			return nil, err
		}
		xi := tensor.New(append(tensor.Shape{1}, x.Shape()[1:]...)...)
		copy(xi.Data, img)
		y, err := ref.Forward(xi)
		if err != nil {
			return nil, err
		}
		bits := math.Float32bits(img[0])
		if _, dup := in.byBits[bits]; dup {
			return nil, fmt.Errorf("request images %d and %d share a first pixel", in.byBits[bits], i)
		}
		in.byBits[bits] = i
		in.images = append(in.images, img)
		in.bodies = append(in.bodies, body)
		in.refs = append(in.refs, append([]float32(nil), y.Data...))
	}
	return in, nil
}

// inferenceExecutor builds a folded inference executor at the given batch
// size exactly as serve.Engine builds its replicas (same seed, workers,
// inference mode and fold), optionally traced.
func inferenceExecutor(sp scenario.Spec, ckpt []byte, batch int, tr *obs.Tracer) (*core.Executor, error) {
	g, err := models.Build(sp.Model, batch)
	if err != nil {
		return nil, err
	}
	opts := []core.Option{core.WithSeed(sp.Seed), core.WithWorkers(sp.Workers), core.WithInference(), core.WithFoldedBN()}
	if tr != nil {
		opts = append(opts, core.WithTracer(tr))
	}
	exec, err := core.NewExecutor(g, opts...)
	if err != nil {
		return nil, err
	}
	if err := exec.Load(bytes.NewReader(ckpt)); err != nil {
		return nil, err
	}
	return exec, nil
}

// Chrome-trace tracks of the serving spans.
const (
	tidProxy   = 21
	tidConn    = 22
	tidBackend = 23 // + backend index
)

// probe is the serving-side instrumentation of a traced run: spans around
// the proxy handler, each backend conn, and each engine handler, recorded
// only while on is set.
type probe struct {
	tr     *obs.Tracer
	on     atomic.Bool
	byBits map[uint32]int // read-only after setup
}

// tracedHandler records a span around every request h serves.
type tracedHandler struct {
	h    http.Handler
	p    *probe
	name string
	tid  int
}

func (t *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.p.on.Load() {
		t.h.ServeHTTP(w, r)
		return
	}
	start := t.p.tr.Begin()
	t.h.ServeHTTP(w, r)
	args := map[string]float64{"image": -1}
	if img, err := strconv.Atoi(r.Header.Get(imageHeader)); err == nil {
		args["image"] = float64(img)
	}
	t.p.tr.EndArgs(t.name, benchCat, "", t.tid, start, args)
}

// tracedConn is the fleet.Conn the proxy's control plane holds for a
// backend in a traced run: it times every Predict the proxy makes.
type tracedConn struct {
	fleet.Conn
	p       *probe
	backend int
}

func (c *tracedConn) Predict(img []float32) ([]float32, error) {
	if !c.p.on.Load() {
		return c.Conn.Predict(img)
	}
	start := c.p.tr.Begin()
	out, err := c.Conn.Predict(img)
	image := -1
	if len(img) > 0 {
		if i, ok := c.p.byBits[math.Float32bits(img[0])]; ok {
			image = i
		}
	}
	c.p.tr.EndArgs("fleet.conn", benchCat, "", tidConn, start,
		map[string]float64{"image": float64(image), "backend": float64(c.backend)})
	return out, err
}

// rig is one set-up fleet: engines, their HTTP servers, the proxy and its
// server, and the load generator's client.
type rig struct {
	sp       scenario.Spec
	in       *inputs
	clock    func() int64
	engines  []*serve.Engine
	servers  []*http.Server
	lns      []net.Listener
	proxy    *fleet.Proxy
	registry *obs.Registry
	url      string
	client   *http.Client
	probe    *probe // nil: untraced run
}

func newRig(sp scenario.Spec, in *inputs, clock func() int64, traced bool) (*rig, error) {
	policy, err := fleet.PolicyByName(sp.Policy)
	if err != nil {
		return nil, err
	}
	r := &rig{sp: sp, in: in, clock: clock, registry: obs.NewRegistry()}
	if traced {
		r.probe = &probe{tr: obs.NewTracer(clock), byBits: in.byBits}
	}
	r.proxy = fleet.NewProxy(fleet.Config{Policy: policy, Clock: clock, Metrics: r.registry})
	for b := 0; b < sp.Backends; b++ {
		eng, err := serve.Load(sp.ServeBuilder(), bytes.NewReader(in.ckpt), sp.ServeConfig(clock, nil))
		if err != nil {
			r.close()
			return nil, err
		}
		r.engines = append(r.engines, eng)
		url, err := r.listen(r.wrap(eng.Handler(), "serve.handler", tidBackend+b))
		if err != nil {
			r.close()
			return nil, err
		}
		var conn fleet.Conn = fleet.NewHTTPConn(url)
		if r.probe != nil {
			conn = &tracedConn{Conn: conn, p: r.probe, backend: b}
		}
		if err := r.proxy.ControlPlane().Register(fmt.Sprintf("b%d", b), conn); err != nil {
			r.close()
			return nil, err
		}
	}
	if r.url, err = r.listen(r.wrap(r.proxy.Handler(), "fleet.proxy", tidProxy)); err != nil {
		r.close()
		return nil, err
	}
	r.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: senders, MaxIdleConnsPerHost: senders},
		Timeout:   10 * time.Second,
	}
	return r, nil
}

func (r *rig) wrap(h http.Handler, name string, tid int) http.Handler {
	if r.probe == nil {
		return h
	}
	return &tracedHandler{h: h, p: r.probe, name: name, tid: tid}
}

// listen opens a loopback listener for h, served once serve runs.
func (r *rig) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	r.lns = append(r.lns, ln)
	r.servers = append(r.servers, &http.Server{Handler: h})
	return "http://" + ln.Addr().String(), nil
}

// serve runs every HTTP server and fn side by side on one pool,
// shuts the servers down when fn returns, and closes the engines.
func (r *rig) serve(fn func() error) error {
	n := len(r.servers)
	serveErrs := make([]error, n)
	var fnErr error
	parallel.New(n+1).Run(n+1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if i < n {
				serveErrs[i] = r.servers[i].Serve(r.lns[i])
				continue
			}
			fnErr = fn()
			r.shutdown()
		}
	})
	r.close()
	if fnErr != nil {
		return fnErr
	}
	for _, err := range serveErrs {
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	}
	return nil
}

// shutdown stops every HTTP server, waiting briefly for in-flight requests.
func (r *rig) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, s := range r.servers {
		_ = s.Shutdown(ctx) // a server that misses the grace period is closed below
		_ = s.Close()
	}
}

// close releases the listeners, engines and idle client connections.
func (r *rig) close() {
	for _, ln := range r.lns {
		_ = ln.Close() // already closed by a server that ran
	}
	for _, e := range r.engines {
		e.Close()
	}
	if r.client != nil {
		r.client.CloseIdleConnections()
	}
}

// warm builds every executor the load can need before timing starts:
// serve.Engine builds one lazily per batch size, so each backend is sent
// concurrent pairs until it has run a batch of two. Then a few requests
// through the proxy open the keep-alive connections.
func (r *rig) warm(res *result) error {
	pool := parallel.New(serveMaxBatch)
	for b, eng := range r.engines {
		for try := 0; eng.Stats().BatchHist[serveMaxBatch-1] == 0; try++ {
			if try == 100 {
				return fmt.Errorf("backend %d never formed a batch of %d", b, serveMaxBatch)
			}
			errs := make([]error, serveMaxBatch)
			pool.Run(serveMaxBatch, func(lo, hi int) {
				for k := lo; k < hi; k++ {
					errs[k] = r.predictDirect(eng, k)
				}
			})
			for _, err := range errs {
				res.attempt(err)
			}
		}
	}
	out := r.run(make([]int64, 4*senders), nil)
	for _, err := range out.errs {
		res.attempt(err)
	}
	return nil
}

// predictDirect sends image k straight to an engine and checks the answer.
func (r *rig) predictDirect(eng *serve.Engine, k int) error {
	logits, err := eng.Predict(r.in.images[k])
	if err != nil {
		return err
	}
	return matchLogits(k, logits, r.in.refs[k])
}

// poissonArrivals is an open-loop arrival plan: exponential inter-arrival
// gaps at rate req/s for the given seconds. Request i is due at the i-th
// offset, in nanoseconds from the start of the phase, and carries image i
// mod serveImages.
func poissonArrivals(rng *tensor.RNG, rate, seconds float64) []int64 {
	var due []int64
	for t := 0.0; ; {
		t += -math.Log(1-rng.Float64()) / rate
		if t >= seconds {
			return due
		}
		due = append(due, int64(t*1e9))
	}
}

// phaseOut is what one phase of the load generator observed, per request.
type phaseOut struct {
	latNs  []int64 // done − due
	rttNs  []int64 // done − sent
	lateNs []int64 // sent − due
	sent   []int64 // send times on the run's clock
	errs   []error
	shed   int // requests answered 429
}

// run replays an arrival plan through the proxy with senders concurrent
// connections, open loop: each request is sent at its due time or as soon
// as a connection frees up, and timed from when it was due.
func (r *rig) run(due []int64, heaps []*heapPeak) *phaseOut {
	n := len(due)
	out := &phaseOut{
		latNs: make([]int64, n), rttNs: make([]int64, n), lateNs: make([]int64, n),
		sent: make([]int64, n), errs: make([]error, n),
	}
	var next atomic.Int64
	start := r.clock()
	parallel.New(senders).Run(senders, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			var heap *heapPeak
			if heaps != nil {
				heap = heaps[c]
			}
			r.sender(due, start, &next, out, heap)
		}
	})
	for _, err := range out.errs {
		if errors.Is(err, errShed) {
			out.shed++
		}
	}
	return out
}

// sender is one connection of the load generator: it takes the next
// unsent request, waits for its due time, and sends it.
func (r *rig) sender(due []int64, start int64, next *atomic.Int64, out *phaseOut, heap *heapPeak) {
	for {
		i := int(next.Add(1) - 1)
		if i >= len(due) {
			return
		}
		at := start + due[i]
		if d := at - r.clock(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		sent := r.clock()
		out.errs[i] = r.send(i % serveImages)
		done := r.clock()
		out.latNs[i], out.rttNs[i], out.lateNs[i], out.sent[i] = done-at, done-sent, sent-at, sent
		if heap != nil {
			heap.sample()
		}
	}
}

// errShed marks a request the fleet refused with 429.
var errShed = errors.New("request shed (429)")

// send posts one image to the proxy and checks the answer.
func (r *rig) send(image int) error {
	req, err := http.NewRequest(http.MethodPost, r.url+"/predict", bytes.NewReader(r.in.bodies[image]))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if r.probe != nil {
		req.Header.Set(imageHeader, strconv.Itoa(image))
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	return checkResponse(image, resp.StatusCode, body, r.in.refs[image])
}

// checkResponse accepts only a 200 whose body decodes to logits that
// bit-match the batch-1 reference. An empty or undecodable 200 fails: that
// is what non-finite logits produce.
func checkResponse(image, status int, body []byte, ref []float32) error {
	switch {
	case status == http.StatusTooManyRequests:
		return errShed
	case status != http.StatusOK:
		return fmt.Errorf("image %d: HTTP %d: %s", image, status, bytes.TrimSpace(body))
	}
	var pr serve.PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		return fmt.Errorf("image %d: undecodable 200 body (%d bytes): %v", image, len(body), err)
	}
	return matchLogits(image, pr.Logits, ref)
}

// matchLogits requires logits bit-equal to the reference.
func matchLogits(image int, got, ref []float32) error {
	if len(got) != len(ref) {
		return fmt.Errorf("image %d: %d logits, reference has %d", image, len(got), len(ref))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(ref[i]) {
			return fmt.Errorf("image %d: logit %d is %v, batch-1 reference %v", image, i, got[i], ref[i])
		}
	}
	return nil
}

// phase runs one seeded open-loop phase at rate for the given seconds.
// strict phases count every request in the result: a 429 or any other
// failure is a failed operation. Probes of the max_rps search count only
// wrong answers; a refusal there just marks the rate as over capacity.
func (r *rig) phase(rate, seconds float64, seed uint64, strict bool, res *result, heap *heapPeak) *phaseOut {
	due := poissonArrivals(tensor.NewRNG(seed), rate, seconds)
	var heaps []*heapPeak
	for i := 0; heap != nil && i < senders; i++ {
		heaps = append(heaps, newHeapPeak())
	}
	out := r.run(due, heaps)
	for _, h := range heaps {
		heap.merge(h)
	}
	for _, err := range out.errs {
		if strict || !errors.Is(err, errShed) {
			res.attempt(err)
		}
	}
	return out
}

// meets reports whether a phase met the latency limit without a growing
// backlog: every request answered, p99 within the limit, and the
// generator's lateness in the last quarter not above the first quarter's by
// more than lateGrowthMs.
func (p *phaseOut) meets() bool {
	for _, err := range p.errs {
		if err != nil {
			return false
		}
	}
	n := len(p.lateNs)
	if n < 4 {
		return n > 0
	}
	first := quantile(msOf(p.lateNs[:n/4]), 0.5)
	last := quantile(msOf(p.lateNs[n-n/4:]), 0.5)
	return quantile(msOf(p.latNs), 0.99) <= latencyLimitMs && last-first <= lateGrowthMs
}

// answered returns the latencies of the requests that succeeded, in ms.
func (p *phaseOut) answered() []float64 {
	var out []float64
	for i, err := range p.errs {
		if err == nil {
			out = append(out, float64(p.latNs[i])/1e6)
		}
	}
	return out
}

// Seeds of the phases, mixed with the run's seed.
const (
	seedLight = 0x11 + iota
	seedHeavy
	seedUntraced
	seedProbe
)

func runServe(o options) (*result, error) {
	sp, err := serveSpec(o.seed)
	if err != nil {
		return nil, err
	}
	clock := obs.WallClock()
	res := newResult("serve")
	setups := make([]float64, 0, setupRepeats)
	in, err := makeInputs(sp)
	if err != nil {
		return nil, err
	}
	for i := 0; i < setupRepeats; i++ {
		t0 := clock()
		ckpt, _, err := buildCheckpoint(sp)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(ckpt, in.ckpt) {
			return nil, fmt.Errorf("set-up %d built a different checkpoint from the same seed", i)
		}
		r, err := newRig(sp, in, clock, o.trace)
		if err != nil {
			return nil, err
		}
		last := i == setupRepeats-1
		err = r.serve(func() error {
			if err := r.warm(res); err != nil {
				return err
			}
			setups = append(setups, float64(clock()-t0)/1e9)
			if !last {
				return nil
			}
			runtime.GC() // earlier setups' fleets are garbage; keep them out of the heap peak
			if o.trace {
				return r.measureTraced(o, res)
			}
			r.measure(o, res)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	res.set("setup_s", "s", quantile(setups, 0.5), len(setups))
	return res, nil
}

// measure runs rounds of the light, heavy and saturated phases, then
// searches for max_rps.
func (r *rig) measure(o options, res *result) {
	heap := newHeapPeak()
	seed := o.seed << 8
	phases := []struct {
		name  string
		rate  float64
		share float64
		seed  uint64
	}{{"light", lightRate, lightShare, seedLight}, {"heavy", heavyRate, heavyShare, seedHeavy}}
	outs := make([]*phaseOut, len(phases))
	var saturated []float64
	var elapsed int64
	for k := 0; k < rounds; k++ {
		for i, ph := range phases {
			out := r.phase(ph.rate, ph.share*o.seconds/rounds, seed|ph.seed|uint64(k)<<12, true, res, heap)
			outs[i] = outs[i].merge(out)
		}
		lat, d := r.saturate(saturatedShare*o.seconds/rounds, res)
		saturated, elapsed = append(saturated, lat...), elapsed+d
	}
	for i, ph := range phases {
		lat := outs[i].answered()
		for _, q := range []struct {
			name string
			q    float64
		}{{"p50", 0.5}, {"p90", 0.9}, {"p95", 0.95}, {"p99", 0.99}} {
			res.set(q.name+"_ms."+ph.name, "ms", quantile(lat, q.q), len(lat))
		}
		res.set("late_p99_ms."+ph.name, "ms", quantile(msOf(outs[i].lateNs), 0.99), len(outs[i].lateNs))
	}
	res.set("saturated_rps", "1/s", float64(len(saturated))/(float64(elapsed)/1e9), len(saturated))
	res.set("p50_ms.saturated", "ms", quantile(saturated, 0.5), len(saturated))
	res.set("p90_ms.saturated", "ms", quantile(saturated, 0.9), len(saturated))
	maxRPS, probes := r.search(outs[0], o, seed, res, heap)
	res.set("max_rps", "1/s", maxRPS, probes)
	res.set("heap_peak_mb", "MB", heap.mb(), heap.n)
}

// saturate sends back to back on every connection (closed loop) for the
// given seconds. It returns the latencies of the answered requests and how
// long the phase took.
func (r *rig) saturate(seconds float64, res *result) ([]float64, int64) {
	type sample struct {
		latNs int64
		err   error
	}
	per := make([][]sample, senders)
	var next atomic.Int64
	start := r.clock()
	end := start + int64(seconds*1e9)
	parallel.New(senders).Run(senders, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			for t0 := r.clock(); t0 < end; t0 = r.clock() {
				err := r.send(int(next.Add(1)-1) % serveImages)
				per[c] = append(per[c], sample{r.clock() - t0, err})
			}
		}
	})
	elapsed := r.clock() - start
	var lat []float64
	for _, samples := range per {
		for _, s := range samples {
			res.attempt(s.err)
			if s.err == nil {
				lat = append(lat, float64(s.latNs)/1e6)
			}
		}
	}
	return lat, elapsed
}

// merge appends q's requests to p; a nil p yields q.
func (p *phaseOut) merge(q *phaseOut) *phaseOut {
	if p == nil {
		return q
	}
	p.latNs = append(p.latNs, q.latNs...)
	p.rttNs = append(p.rttNs, q.rttNs...)
	p.lateNs = append(p.lateNs, q.lateNs...)
	p.sent = append(p.sent, q.sent...)
	p.errs = append(p.errs, q.errs...)
	p.shed += q.shed
	return p
}

// search finds the highest offered rate that meets the latency limit. It
// brackets the limit between the light rate (or a halving below it, if even
// that fails) and twice the heavy rate, and bisects geometrically until the
// bracket is within rpsResolution. Within the final bracket it interpolates
// the rate at which p99 crosses the limit, so the result resolves changes
// smaller than the bracket. It returns the rate and the probe count.
func (r *rig) search(light *phaseOut, o options, seed uint64, res *result, heap *heapPeak) (float64, int) {
	lo, hi := lightRate, 2*heavyRate
	loP99, hiP99 := quantile(light.answered(), 0.99), 0.0
	if !light.meets() {
		lo, hi = 0, lightRate
	}
	probeSeconds := (1 - lightShare - heavyShare - saturatedShare) * o.seconds / maxProbes
	probes := 0
	for ; probes < maxProbes && (lo == 0 || hi/lo > rpsResolution); probes++ {
		rate := math.Sqrt(lo * hi)
		if lo == 0 {
			rate = hi / 2
		}
		out := r.phase(rate, probeSeconds, seed|seedProbe+uint64(probes)<<4, false, res, heap)
		met, p99 := out.meets(), quantile(out.answered(), 0.99)
		fmt.Fprintf(os.Stderr, "perfbench: probe %.1f req/s: %d requests, %d shed, p99 %.2f ms, meets limit: %v\n",
			rate, len(out.errs), out.shed, p99, met)
		if met {
			lo, loP99 = rate, p99
		} else {
			hi, hiP99 = rate, p99
		}
	}
	if loP99 > 0 && hiP99 > latencyLimitMs && hiP99 > loP99 {
		return lo + (hi-lo)*math.Min(1, (latencyLimitMs-loP99)/(hiP99-loP99)), probes
	}
	return lo, probes
}

// fleetCounters snapshots the serving counters a traced phase reports.
type fleetCounters struct {
	requests, batches, rejected int64 // summed over the engines
	proxied, failovers          int64
}

func (r *rig) counters() fleetCounters {
	var c fleetCounters
	for _, e := range r.engines {
		st := e.Stats()
		c.requests += int64(st.Requests)
		c.batches += int64(st.Batches)
		c.rejected += int64(st.Rejected)
	}
	c.proxied = r.registry.Counter("bnff_fleet_requests_total").Value()
	c.failovers = r.registry.Counter("bnff_fleet_failovers_total").Value()
	return c
}

// measureTraced runs the heavy rate untraced and then traced, attributes
// each traced request's time to the proxy, conn and engine handler spans,
// and times the folded inference executors the engines run.
func (r *rig) measureTraced(o options, res *result) error {
	seed := o.seed << 8
	base := r.phase(heavyRate, untracedShare*o.seconds, seed|seedUntraced, true, res, nil)
	before := r.counters()
	r.probe.on.Store(true)
	traced := r.phase(heavyRate, tracedShare*o.seconds, seed|seedHeavy, true, res, nil)
	r.probe.on.Store(false)
	after := r.counters()

	spans := r.probe.tr.Spans()
	proxySpans := spansByImage(spans, "fleet.proxy")
	connSpans := spansByImage(spans, "fleet.conn")
	var proxySelf, conn, handler, gaps []float64
	perBackend := make([]int, serveBackends)
	for _, sp := range spans {
		switch sp.Name {
		case "fleet.conn":
			conn = append(conn, float64(sp.Dur)/1e6)
			if b := int(sp.Args["backend"]); b >= 0 && b < serveBackends {
				perBackend[b]++
			}
		case "serve.handler":
			handler = append(handler, float64(sp.Dur)/1e6)
		case "fleet.proxy":
			var inner int64
			for _, c := range within(connSpans[int(sp.Args["image"])], sp.Start, sp.Start+sp.Dur) {
				inner += c.Dur
			}
			proxySelf = append(proxySelf, float64(sp.Dur-inner)/1e6)
		}
	}
	for i, err := range traced.errs {
		if err != nil {
			continue
		}
		in := within(proxySpans[i%serveImages], traced.sent[i], traced.sent[i]+traced.rttNs[i])
		if len(in) != 1 {
			return fmt.Errorf("request %d: %d proxy spans inside its client time, want 1", i, len(in))
		}
		gaps = append(gaps, 100*float64(traced.rttNs[i]-in[0].Dur)/float64(traced.rttNs[i]))
	}
	for _, q := range []struct {
		name string
		xs   []float64
	}{{"fleet.proxy_self_ms", proxySelf}, {"fleet.conn_ms", conn}, {"serve.handler_ms", handler}} {
		res.set(q.name+".p50", "ms", quantile(q.xs, 0.5), len(q.xs))
		res.set(q.name+".p99", "ms", quantile(q.xs, 0.99), len(q.xs))
	}
	gap := quantile(gaps, 0.5)
	res.set("trace.unattributed_pct", "%", gap, len(gaps))
	res.attempt(checkAttribution("request", gap, requestAttributionTolPct))
	res.set("loadgen.late_p99_ms", "ms", quantile(msOf(traced.lateNs), 0.99), len(traced.lateNs))
	res.set("obs.trace_overhead_pct", "%", 100*(quantile(traced.answered(), 0.5)/quantile(base.answered(), 0.5)-1), len(traced.errs))
	if d := after.batches - before.batches; d > 0 {
		res.set("serve.batch_mean", "count", float64(after.requests-before.requests)/float64(d), int(d))
	}
	if d := (after.requests - before.requests) + (after.rejected - before.rejected); d > 0 {
		res.set("serve.shed_ratio", "ratio", float64(after.rejected-before.rejected)/float64(d), int(d))
	}
	if d := after.proxied - before.proxied; d > 0 {
		res.set("fleet.first_choice_ratio", "ratio", 1-float64(after.failovers-before.failovers)/float64(d), int(d))
	}
	busiest, total := 0, 0
	for _, n := range perBackend {
		total += n
		if n > busiest {
			busiest = n
		}
	}
	if total > 0 {
		res.set("fleet.busiest_share", "ratio", float64(busiest)/float64(total), total)
	}

	infSpans, err := r.timeInference(o.seconds*(1-untracedShare-tracedShare), res)
	if err != nil {
		return err
	}
	return writeTrace(o, append(spans, infSpans...))
}

// spansByImage groups the named spans by their image argument, each group
// in start order.
func spansByImage(spans []obs.Span, name string) map[int][]obs.Span {
	out := map[int][]obs.Span{}
	for _, sp := range spans {
		if sp.Name == name {
			img := int(sp.Args["image"])
			out[img] = append(out[img], sp)
		}
	}
	return out
}

// within returns the spans lying inside [start, end].
func within(spans []obs.Span, start, end int64) []obs.Span {
	var out []obs.Span
	for _, sp := range spans {
		if sp.Start >= start && sp.Start+sp.Dur <= end {
			out = append(out, sp)
		}
	}
	return out
}

// timeInference times Executor.Forward on folded batch-1 and batch-2
// inference executors built the way the engines build their replicas, over
// the request images, for the given seconds: first both untraced, then the
// batch-1 one traced for the per-kind breakdown. Every output is checked
// against the references. It returns the traced spans.
func (r *rig) timeInference(seconds float64, res *result) ([]obs.Span, error) {
	tr := obs.NewTracer(r.clock)
	b1, err := inferenceExecutor(r.sp, r.in.ckpt, 1, nil)
	if err != nil {
		return nil, err
	}
	b2, err := inferenceExecutor(r.sp, r.in.ckpt, 2, nil)
	if err != nil {
		return nil, err
	}
	traced, err := inferenceExecutor(r.sp, r.in.ckpt, 1, tr)
	if err != nil {
		return nil, err
	}
	var t1, t2, t3 []int64
	half := r.clock() + int64(seconds/2*1e9)
	for i := 0; r.clock() < half; i++ {
		d, err := r.infer(b1, i, 1, res)
		if err != nil {
			return nil, err
		}
		t1 = append(t1, d)
		if d, err = r.infer(b2, i, 2, res); err != nil {
			return nil, err
		}
		t2 = append(t2, d)
	}
	end := r.clock() + int64(seconds/2*1e9)
	for i := 0; r.clock() < end; i++ {
		d, err := r.infer(traced, i, 1, res)
		if err != nil {
			return nil, err
		}
		t3 = append(t3, d)
	}
	res.set("core.infer_b1_ms", "ms", quantile(msOf(t1), 0.5), len(t1))
	res.set("core.infer_b2_ms", "ms", quantile(msOf(t2), 0.5), len(t2))
	spans := tr.Spans()
	return spans, nodeBreakdown(res, traced, spans, false)
}

// infer runs one forward over batch consecutive request images starting at
// image i, checks every row against its reference, and returns the time.
func (r *rig) infer(exec *core.Executor, i, batch int, res *result) (int64, error) {
	per := len(r.in.images[0])
	x := tensor.New(append(tensor.Shape{batch}, exec.G.Nodes[0].OutShape[1:]...)...)
	for k := 0; k < batch; k++ {
		copy(x.Data[k*per:(k+1)*per], r.in.images[(i*batch+k)%serveImages])
	}
	start := r.clock()
	y, err := exec.Forward(x)
	d := r.clock() - start
	if err != nil {
		return 0, err
	}
	classes := len(y.Data) / batch
	for k := 0; k < batch; k++ {
		img := (i*batch + k) % serveImages
		res.attempt(matchLogits(img, y.Data[k*classes:(k+1)*classes], r.in.refs[img]))
	}
	return d, nil
}
