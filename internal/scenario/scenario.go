// Package scenario is the declarative experiment layer: a Spec names one
// reproducible run — a training configuration (model × restructuring ×
// batch/workers/arena) or a serving configuration (model × traffic shape ×
// engine knobs) — with validation-with-defaults in Normalize, a
// deterministic sorted-name registry, and JSON (de)serialization so whole
// grids live in scripts/paper/experiments.json. cmd/bnff-exp executes grids
// and emits the BENCH_*.json evidence files; cmd/bnff-train, cmd/bnff-bench
// and cmd/bnff-profile resolve their flags onto a Spec instead of carrying
// private flag→executor wiring.
package scenario

import (
	"encoding/json"
	"fmt"
	"strings"

	"bnff/internal/core"
	"bnff/internal/ddp"
	"bnff/internal/fleet"
	"bnff/internal/models"
	"bnff/internal/parallel"
)

// Spec kinds.
const (
	KindTrain = "train"
	KindServe = "serve"
)

// Serve traffic shapes. The first three are steady-state load patterns; the
// next three are single-engine chaos drills; the last three are fleet drills
// that route every request through a front proxy over Backends engines. All
// drills carry embedded assertions (see Checks).
const (
	TrafficSteady        = "steady"
	TrafficBursty        = "bursty"
	TrafficSlowClient    = "slow-client"
	TrafficOverload      = "overload"
	TrafficCrash         = "replica-crash"
	TrafficDiskFull      = "disk-full-checkpoint"
	TrafficBackendCrash  = "backend-crash-failover"
	TrafficRollingReload = "rolling-reload"
	TrafficProxyOverload = "proxy-overload"
)

// trafficShapes lists every traffic shape in presentation order.
func trafficShapes() []string {
	return []string{TrafficSteady, TrafficBursty, TrafficSlowClient,
		TrafficOverload, TrafficCrash, TrafficDiskFull,
		TrafficBackendCrash, TrafficRollingReload, TrafficProxyOverload}
}

// fleetTraffic reports whether the shape is one of the fleet drills, which
// run behind a front proxy and require at least two backends.
func fleetTraffic(shape string) bool {
	switch shape {
	case TrafficBackendCrash, TrafficRollingReload, TrafficProxyOverload:
		return true
	}
	return false
}

// Spec declares one experiment scenario. The zero value is not runnable;
// Normalize fills defaults and validates, and every consumer (registry,
// grid, builders) normalizes before use. Field semantics:
//
//   - shared: Name, Kind (train|serve), Model (a models registry name),
//     Restructure (a core.Scenario name, canonicalized lowercase), Workers,
//     Seed, Repeats, Replicas (data-parallel training replicas, default 1;
//     serving replica executors, default 2).
//   - train only: Batch, Steps, LR, Schedule, NoArena, BNStrategy
//     (local|sync, default local; sync requires replicas > 1 and an MVF
//     restructuring).
//   - serve only: Fold, MaxBatch, MaxWaitMS, QueueDepth, Traffic,
//     Requests, Clients, Burst, ClientDelayMS, ServiceFloorMS, Backends,
//     Policy.
//
// Setting a field of the other kind is a Normalize error, so a grid cannot
// silently carry dead configuration.
type Spec struct {
	Name        string `json:"name"`
	Kind        string `json:"kind"`
	Model       string `json:"model"`
	Restructure string `json:"restructure,omitempty"`
	Workers     int    `json:"workers,omitempty"`
	Seed        uint64 `json:"seed,omitempty"`
	Repeats     int    `json:"repeats,omitempty"`

	// Replicas is shared: data-parallel training replicas (default 1) or
	// serving replica executors (default 2).
	Replicas int `json:"replicas,omitempty"`

	// Training fields.
	Batch      int     `json:"batch,omitempty"`
	Steps      int     `json:"steps,omitempty"`
	LR         float64 `json:"lr,omitempty"`
	Schedule   string  `json:"schedule,omitempty"`
	NoArena    bool    `json:"no_arena,omitempty"`
	BNStrategy string  `json:"bn_strategy,omitempty"`

	// Serving fields.
	Fold          bool   `json:"fold,omitempty"`
	MaxBatch      int    `json:"max_batch,omitempty"`
	MaxWaitMS     int    `json:"max_wait_ms,omitempty"`
	QueueDepth    int    `json:"queue_depth,omitempty"`
	Traffic       string `json:"traffic,omitempty"`
	Requests      int    `json:"requests,omitempty"`
	Clients       int    `json:"clients,omitempty"`
	Burst         int    `json:"burst,omitempty"`
	ClientDelayMS int    `json:"client_delay_ms,omitempty"`

	// ServiceFloorMS puts a floor on each batch's service time (serve.Config
	// MinService), emulating a slower model or accelerator. Overload shapes
	// only, default 20: the shed contract must hold because the queue is
	// bounded while a batch is in service, not because the compute kernels
	// are slow enough for clients to pile up behind an unfloored forward.
	ServiceFloorMS int `json:"service_floor_ms,omitempty"`

	// Fleet fields (serve only). Backends > 0 routes every request through a
	// front proxy over that many identical engines instead of one engine
	// directly; Policy names the routing policy (hash, least-loaded,
	// round-robin; default hash). The fleet drill shapes require Backends >= 2
	// so capacity stays at N-1 while one backend is down or draining.
	Backends int    `json:"backends,omitempty"`
	Policy   string `json:"policy,omitempty"`
}

// Normalize fills defaults in place and validates the result. It is
// idempotent: normalizing a normalized spec changes nothing, which is what
// keeps the JSON round trip byte-stable.
func (s *Spec) Normalize() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: name required")
	}
	if strings.ContainsAny(s.Name, " \t\n") {
		return fmt.Errorf("scenario %q: name must not contain whitespace", s.Name)
	}
	switch s.Kind {
	case KindTrain, KindServe:
	case "":
		return fmt.Errorf("scenario %q: kind required (train or serve)", s.Name)
	default:
		return fmt.Errorf("scenario %q: unknown kind %q (want train or serve)", s.Name, s.Kind)
	}
	if s.Model == "" {
		return fmt.Errorf("scenario %q: model required (one of %v)", s.Name, models.Names())
	}
	if !knownModel(s.Model) {
		return fmt.Errorf("scenario %q: unknown model %q (want one of %v)", s.Name, s.Model, models.Names())
	}
	if s.Restructure == "" {
		s.Restructure = "baseline"
	}
	sc, err := core.ParseScenario(s.Restructure)
	if err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	s.Restructure = strings.ToLower(sc.String())
	if s.Workers == 0 {
		s.Workers = 1
	}
	if s.Workers < 1 || s.Workers > parallel.MaxWorkers {
		return fmt.Errorf("scenario %q: workers %d outside [1, %d]", s.Name, s.Workers, parallel.MaxWorkers)
	}
	if s.Repeats == 0 {
		s.Repeats = 3
	}
	if s.Repeats < 1 {
		return fmt.Errorf("scenario %q: repeats %d must be positive", s.Name, s.Repeats)
	}
	switch s.Kind {
	case KindTrain:
		return s.normalizeTrain()
	default:
		return s.normalizeServe()
	}
}

func (s *Spec) normalizeTrain() error {
	if s.Fold || s.MaxBatch != 0 || s.MaxWaitMS != 0 ||
		s.QueueDepth != 0 || s.Traffic != "" || s.Requests != 0 ||
		s.Clients != 0 || s.Burst != 0 || s.ClientDelayMS != 0 ||
		s.ServiceFloorMS != 0 || s.Backends != 0 || s.Policy != "" {
		return fmt.Errorf("scenario %q: serve fields set on a train scenario", s.Name)
	}
	if s.Batch == 0 {
		s.Batch = 16
	}
	if s.Batch < 1 {
		return fmt.Errorf("scenario %q: batch %d must be positive", s.Name, s.Batch)
	}
	if s.Replicas == 0 {
		s.Replicas = 1
	}
	if s.Replicas < 1 {
		return fmt.Errorf("scenario %q: replicas %d must be positive", s.Name, s.Replicas)
	}
	if s.Batch%s.Replicas != 0 {
		return fmt.Errorf("scenario %q: batch %d does not shard into %d replicas", s.Name, s.Batch, s.Replicas)
	}
	if s.BNStrategy == "" {
		s.BNStrategy = "local"
	}
	st, err := ddp.ParseBNStrategy(s.BNStrategy)
	if err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	s.BNStrategy = st.String()
	if st == ddp.BNSync {
		if s.Replicas < 2 {
			return fmt.Errorf("scenario %q: sync BN strategy needs replicas > 1", s.Name)
		}
		sc, err := core.ParseScenario(s.Restructure)
		if err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
		if !sc.Options().MVF {
			return fmt.Errorf("scenario %q: sync BN strategy needs MVF statistics (restructure rcf+mvf, bnff, or bnff+icf; got %q)", s.Name, s.Restructure)
		}
	}
	if s.Steps == 0 {
		s.Steps = 5
	}
	if s.Steps < 1 {
		return fmt.Errorf("scenario %q: steps %d must be positive", s.Name, s.Steps)
	}
	if s.LR == 0 {
		s.LR = 0.01
	}
	if s.LR < 0 {
		return fmt.Errorf("scenario %q: lr %v must be positive", s.Name, s.LR)
	}
	if s.Schedule == "" {
		s.Schedule = "constant"
	}
	switch s.Schedule {
	case "constant", "step", "cosine":
	default:
		return fmt.Errorf("scenario %q: unknown schedule %q (want constant, step, or cosine)", s.Name, s.Schedule)
	}
	return nil
}

func (s *Spec) normalizeServe() error {
	if s.Batch != 0 || s.Steps != 0 || s.LR != 0 || s.Schedule != "" || s.NoArena || s.BNStrategy != "" {
		return fmt.Errorf("scenario %q: train fields set on a serve scenario", s.Name)
	}
	if s.Restructure != "baseline" {
		// Serving executes inference graphs; the BN-fold compile pass (and the
		// training-restructured forms) do not compose, so a serve scenario
		// always builds the baseline graph and differentiates via Fold.
		return fmt.Errorf("scenario %q: serve scenarios require restructure=baseline (got %q)", s.Name, s.Restructure)
	}
	if s.Replicas == 0 {
		s.Replicas = 2
	}
	if s.Replicas < 1 {
		return fmt.Errorf("scenario %q: replicas %d must be positive", s.Name, s.Replicas)
	}
	if s.MaxBatch == 0 {
		s.MaxBatch = 8
	}
	if s.MaxBatch < 1 {
		return fmt.Errorf("scenario %q: max_batch %d must be positive", s.Name, s.MaxBatch)
	}
	if s.MaxWaitMS < 0 {
		return fmt.Errorf("scenario %q: max_wait_ms %d must be non-negative", s.Name, s.MaxWaitMS)
	}
	if s.QueueDepth < 0 {
		return fmt.Errorf("scenario %q: queue_depth %d must be non-negative", s.Name, s.QueueDepth)
	}
	if s.Traffic == "" {
		s.Traffic = TrafficSteady
	}
	known := false
	for _, tr := range trafficShapes() {
		if s.Traffic == tr {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("scenario %q: unknown traffic shape %q (want one of %v)", s.Name, s.Traffic, trafficShapes())
	}
	if s.Requests == 0 {
		s.Requests = 64
	}
	if s.Requests < 1 {
		return fmt.Errorf("scenario %q: requests %d must be positive", s.Name, s.Requests)
	}
	if s.Clients == 0 {
		s.Clients = 4
	}
	if s.Clients < 1 {
		return fmt.Errorf("scenario %q: clients %d must be positive", s.Name, s.Clients)
	}
	switch s.Traffic {
	case TrafficBursty:
		if s.Burst == 0 {
			s.Burst = s.MaxBatch
		}
		if s.Burst < 1 {
			return fmt.Errorf("scenario %q: burst %d must be positive", s.Name, s.Burst)
		}
	default:
		if s.Burst != 0 {
			return fmt.Errorf("scenario %q: burst only applies to %s traffic", s.Name, TrafficBursty)
		}
	}
	switch s.Traffic {
	case TrafficSlowClient:
		if s.ClientDelayMS == 0 {
			s.ClientDelayMS = 2
		}
		if s.ClientDelayMS < 1 {
			return fmt.Errorf("scenario %q: client_delay_ms %d must be positive", s.Name, s.ClientDelayMS)
		}
	default:
		if s.ClientDelayMS != 0 {
			return fmt.Errorf("scenario %q: client_delay_ms only applies to %s traffic", s.Name, TrafficSlowClient)
		}
	}
	switch s.Traffic {
	case TrafficOverload, TrafficProxyOverload:
		if s.ServiceFloorMS == 0 {
			s.ServiceFloorMS = 20
		}
		if s.ServiceFloorMS < 1 {
			return fmt.Errorf("scenario %q: service_floor_ms %d must be positive", s.Name, s.ServiceFloorMS)
		}
	default:
		if s.ServiceFloorMS != 0 {
			return fmt.Errorf("scenario %q: service_floor_ms only applies to the overload shapes (%s, %s)",
				s.Name, TrafficOverload, TrafficProxyOverload)
		}
	}
	if s.Traffic == TrafficCrash && s.Replicas < 2 {
		return fmt.Errorf("scenario %q: %s needs at least 2 replicas to keep serving", s.Name, TrafficCrash)
	}
	if fleetTraffic(s.Traffic) && s.Backends == 0 {
		s.Backends = 2
	}
	if s.Backends != 0 {
		switch {
		case s.Traffic == TrafficSteady, fleetTraffic(s.Traffic):
		default:
			return fmt.Errorf("scenario %q: backends apply only to %s traffic and the fleet drills, not %s",
				s.Name, TrafficSteady, s.Traffic)
		}
		if s.Backends < 1 {
			return fmt.Errorf("scenario %q: backends %d must be positive", s.Name, s.Backends)
		}
		if fleetTraffic(s.Traffic) && s.Backends < 2 {
			return fmt.Errorf("scenario %q: %s needs at least 2 backends to keep capacity at N-1", s.Name, s.Traffic)
		}
		if s.Policy == "" {
			s.Policy = "hash"
		}
		if _, err := fleet.PolicyByName(s.Policy); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	} else if s.Policy != "" {
		return fmt.Errorf("scenario %q: policy applies only to fleet scenarios (backends > 0)", s.Name)
	}
	if s.Traffic == TrafficOverload || s.Traffic == TrafficProxyOverload {
		// The drill's clients all hold a request at once (they start behind
		// a shared barrier). They must outnumber every request the serving
		// side can absorb, or a proxy that fails a 429 over to another
		// backend may find room and shedding becomes a timing race. The
		// capacity counts the queue once per replica, an overestimate; a
		// direct (proxy-less) spec has one backend.
		queue := s.QueueDepth
		if queue == 0 {
			queue = 4 * s.MaxBatch * s.Replicas // serve.Config's default
		}
		if capacity := max(s.Backends, 1) * s.Replicas * (queue + s.MaxBatch); s.Clients <= capacity {
			return fmt.Errorf("scenario %q: %s needs more than %d clients (backends × replicas × (queue_depth + max_batch)), got %d",
				s.Name, s.Traffic, capacity, s.Clients)
		}
	}
	return nil
}

// knownModel reports whether the models registry has name.
func knownModel(name string) bool {
	for _, n := range models.Names() {
		if n == name {
			return true
		}
	}
	return false
}

// CoreScenario returns the restructuring configuration the spec names.
// The spec must be normalized.
func (s Spec) CoreScenario() (core.Scenario, error) {
	return core.ParseScenario(s.Restructure)
}

// Checks lists the embedded assertions an experiment runner must evaluate
// for this scenario, in fixed order. Train scenarios promise bit-identical
// repeats (same seed, same data, same trajectory). Serve scenarios promise
// logits bit-identical to a batch-1 reference pass; chaos shapes add their
// drill-specific assertions.
func (s Spec) Checks() []string {
	if s.Kind == KindTrain {
		return []string{"bit-identical-repeats"}
	}
	checks := []string{"logits-match-reference"}
	switch s.Traffic {
	case TrafficOverload:
		checks = append(checks, "overload-sheds")
	case TrafficCrash:
		checks = append(checks, "replica-crash-recovery")
	case TrafficDiskFull:
		checks = append(checks, "checkpoint-survives-failed-save")
	case TrafficBackendCrash:
		checks = append(checks, "backend-failover-zero-loss")
	case TrafficRollingReload:
		checks = append(checks, "rolling-reload-bit-identical")
	case TrafficProxyOverload:
		checks = append(checks, "proxy-overload-sheds")
	}
	return checks
}

// MarshalCanonical renders the spec as its canonical indented JSON —
// normalized field values, fixed field order, trailing newline — the byte
// form grids and BENCH files embed.
func (s Spec) MarshalCanonical() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
