package scenario

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func validTrain() Spec {
	return Spec{Name: "train/tiny-cnn/bnff", Kind: KindTrain, Model: "tiny-cnn", Restructure: "bnff"}
}

func validServe() Spec {
	return Spec{Name: "serve/tiny-cnn/steady", Kind: KindServe, Model: "tiny-cnn"}
}

func TestNormalizeDefaults(t *testing.T) {
	s := validTrain()
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if s.Batch != 16 || s.Steps != 5 || s.LR != 0.01 || s.Schedule != "constant" ||
		s.Workers != 1 || s.Repeats != 3 || s.Replicas != 1 || s.BNStrategy != "local" {
		t.Errorf("train defaults wrong: %+v", s)
	}

	// Data-parallel spec: replicas stay as given, strategy canonicalizes.
	d := validTrain()
	d.Replicas = 2
	d.BNStrategy = "SYNC"
	if err := d.Normalize(); err != nil {
		t.Fatal(err)
	}
	if d.Replicas != 2 || d.BNStrategy != "sync" {
		t.Errorf("ddp normalize wrong: %+v", d)
	}

	v := validServe()
	if err := v.Normalize(); err != nil {
		t.Fatal(err)
	}
	if v.Restructure != "baseline" || v.Replicas != 2 || v.MaxBatch != 8 ||
		v.Traffic != TrafficSteady || v.Requests != 64 || v.Clients != 4 ||
		v.Workers != 1 || v.Repeats != 3 {
		t.Errorf("serve defaults wrong: %+v", v)
	}
	if v.Backends != 0 || v.Policy != "" {
		t.Errorf("non-fleet serve spec grew fleet defaults: %+v", v)
	}

	// Fleet drill: backends default to 2 and the policy to hash.
	f := validServe()
	f.Traffic = TrafficRollingReload
	if err := f.Normalize(); err != nil {
		t.Fatal(err)
	}
	if f.Backends != 2 || f.Policy != "hash" {
		t.Errorf("fleet defaults wrong: backends %d policy %q", f.Backends, f.Policy)
	}
}

func TestNormalizeCanonicalizesAliases(t *testing.T) {
	for alias, want := range map[string]string{
		"mvf": "rcf+mvf", "icf": "bnff+icf", "BNFF": "bnff", "Baseline": "baseline",
	} {
		s := validTrain()
		s.Restructure = alias
		if err := s.Normalize(); err != nil {
			t.Fatalf("alias %q: %v", alias, err)
		}
		if s.Restructure != want {
			t.Errorf("alias %q canonicalized to %q, want %q", alias, s.Restructure, want)
		}
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	for _, s := range Builtin().Specs() {
		before := s
		if err := s.Normalize(); err != nil {
			t.Fatalf("%s: %v", before.Name, err)
		}
		if s != before {
			t.Errorf("%s: second Normalize changed the spec:\nbefore %+v\nafter  %+v", before.Name, before, s)
		}
	}
}

func TestNormalizeErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"empty name", func(s *Spec) { s.Name = "" }, "name required"},
		{"whitespace name", func(s *Spec) { s.Name = "bad name" }, "whitespace"},
		{"missing kind", func(s *Spec) { s.Kind = "" }, "kind required"},
		{"unknown kind", func(s *Spec) { s.Kind = "deploy" }, "unknown kind"},
		{"missing model", func(s *Spec) { s.Model = "" }, "model required"},
		{"unknown model", func(s *Spec) { s.Model = "resnet5000" }, "unknown model"},
		{"unknown restructure", func(s *Spec) { s.Restructure = "bnff+turbo" }, "unknown scenario"},
		{"negative workers", func(s *Spec) { s.Workers = -1 }, "workers"},
		{"huge workers", func(s *Spec) { s.Workers = 1 << 20 }, "workers"},
		{"negative repeats", func(s *Spec) { s.Repeats = -2 }, "repeats"},
		{"negative batch", func(s *Spec) { s.Batch = -8 }, "batch"},
		{"negative steps", func(s *Spec) { s.Steps = -1 }, "steps"},
		{"negative lr", func(s *Spec) { s.LR = -0.5 }, "lr"},
		{"unknown schedule", func(s *Spec) { s.Schedule = "cyclic" }, "unknown schedule"},
		{"fold on train", func(s *Spec) { s.Fold = true }, "serve fields"},
		{"traffic on train", func(s *Spec) { s.Traffic = TrafficSteady }, "serve fields"},
		{"backends on train", func(s *Spec) { s.Backends = 2 }, "serve fields"},
		{"negative replicas", func(s *Spec) { s.Replicas = -2 }, "replicas"},
		{"indivisible shard", func(s *Spec) { s.Batch = 8; s.Replicas = 3 }, "shard"},
		{"unknown bn strategy", func(s *Spec) { s.Replicas = 2; s.BNStrategy = "async" }, "BN strategy"},
		{"sync on one replica", func(s *Spec) { s.BNStrategy = "sync" }, "replicas > 1"},
		{"sync without mvf", func(s *Spec) { s.Restructure = "rcf"; s.Replicas = 2; s.BNStrategy = "sync" }, "MVF"},
	}
	for _, tc := range cases {
		s := validTrain()
		tc.mut(&s)
		err := s.Normalize()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}

	serveCases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"train field on serve", func(s *Spec) { s.Steps = 5 }, "train fields"},
		{"batch on serve", func(s *Spec) { s.Batch = 8 }, "train fields"},
		{"noarena on serve", func(s *Spec) { s.NoArena = true }, "train fields"},
		{"bn strategy on serve", func(s *Spec) { s.BNStrategy = "sync" }, "train fields"},
		{"restructured serve", func(s *Spec) { s.Restructure = "bnff" }, "restructure=baseline"},
		{"negative replicas", func(s *Spec) { s.Replicas = -1 }, "replicas"},
		{"negative max batch", func(s *Spec) { s.MaxBatch = -1 }, "max_batch"},
		{"negative max wait", func(s *Spec) { s.MaxWaitMS = -1 }, "max_wait_ms"},
		{"negative queue", func(s *Spec) { s.QueueDepth = -1 }, "queue_depth"},
		{"unknown traffic", func(s *Spec) { s.Traffic = "stampede" }, "unknown traffic"},
		{"negative requests", func(s *Spec) { s.Requests = -1 }, "requests"},
		{"negative clients", func(s *Spec) { s.Clients = -1 }, "clients"},
		{"burst on steady", func(s *Spec) { s.Burst = 4 }, "burst only applies"},
		{"delay on steady", func(s *Spec) { s.ClientDelayMS = 5 }, "client_delay_ms only applies"},
		{"service floor on steady", func(s *Spec) { s.ServiceFloorMS = 20 }, "service_floor_ms only applies"},
		{"negative service floor", func(s *Spec) { s.Traffic = TrafficOverload; s.ServiceFloorMS = -1 }, "service_floor_ms"},
		{"crash with one replica", func(s *Spec) { s.Traffic = TrafficCrash; s.Replicas = 1 }, "2 replicas"},
		{"backends on bursty", func(s *Spec) { s.Traffic = TrafficBursty; s.Backends = 2 }, "backends apply only"},
		{"one-backend fleet drill", func(s *Spec) { s.Traffic = TrafficBackendCrash; s.Backends = 1 }, "2 backends"},
		{"policy without backends", func(s *Spec) { s.Policy = "hash" }, "backends > 0"},
		{"unknown policy", func(s *Spec) { s.Traffic = TrafficProxyOverload; s.Policy = "sticky" }, "unknown policy"},
		// Overload clients must outnumber backends × replicas × (queue +
		// batch): 2 × 1 × (2 + 4) = 12, so 12 clients is a timing race.
		{"proxy overload at capacity", func(s *Spec) {
			s.Traffic, s.Replicas, s.QueueDepth, s.MaxBatch, s.Clients = TrafficProxyOverload, 1, 2, 4, 12
		}, "more than 12 clients"},
		{"overload at capacity", func(s *Spec) {
			s.Traffic, s.Replicas, s.QueueDepth, s.MaxBatch, s.Clients = TrafficOverload, 1, 2, 4, 6
		}, "more than 6 clients"},
		// A zero queue depth counts serve's default of 4 × MaxBatch × Replicas.
		{"overload default queue", func(s *Spec) {
			s.Traffic, s.Replicas, s.MaxBatch, s.Clients = TrafficOverload, 1, 4, 20
		}, "more than 20 clients"},
	}
	for _, tc := range serveCases {
		s := validServe()
		tc.mut(&s)
		err := s.Normalize()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

func TestJSONRoundTripByteStable(t *testing.T) {
	for _, s := range Builtin().Specs() {
		first, err := s.MarshalCanonical()
		if err != nil {
			t.Fatal(err)
		}
		var back Spec
		if err := json.Unmarshal(first, &back); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if err := back.Normalize(); err != nil {
			t.Fatalf("%s: re-normalize: %v", s.Name, err)
		}
		second, err := back.MarshalCanonical()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("%s: JSON round trip not byte-stable:\n%s\nvs\n%s", s.Name, first, second)
		}
	}
}

func TestChecksPerShape(t *testing.T) {
	tr := validTrain()
	if err := tr.Normalize(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Checks(); len(got) != 1 || got[0] != "bit-identical-repeats" {
		t.Errorf("train checks = %v", got)
	}
	wantExtra := map[string]string{
		TrafficSteady:        "",
		TrafficBursty:        "",
		TrafficSlowClient:    "",
		TrafficOverload:      "overload-sheds",
		TrafficCrash:         "replica-crash-recovery",
		TrafficDiskFull:      "checkpoint-survives-failed-save",
		TrafficBackendCrash:  "backend-failover-zero-loss",
		TrafficRollingReload: "rolling-reload-bit-identical",
		TrafficProxyOverload: "proxy-overload-sheds",
	}
	for traffic, extra := range wantExtra {
		s := validServe()
		s.Traffic = traffic
		switch traffic {
		case TrafficCrash:
			s.Replicas = 2
		case TrafficOverload, TrafficProxyOverload:
			s.QueueDepth, s.MaxBatch, s.Clients = 2, 4, 64
		}
		if err := s.Normalize(); err != nil {
			t.Fatalf("%s: %v", traffic, err)
		}
		checks := s.Checks()
		if checks[0] != "logits-match-reference" {
			t.Errorf("%s: first check = %q", traffic, checks[0])
		}
		if extra == "" && len(checks) != 1 {
			t.Errorf("%s: checks = %v, want only the logits check", traffic, checks)
		}
		if extra != "" && (len(checks) != 2 || checks[1] != extra) {
			t.Errorf("%s: checks = %v, want %q second", traffic, checks, extra)
		}
	}
}
