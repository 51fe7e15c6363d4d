package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/loadgen"
	"repro/internal/registry"
)

// TestOverloadShedsInsteadOfCollapsing is the end-to-end SLO property of
// the admission gates: offered load beyond capacity turns into prompt
// 429s with Retry-After — not timeouts, not an unbounded queue — while
// accepted requests keep a bounded p99 and the shed/inflight series
// advance on /metrics. A one-slot gate against an expensive certify body
// makes the overload deterministic on any machine: a single worker slot
// cannot clear 200 arrivals/second of hundred-thousand-node proofs.
func TestOverloadShedsInsteadOfCollapsing(t *testing.T) {
	if testing.Short() {
		t.Skip("sustained-load run")
	}
	srv := newServer(registry.Default(), 2)
	srv.maxInflight = 1
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	body := []byte(`{"scheme":"tree-mso","params":{"property":"perfect-matching"},"generator":{"kind":"path","n":200000}}`)
	// Size the measured window from one certify timed on this server: the
	// proof admitted during warm-up holds the only slot for that long, and
	// under -race on a loaded machine it can outlast a fixed window, which
	// would shed every measured arrival. Three proofs' worth leaves room
	// for later arrivals to be admitted.
	t0 := time.Now()
	resp, err := ts.Client().Post(ts.URL+"/certify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("calibration certify: status %d", resp.StatusCode)
	}
	window := max(1500*time.Millisecond, 3*time.Since(t0))
	rep, err := loadgen.Run(context.Background(), loadgen.Options{
		BaseURL:  ts.URL,
		Rate:     200,
		Warmup:   200 * time.Millisecond,
		Duration: window,
		Seed:     9,
		Timeout:  15 * time.Second,
		Mix: []loadgen.Target{{
			Name:   "certify",
			Path:   "/certify",
			Weight: 1,
			Body:   func(*rand.Rand) []byte { return body },
		}},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Overload must manifest as sheds, and as nothing else: no transport
	// errors, no timeouts, no 5xx.
	if rep.Shed == 0 {
		t.Fatalf("no sheds under %0.f/s against a one-slot gate: %+v", rep.OfferedRate, rep)
	}
	if rep.OK == 0 {
		t.Fatalf("no accepted requests at all: %+v", rep)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d requests became errors instead of sheds", rep.Errors)
	}
	ep := rep.Endpoints[0]
	if ep.RetryAfterMissing != 0 {
		t.Fatalf("%d sheds lacked Retry-After", ep.RetryAfterMissing)
	}
	// Accepted requests must stay bounded: a request either gets the slot
	// and runs, or is shed immediately — it never sits in a queue.
	if p99 := time.Duration(ep.Latency.P99NS); p99 > 5*time.Second {
		t.Fatalf("accepted p99 %v unbounded under overload", p99)
	}
	// Sheds are cheap by construction; they must be far faster than the
	// proofs they refused.
	if sp99 := time.Duration(ep.ShedLatency.P99NS); sp99 > time.Second {
		t.Fatalf("shed p99 %v — refusals are queueing somewhere", sp99)
	}

	// The server's own account must agree: the shed counter advanced and
	// the inflight gauge was exported for the gated path.
	if rep.Server == nil {
		t.Fatal("report carries no server delta")
	}
	if rep.Server.ShedByPath["/certify"] == 0 {
		t.Fatalf("http_requests_shed_total did not advance: %+v", rep.Server)
	}
	if rep.Server.RequestsByPath["/certify"] < float64(rep.Requests) {
		t.Fatalf("server counted %.0f certify requests, generator measured %d",
			rep.Server.RequestsByPath["/certify"], rep.Requests)
	}
	if _, ok := rep.Server.InflightByPath["/certify"]; !ok {
		t.Fatalf("http_inflight_requests not exported: %+v", rep.Server)
	}

	// And /healthz reads the same handles.
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Admission admissionHealth `json:"admission"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Admission.Shed < int64(rep.Shed) {
		t.Fatalf("healthz shed count %d below the run's %d", health.Admission.Shed, rep.Shed)
	}
}
