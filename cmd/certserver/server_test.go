package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/graphgen"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/treewidth"
	"repro/internal/wire"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(newServer(registry.Default(), 4).routes())
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp
}

// GET /schemes must list every registered scheme with its metadata.
func TestSchemesEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/schemes")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var body struct {
		Schemes []registry.Info `json:"schemes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	want := registry.Default().Names()
	if len(body.Schemes) != len(want) {
		t.Fatalf("listed %d schemes, want %d", len(body.Schemes), len(want))
	}
	for i, info := range body.Schemes {
		if info.Name != want[i] {
			t.Fatalf("scheme %d = %q, want %q", i, info.Name, want[i])
		}
		if info.CertBound == "" || info.Summary == "" {
			t.Fatalf("scheme %q missing metadata: %+v", info.Name, info)
		}
	}
}

// POST /certify with an explicit graph returns an accepting result and
// the certificates when asked.
func TestCertifyEndpoint(t *testing.T) {
	ts := newTestServer(t)
	g := wire.GraphToJSON(graphgen.Path(8))
	var out certifyResponse
	resp := postJSON(t, ts.URL+"/certify", map[string]any{
		"scheme":               "tree-mso",
		"params":               map[string]any{"property": "perfect-matching"},
		"graph":                g,
		"include_certificates": true,
		"distributed":          true,
	}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !out.Result.Accepted {
		t.Fatalf("honest proof rejected: %+v", out.Result)
	}
	if len(out.Certificates) != 8 {
		t.Fatalf("%d certificates, want 8", len(out.Certificates))
	}
	if out.Result.MaxBits == 0 || out.Result.MaxBits != len(out.Certificates[0]) {
		t.Fatalf("max_bits %d inconsistent with certificates %v", out.Result.MaxBits, out.Certificates[0])
	}
	if out.DistributedAccepted == nil || !*out.DistributedAccepted {
		t.Fatalf("distributed verdict missing or rejecting: %v", out.DistributedAccepted)
	}
}

// POST /certify on a no-instance reports 422 (the honest prover refuses).
func TestCertifyNoInstance(t *testing.T) {
	ts := newTestServer(t)
	var out errorJSON
	resp := postJSON(t, ts.URL+"/certify", map[string]any{
		"scheme": "tree-mso",
		"params": map[string]any{"property": "perfect-matching"},
		"graph":  wire.GraphToJSON(graphgen.Path(7)),
	}, &out)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", resp.StatusCode)
	}
	if !strings.Contains(out.Error, "prove") {
		t.Fatalf("error = %q", out.Error)
	}
}

// POST /verify accepts the honest assignment and rejects a tampered one.
func TestVerifyEndpoint(t *testing.T) {
	ts := newTestServer(t)
	g := wire.GraphToJSON(graphgen.Path(8))
	var certified certifyResponse
	postJSON(t, ts.URL+"/certify", map[string]any{
		"scheme":               "tree-mso",
		"params":               map[string]any{"property": "perfect-matching"},
		"graph":                g,
		"include_certificates": true,
	}, &certified)

	var verified struct {
		Result wire.ResultJSON `json:"result"`
	}
	resp := postJSON(t, ts.URL+"/verify", map[string]any{
		"scheme":       "tree-mso",
		"params":       map[string]any{"property": "perfect-matching"},
		"graph":        g,
		"certificates": certified.Certificates,
	}, &verified)
	if resp.StatusCode != http.StatusOK || !verified.Result.Accepted {
		t.Fatalf("honest assignment rejected: status %d, %+v", resp.StatusCode, verified.Result)
	}

	// Flip one bit of one certificate: soundness demands a rejection.
	tampered := append([]string(nil), certified.Certificates...)
	flip := []byte(tampered[3])
	if flip[0] == '0' {
		flip[0] = '1'
	} else {
		flip[0] = '0'
	}
	tampered[3] = string(flip)
	postJSON(t, ts.URL+"/verify", map[string]any{
		"scheme":       "tree-mso",
		"params":       map[string]any{"property": "perfect-matching"},
		"graph":        g,
		"certificates": tampered,
	}, &verified)
	if verified.Result.Accepted {
		t.Fatal("tampered assignment accepted")
	}
}

// POST /batch proves and verifies 120 generated graphs through the
// worker pool, mixing explicit graphs, generators and scheme kinds.
func TestBatchEndpoint(t *testing.T) {
	ts := newTestServer(t)
	jobs := make([]map[string]any, 0, 120)
	for i := 0; i < 100; i++ {
		jobs = append(jobs, map[string]any{
			"scheme":    "tree-fo",
			"params":    map[string]any{"formula": "forall x. exists y. x ~ y"},
			"generator": map[string]any{"kind": "random-tree", "n": 16 + i%32, "seed": i},
		})
	}
	for i := 0; i < 10; i++ {
		jobs = append(jobs, map[string]any{
			"scheme":    "treedepth",
			"params":    map[string]any{"t": 4},
			"generator": map[string]any{"kind": "random-td", "n": 48, "t": 4, "seed": 100 + i},
		})
	}
	for i := 0; i < 10; i++ {
		jobs = append(jobs, map[string]any{
			"scheme": "tree-mso",
			"params": map[string]any{"property": "is-star"},
			"graph":  wire.GraphToJSON(graphgen.Star(10 + i)),
		})
	}
	var out struct {
		Stats   engine.BatchStats  `json:"stats"`
		WallNS  int64              `json:"wall_ns"`
		Results []engine.JobResult `json:"results"`
	}
	resp := postJSON(t, ts.URL+"/batch", map[string]any{"workers": 8, "jobs": jobs}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Stats.Jobs != len(jobs) || out.Stats.Accepted != len(jobs) {
		t.Fatalf("stats = %+v, want %d accepted", out.Stats, len(jobs))
	}
	for _, r := range out.Results {
		if r.Error != "" || !r.Accepted {
			t.Fatalf("job %d failed: %+v", r.Index, r)
		}
	}
	if out.WallNS <= 0 {
		t.Fatal("missing wall time")
	}

	// The compile cache must have served the repeated keys: 100 tree-fo
	// jobs share one compiled type automaton.
	var health struct {
		OK    bool         `json:"ok"`
		Cache engine.Stats `json:"cache"`
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if !health.OK {
		t.Fatal("healthz not ok")
	}
	// tree-fo and tree-mso cache (2 misses); treedepth jobs carry a
	// generator witness, so they bypass.
	if health.Cache.Misses != 2 || health.Cache.Hits < 100 || health.Cache.Bypasses != 10 {
		t.Fatalf("cache stats = %+v", health.Cache)
	}
}

// /batch serializes engine.JobResult as is. The literal is the JSON the
// endpoint has always emitted for a fully populated result — integer
// nanosecond phase timings, Err hidden behind its Error text — so a tag
// or type change on JobResult cannot silently change the wire shape.
func TestBatchJobResultJSON(t *testing.T) {
	res := engine.JobResult{
		Index: 3, Scheme: "tw-mso", Accepted: true, Rejecters: []int{1, 4},
		MaxBits: 57, TotalBits: 912,
		Generate: 1500 * time.Nanosecond, Compile: 2 * time.Millisecond,
		Decompose: 3 * time.Second, Prove: 4, Verify: 5,
		Distributed: true, Rounds: 1, Workers: 2,
		Sweep: &netsim.SweepReport{
			Stats: []netsim.TamperStat{{Tamper: "flip-bits-1", Trials: 4, NoOps: 1,
				Mutated: 3, Detected: 3, Rejecters: 6, VerifyNS: 700}},
			AllDetected: true,
		},
		SweepTime: 6,
		Err:       errors.New("boom"), Error: "boom",
	}
	got, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"index":3,"scheme":"tw-mso","accepted":true,"rejecters":[1,4],` +
		`"max_bits":57,"total_bits":912,"generate_ns":1500,"compile_ns":2000000,` +
		`"decompose_ns":3000000000,"prove_ns":4,"verify_ns":5,"distributed":true,` +
		`"rounds":1,"workers":2,` +
		`"sweep":{"stats":[{"tamper":"flip-bits-1","trials":4,"noops":1,"mutated":3,` +
		`"detected":3,"rejecters":6,"verify_ns":700}],"all_detected":true},` +
		`"sweep_ns":6,"error":"boom"}`
	if string(got) != want {
		t.Fatalf("JobResult JSON\n got %s\nwant %s", got, want)
	}
}

// POST /simulate runs the sharded network round as a served workload:
// honest proof, bounded workers, and — with a tamper spec — a full
// adversarial soundness sweep.
func TestSimulateEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var out simulateResponse
	resp := postJSON(t, ts.URL+"/simulate", map[string]any{
		"scheme":    "tree-mso",
		"params":    map[string]any{"property": "perfect-matching"},
		"generator": map[string]any{"kind": "path", "n": 64},
		"workers":   3,
	}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !out.Result.Accepted || out.Rounds != 1 {
		t.Fatalf("simulate = %+v", out)
	}
	if out.Workers != 3 {
		t.Fatalf("workers = %d, want the requested bound 3", out.Workers)
	}
	if out.Sweep != nil {
		t.Fatal("sweep present without a tamper spec")
	}
}

func TestSimulateWithTamperSweep(t *testing.T) {
	ts := newTestServer(t)
	var out simulateResponse
	// The universal scheme reads every certificate bit, so every mutating
	// tamper must be detected. (Witness-style schemes like treedepth can
	// legitimately accept a flipped bit as an alternative valid proof on
	// a yes-instance — see the E11 experiment notes.)
	resp := postJSON(t, ts.URL+"/simulate", map[string]any{
		"scheme":    "universal",
		"params":    map[string]any{"property": "connected"},
		"generator": map[string]any{"kind": "random-tree", "n": 40, "seed": 5},
		"tamper":    map[string]any{"kind": "all", "trials": 8, "seed": 2},
	}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !out.Result.Accepted {
		t.Fatalf("honest assignment rejected: %+v", out.Result)
	}
	if out.Sweep == nil || len(out.Sweep.Stats) == 0 {
		t.Fatal("missing sweep report")
	}
	mutated := 0
	for _, st := range out.Sweep.Stats {
		if st.Trials != 8 || st.NoOps+st.Mutated != st.Trials {
			t.Fatalf("inconsistent sweep accounting: %+v", st)
		}
		mutated += st.Mutated
	}
	if mutated == 0 {
		t.Fatal("sweep mutated nothing")
	}
	if !out.Sweep.AllDetected {
		t.Fatalf("universal scheme missed corruption: %+v", out.Sweep.Stats)
	}
}

// /simulate reports the round's shape from the job result itself: the
// requested worker bound, one exchange round, and the sweep's duration.
func TestSimulateRoundShapeFromResult(t *testing.T) {
	ts := newTestServer(t)
	var out simulateResponse
	resp := postJSON(t, ts.URL+"/simulate", map[string]any{
		"scheme":    "universal",
		"params":    map[string]any{"property": "connected"},
		"generator": map[string]any{"kind": "random-tree", "n": 40, "seed": 5},
		"workers":   2,
		"tamper":    map[string]any{"kind": "all", "trials": 4, "seed": 2},
	}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Workers != 2 || out.Rounds != 1 {
		t.Fatalf("round shape: workers=%d rounds=%d, want 2 and 1", out.Workers, out.Rounds)
	}
	if out.Sweep == nil || out.SweepNS <= 0 {
		t.Fatalf("sweep_ns = %d with sweep %v, want a positive sweep duration", out.SweepNS, out.Sweep)
	}
}

// /simulate referees submitted certificates too: a tampered assignment
// must be rejected with named rejecters.
func TestSimulateSubmittedCertificates(t *testing.T) {
	ts := newTestServer(t)
	// First obtain honest certificates via /certify.
	var cr certifyResponse
	resp := postJSON(t, ts.URL+"/certify", map[string]any{
		"scheme":               "tree-mso",
		"params":               map[string]any{"property": "is-star"},
		"graph":                wire.GraphToJSON(graphgen.Star(12)),
		"include_certificates": true,
	}, &cr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("certify status %d", resp.StatusCode)
	}
	var out simulateResponse
	resp = postJSON(t, ts.URL+"/simulate", map[string]any{
		"scheme":       "tree-mso",
		"params":       map[string]any{"property": "is-star"},
		"graph":        wire.GraphToJSON(graphgen.Star(12)),
		"certificates": cr.Certificates,
	}, &out)
	if resp.StatusCode != http.StatusOK || !out.Result.Accepted {
		t.Fatalf("honest certificates rejected: status %d, %+v", resp.StatusCode, out.Result)
	}
	// Truncate one certificate: the round must reject, and a tamper spec
	// on a rejected baseline must NOT produce a sweep (detection rates
	// against an already-invalid assignment would be meaningless).
	bad := append([]string(nil), cr.Certificates...)
	bad[3] = ""
	resp = postJSON(t, ts.URL+"/simulate", map[string]any{
		"scheme":       "tree-mso",
		"params":       map[string]any{"property": "is-star"},
		"graph":        wire.GraphToJSON(graphgen.Star(12)),
		"certificates": bad,
		"tamper":       map[string]any{"kind": "all", "trials": 5},
	}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Result.Accepted || len(out.Result.Rejecters) == 0 {
		t.Fatalf("tampered certificates accepted: %+v", out.Result)
	}
	if out.Sweep != nil {
		t.Fatal("sweep ran against a rejected baseline")
	}
}

func TestSimulateBadTamper(t *testing.T) {
	ts := newTestServer(t)
	var out errorJSON
	resp := postJSON(t, ts.URL+"/simulate", map[string]any{
		"scheme":    "tree-mso",
		"params":    map[string]any{"property": "is-star"},
		"generator": map[string]any{"kind": "star", "n": 8},
		"tamper":    map[string]any{"kind": "melt"},
	}, &out)
	if resp.StatusCode != http.StatusBadRequest || out.Error == "" {
		t.Fatalf("status %d, error %q", resp.StatusCode, out.Error)
	}
}

// The batch-level tamper field sweeps every accepted job and aggregates
// detection statistics into the batch stats.
func TestBatchTamperField(t *testing.T) {
	ts := newTestServer(t)
	jobs := make([]map[string]any, 12)
	for i := range jobs {
		// The universal scheme reads every certificate bit (whole-graph
		// description at every vertex), so every mutating tamper is
		// detectable — the sweep must report a 100% detection rate.
		jobs[i] = map[string]any{
			"scheme":    "universal",
			"params":    map[string]any{"property": "connected"},
			"generator": map[string]any{"kind": "random-tree", "n": 20, "seed": i},
		}
	}
	var out struct {
		Stats   engine.BatchStats  `json:"stats"`
		Results []engine.JobResult `json:"results"`
	}
	resp := postJSON(t, ts.URL+"/batch", map[string]any{
		"jobs":        jobs,
		"distributed": true,
		"tamper":      map[string]any{"kind": "all", "trials": 4, "seed": 9},
	}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Stats.Accepted != len(jobs) {
		t.Fatalf("stats = %+v", out.Stats)
	}
	if out.Stats.SweepMutated == 0 || out.Stats.SweepDetected != out.Stats.SweepMutated {
		t.Fatalf("batch sweep stats: %+v", out.Stats)
	}
	for _, r := range out.Results {
		if !r.Distributed || r.Sweep == nil {
			t.Fatalf("job %d missing distributed sweep: %+v", r.Index, r)
		}
		if r.Rounds != 1 || r.Workers == 0 || r.SweepTime <= 0 {
			t.Fatalf("job %d round shape: rounds=%d workers=%d sweep_ns=%d", r.Index, r.Rounds, r.Workers, r.SweepTime)
		}
		if !r.Sweep.AllDetected {
			t.Fatalf("job %d: undetected corruption: %+v", r.Index, r.Sweep.Stats)
		}
	}
}

func TestBatchBadTamper(t *testing.T) {
	ts := newTestServer(t)
	var out errorJSON
	resp := postJSON(t, ts.URL+"/batch", map[string]any{
		"jobs": []map[string]any{{
			"scheme":    "tree-mso",
			"params":    map[string]any{"property": "is-star"},
			"generator": map[string]any{"kind": "star", "n": 8},
		}},
		"tamper": map[string]any{"kind": "flip-bits", "trials": -3},
	}, &out)
	if resp.StatusCode != http.StatusBadRequest || out.Error == "" {
		t.Fatalf("status %d, error %q", resp.StatusCode, out.Error)
	}
}

// Generator witnesses are only attached to schemes that can use them:
// a witness-less scheme on generated graphs stays cacheable.
func TestBatchWitnessGating(t *testing.T) {
	ts := newTestServer(t)
	jobs := make([]map[string]any, 20)
	for i := range jobs {
		jobs[i] = map[string]any{
			"scheme":    "existential-fo",
			"params":    map[string]any{"formula": "exists x. exists y. x ~ y"},
			"generator": map[string]any{"kind": "random-td", "n": 24, "t": 3, "seed": i},
		}
	}
	var out struct {
		Stats engine.BatchStats `json:"stats"`
	}
	resp := postJSON(t, ts.URL+"/batch", map[string]any{"jobs": jobs}, &out)
	if resp.StatusCode != http.StatusOK || out.Stats.Accepted != len(jobs) {
		t.Fatalf("status %d, stats %+v", resp.StatusCode, out.Stats)
	}
	var health struct {
		Cache engine.Stats `json:"cache"`
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Cache.Bypasses != 0 || health.Cache.Misses != 1 || health.Cache.Hits != int64(len(jobs)-1) {
		t.Fatalf("witness gating failed, cache stats = %+v", health.Cache)
	}
}

// Malformed requests are rejected with 400 and a JSON error.
func TestBadRequests(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		path string
		body map[string]any
	}{
		{"/certify", map[string]any{"scheme": "tree-mso"}},                                 // no graph
		{"/certify", map[string]any{"scheme": "nope", "graph": map[string]any{"n": 1}}},    // unknown scheme
		{"/certify", map[string]any{"unknown_field": 1}},                                   // strict decoding
		{"/batch", map[string]any{"jobs": []any{}}},                                        // empty batch
		{"/verify", map[string]any{"scheme": "tree-mso", "graph": map[string]any{"n": 2}}}, // missing property
		{"/certify", map[string]any{"scheme": "tree-mso", "params": map[string]any{"property": "perfect-matching"}, "graph": map[string]any{"n": 2}, "generator": map[string]any{"kind": "path", "n": 2}}}, // both graph and generator
	}
	for i, tc := range cases {
		var out errorJSON
		resp := postJSON(t, ts.URL+tc.path, tc.body, &out)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("case %d (%s): status %d, want 400 (error %q)", i, tc.path, resp.StatusCode, out.Error)
		}
		if out.Error == "" {
			t.Fatalf("case %d: empty error message", i)
		}
	}
}

// TestGraphSourceErrors pins the exact 400 text for a request naming both
// a graph and a generator, or neither, on every endpoint that takes one.
func TestGraphSourceErrors(t *testing.T) {
	ts := newTestServer(t)
	job := func(graph, generator bool) map[string]any {
		j := map[string]any{"scheme": "tree-mso", "params": map[string]any{"property": "perfect-matching"}}
		if graph {
			j["graph"] = wire.GraphToJSON(graphgen.Path(2))
		}
		if generator {
			j["generator"] = map[string]any{"kind": "path", "n": 2}
		}
		return j
	}
	source := func(graph, generator bool) map[string]any {
		j := job(graph, generator)
		delete(j, "scheme")
		delete(j, "params")
		return j
	}
	cases := []struct {
		path string
		body map[string]any
		want string
	}{
		{"/certify", job(true, true), "job has both a graph and a generator"},
		{"/certify", job(false, false), "job has neither a graph nor a generator"},
		{"/batch", map[string]any{"jobs": []any{job(true, true)}}, "job 0: has both a graph and a generator"},
		{"/batch", map[string]any{"jobs": []any{job(true, false), job(false, false)}}, "job 1: has neither a graph nor a generator"},
		{"/decompose", source(true, true), "request has both a graph and a generator"},
		{"/decompose", source(false, false), "request has neither a graph nor a generator"},
	}
	for _, tc := range cases {
		var out errorJSON
		resp := postJSON(t, ts.URL+tc.path, tc.body, &out)
		if resp.StatusCode != http.StatusBadRequest || out.Error != tc.want {
			t.Errorf("%s %v: status %d error %q, want 400 %q", tc.path, tc.body, resp.StatusCode, out.Error, tc.want)
		}
	}
}

// Oversized batches are refused before any work happens.
func TestBatchLimit(t *testing.T) {
	ts := newTestServer(t)
	jobs := make([]map[string]any, maxBatchJobs+1)
	for i := range jobs {
		jobs[i] = map[string]any{
			"scheme":    "tree-mso",
			"params":    map[string]any{"property": "is-star"},
			"generator": map[string]any{"kind": "star", "n": 4},
		}
	}
	var out errorJSON
	resp := postJSON(t, ts.URL+"/batch", map[string]any{"jobs": jobs}, &out)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(out.Error, fmt.Sprint(maxBatchJobs)) {
		t.Fatalf("error = %q", out.Error)
	}
}

// Method mismatches 404/405 through the method-aware mux patterns.
func TestMethodRouting(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/certify")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("GET /certify should not succeed")
	}
}

// POST /decompose computes a served decomposition for explicit graphs and
// generator specs, across every method.
func TestDecomposeEndpoint(t *testing.T) {
	ts := newTestServer(t)
	for _, method := range []string{"auto", "min-fill", "min-degree", "exact"} {
		var out decomposeResponse
		resp := postJSON(t, ts.URL+"/decompose", map[string]any{
			"generator": map[string]any{"kind": "partial-k-tree", "n": 20, "t": 2, "seed": 3},
			"method":    method,
			"nice":      true,
		}, &out)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", method, resp.StatusCode)
		}
		if !out.Valid {
			t.Fatalf("%s: served decomposition invalid: %+v", method, out)
		}
		if out.Width < 1 || out.Width > 2 {
			t.Fatalf("%s: width %d for a partial 2-tree", method, out.Width)
		}
		if out.Bags == 0 || out.NiceNodes == 0 {
			t.Fatalf("%s: empty decomposition report: %+v", method, out)
		}
	}
	// Explicit graph with the bags echoed back.
	var out decomposeResponse
	resp := postJSON(t, ts.URL+"/decompose", map[string]any{
		"graph":                 wire.GraphToJSON(graphgen.Cycle(8)),
		"include_decomposition": true,
	}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Method != "auto" || out.Width != 2 || out.Decomposition == nil {
		t.Fatalf("cycle decomposition: %+v", out)
	}
	if len(out.Decomposition.Bags) != out.Bags {
		t.Fatalf("echoed %d bags, reported %d", len(out.Decomposition.Bags), out.Bags)
	}
}

func TestDecomposeBadRequests(t *testing.T) {
	ts := newTestServer(t)
	cases := []map[string]any{
		{},
		{"graph": wire.GraphToJSON(graphgen.Path(3)), "generator": map[string]any{"kind": "path", "n": 3}},
		{"graph": wire.GraphToJSON(graphgen.Path(3)), "method": "magic"},
	}
	for i, body := range cases {
		resp := postJSON(t, ts.URL+"/decompose", body, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("case %d: status %d, want 400", i, resp.StatusCode)
		}
	}
	// Exact beyond its limit is unprocessable, not a panic.
	resp := postJSON(t, ts.URL+"/decompose", map[string]any{
		"generator": map[string]any{"kind": "path", "n": 64},
		"method":    "exact",
	}, nil)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("exact on n=64: status %d, want 422", resp.StatusCode)
	}
}

// tw-mso is served end to end: /schemes lists it, /certify proves and
// verifies it (sequentially and distributed), and the generator's
// decomposition witness reaches the prover.
func TestCertifyTreewidthMSO(t *testing.T) {
	ts := newTestServer(t)
	var listing struct {
		Schemes []registry.Info `json:"schemes"`
	}
	resp, err := http.Get(ts.URL + "/schemes")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	found := false
	for _, info := range listing.Schemes {
		if info.Name == "tw-mso" {
			found = true
			if !info.UsesDecomposition || len(info.Enum) == 0 {
				t.Fatalf("tw-mso metadata incomplete: %+v", info)
			}
		}
	}
	if !found {
		t.Fatal("/schemes does not list tw-mso")
	}
	var out certifyResponse
	resp2 := postJSON(t, ts.URL+"/certify", map[string]any{
		"scheme":      "tw-mso",
		"params":      map[string]any{"property": "2-colorable", "t": 3},
		"generator":   map[string]any{"kind": "k-tree", "n": 2, "t": 1, "seed": 1},
		"distributed": true,
	}, &out)
	// A 1-tree on 2 vertices is an edge: 2-colorable, width 1.
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp2.StatusCode)
	}
	var out3 certifyResponse
	resp3 := postJSON(t, ts.URL+"/certify", map[string]any{
		"scheme":      "tw-mso",
		"params":      map[string]any{"property": "3-colorable", "t": 2},
		"generator":   map[string]any{"kind": "partial-k-tree", "n": 40, "t": 2, "seed": 7},
		"distributed": true,
	}, &out3)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp3.StatusCode)
	}
	if !out3.Result.Accepted || out3.DistributedAccepted == nil || !*out3.DistributedAccepted {
		t.Fatalf("tw-mso certify: %+v", out3)
	}
	if out3.Result.MaxBits == 0 {
		t.Fatal("tw-mso produced empty certificates")
	}
}

// A tw-mso batch over one generator spec reuses the compiled scheme and
// the decomposition across jobs, visible in /healthz.
func TestBatchTreewidthDecompositionReuse(t *testing.T) {
	ts := newTestServer(t)
	job := map[string]any{
		"scheme": "tw-mso",
		"params": map[string]any{"property": "tw-bound", "t": 2},
		"graph":  wire.GraphToJSON(graphgen.Cycle(30)),
	}
	var out struct {
		Stats   engine.BatchStats  `json:"stats"`
		Results []engine.JobResult `json:"results"`
	}
	resp := postJSON(t, ts.URL+"/batch", map[string]any{
		"workers": 4,
		"jobs":    []any{job, job, job, job},
	}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Stats.Accepted != 4 {
		t.Fatalf("batch stats: %+v", out.Stats)
	}
	var health struct {
		OK      bool               `json:"ok"`
		Decomps engine.DecompStats `json:"decompositions"`
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if health.Decomps.Misses != 1 || health.Decomps.Hits != 3 {
		t.Fatalf("decomposition cache stats = %+v, want 1 miss / 3 hits", health.Decomps)
	}
}

// /simulate runs tw-mso on the sharded simulator and the adversarial
// sweep — including the decomposition-aware corrupt-bag tampers — detects
// every mutating corruption.
func TestSimulateTreewidthSweep(t *testing.T) {
	ts := newTestServer(t)
	var out simulateResponse
	resp := postJSON(t, ts.URL+"/simulate", map[string]any{
		"scheme":    "tw-mso",
		"params":    map[string]any{"property": "tw-bound", "t": 2},
		"generator": map[string]any{"kind": "partial-k-tree", "n": 32, "t": 2, "seed": 11},
		"workers":   3,
		"tamper":    map[string]any{"kind": "all", "trials": 12, "seed": 5},
	}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !out.Result.Accepted {
		t.Fatalf("honest tw-mso round rejected: %+v", out.Result)
	}
	if out.Sweep == nil || !out.Sweep.AllDetected {
		t.Fatalf("sweep missed corruption: %+v", out.Sweep)
	}
	kinds := map[string]bool{}
	mutated := 0
	for _, st := range out.Sweep.Stats {
		kinds[st.Tamper] = true
		mutated += st.Mutated
	}
	if !kinds["corrupt-bag-id"] || !kinds["corrupt-bag-contents"] {
		t.Fatalf("sweep did not include the decomposition-aware tampers: %+v", kinds)
	}
	if mutated == 0 {
		t.Fatal("sweep mutated nothing")
	}
	// Dedicated corrupt-bag sweep.
	var bagOut simulateResponse
	resp2 := postJSON(t, ts.URL+"/simulate", map[string]any{
		"scheme":    "tw-mso",
		"params":    map[string]any{"property": "3-colorable", "t": 2},
		"generator": map[string]any{"kind": "partial-k-tree", "n": 24, "t": 2, "seed": 2},
		"tamper":    map[string]any{"kind": "corrupt-bag", "trials": 15, "seed": 9},
	}, &bagOut)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp2.StatusCode)
	}
	if bagOut.Sweep == nil || !bagOut.Sweep.AllDetected {
		t.Fatalf("corrupt-bag sweep missed corruption: %+v", bagOut.Sweep)
	}
	for _, st := range bagOut.Sweep.Stats {
		if st.Mutated == 0 {
			t.Fatalf("tamper %s never mutated a tw-mso assignment", st.Tamper)
		}
	}
}

// TestCertifyWithFormula drives the formula-first pipeline end to end over
// HTTP: sentences in no enum certify through /certify, and the E11-style
// adversarial sweep on /simulate detects 100% of mutating corruptions.
func TestCertifyWithFormula(t *testing.T) {
	ts := newTestServer(t)

	// Triangle-freeness on a bounded-width instance (tw-mso, EMSO path).
	var tri struct {
		Scheme string          `json:"scheme"`
		Result wire.ResultJSON `json:"result"`
	}
	resp := postJSON(t, ts.URL+"/certify", map[string]any{
		"scheme":    "tw-mso",
		"params":    map[string]any{"formula": "forall x. forall y. forall z. !(x ~ y & y ~ z & x ~ z)", "t": 2},
		"generator": map[string]any{"kind": "cycle", "n": 24},
	}, &tri)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tw-mso formula certify: status %d", resp.StatusCode)
	}
	if !tri.Result.Accepted {
		t.Fatalf("triangle-freeness proof rejected: %+v", tri.Result)
	}
	if !strings.Contains(tri.Scheme, "tw-mso") {
		t.Fatalf("unexpected scheme name %q", tri.Scheme)
	}

	// HasDominatingVertex (universal, model-checking path).
	var dom struct {
		Result wire.ResultJSON `json:"result"`
	}
	resp = postJSON(t, ts.URL+"/certify", map[string]any{
		"scheme":    "universal",
		"params":    map[string]any{"formula": "exists x. forall y. x = y | x ~ y"},
		"generator": map[string]any{"kind": "star", "n": 12},
	}, &dom)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("universal formula certify: status %d", resp.StatusCode)
	}
	if !dom.Result.Accepted {
		t.Fatalf("dominating-vertex proof rejected: %+v", dom.Result)
	}

	// A no-instance must 422 (nothing to certify).
	resp = postJSON(t, ts.URL+"/certify", map[string]any{
		"scheme":    "universal",
		"params":    map[string]any{"formula": "exists x. forall y. x = y | x ~ y"},
		"generator": map[string]any{"kind": "path", "n": 8},
	}, nil)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("no-instance formula certify: status %d, want 422", resp.StatusCode)
	}
}

// TestSimulateFormulaTamperSweep asserts 100% detection for the two
// novel formula workloads under the full adversary family.
func TestSimulateFormulaTamperSweep(t *testing.T) {
	ts := newTestServer(t)
	cases := []map[string]any{
		{
			"scheme":    "tw-mso",
			"params":    map[string]any{"formula": "forall x. forall y. forall z. !(x ~ y & y ~ z & x ~ z)", "t": 2},
			"generator": map[string]any{"kind": "cycle", "n": 20},
			"tamper":    map[string]any{"kind": "all", "trials": 12, "seed": 9},
		},
		{
			"scheme":    "universal",
			"params":    map[string]any{"formula": "exists x. forall y. x = y | x ~ y"},
			"generator": map[string]any{"kind": "star", "n": 10},
			"tamper":    map[string]any{"kind": "all", "trials": 12, "seed": 9},
		},
	}
	for i, req := range cases {
		var out struct {
			Result wire.ResultJSON `json:"result"`
			Sweep  *struct {
				AllDetected bool `json:"all_detected"`
				Stats       []struct {
					Tamper     string `json:"tamper"`
					Mutated    int    `json:"mutated"`
					Detected   int    `json:"detected"`
					Undetected []int  `json:"undetected,omitempty"`
				} `json:"stats"`
			} `json:"sweep"`
		}
		resp := postJSON(t, ts.URL+"/simulate", req, &out)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("case %d: status %d", i, resp.StatusCode)
		}
		if !out.Result.Accepted {
			t.Fatalf("case %d: honest round rejected", i)
		}
		if out.Sweep == nil {
			t.Fatalf("case %d: no sweep in response", i)
		}
		if !out.Sweep.AllDetected {
			t.Fatalf("case %d: corrupted assignment accepted: %+v", i, out.Sweep.Stats)
		}
		for _, st := range out.Sweep.Stats {
			if st.Mutated != st.Detected {
				t.Fatalf("case %d: tamper %s: %d/%d detected", i, st.Tamper, st.Detected, st.Mutated)
			}
		}
	}
}

// TestFormulaHostileInputsRejected exercises the wire-level guards on
// every formula-accepting endpoint.
func TestFormulaHostileInputsRejected(t *testing.T) {
	ts := newTestServer(t)
	hostile := []string{
		strings.Repeat("(", 4000) + "x = x" + strings.Repeat(")", 4000),
		strings.Repeat("!", 9000) + "x = x",
		"x ~ y",        // not a sentence
		"forall x. (",  // malformed
		"\x00\xff\xfe", // bytes that once hung the tokenizer
	}
	for _, f := range hostile {
		resp := postJSON(t, ts.URL+"/certify", map[string]any{
			"scheme":    "tree-mso",
			"params":    map[string]any{"formula": f},
			"generator": map[string]any{"kind": "path", "n": 4},
		}, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("hostile formula %q: status %d, want 400", f[:min(len(f), 12)], resp.StatusCode)
		}
		resp = postJSON(t, ts.URL+"/batch", map[string]any{
			"jobs": []map[string]any{{
				"scheme":    "tree-mso",
				"params":    map[string]any{"formula": f},
				"generator": map[string]any{"kind": "path", "n": 4},
			}},
		}, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("hostile batch formula: status %d, want 400", resp.StatusCode)
		}
	}
}

// TestHealthzFormulaStats checks that the canonicalization memo surfaces
// in /healthz and moves when formula requests arrive.
func TestHealthzFormulaStats(t *testing.T) {
	ts := newTestServer(t)
	for i := 0; i < 2; i++ {
		postJSON(t, ts.URL+"/certify", map[string]any{
			"scheme":    "tree-mso",
			"params":    map[string]any{"formula": "forall x. exists y. x ~ y"},
			"generator": map[string]any{"kind": "path", "n": 6},
		}, nil)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		OK       bool                `json:"ok"`
		Formulas engine.FormulaStats `json:"formulas"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !body.OK {
		t.Fatal("healthz not ok")
	}
	if body.Formulas.Misses < 1 || body.Formulas.Hits < 1 {
		t.Fatalf("formula stats did not move: %+v", body.Formulas)
	}
}

// stuckProver is a stub scheme whose prover fails with the EMSO DP's
// typed traceback error, letting the handler test exercise the error
// mapping without manufacturing a genuinely corrupted DP table.
type stuckProver struct{}

func (stuckProver) Name() string                       { return "stuck-dp" }
func (stuckProver) Holds(g *graph.Graph) (bool, error) { return true, nil }
func (stuckProver) Verify(v cert.View) bool            { return true }
func (stuckProver) Prove(g *graph.Graph) (cert.Assignment, error) {
	return nil, fmt.Errorf("solving: %w", &treewidth.TracebackError{
		Node: 17, Kind: treewidth.KindForget, Bag: []int{2, 5, 9},
	})
}

// TestCertifyTracebackErrorDiagnosable pins the /certify contract for
// EMSO DP traceback failures: a 500 (internal invariant violation, not a
// client error) whose body carries the node kind and bag, so the failure
// is diagnosable from the response alone.
func TestCertifyTracebackErrorDiagnosable(t *testing.T) {
	reg := registry.New()
	reg.MustRegister(registry.Entry{
		Info:  registry.Info{Name: "stuck-dp", Summary: "test stub"},
		Build: func(registry.Params) (cert.Scheme, error) { return stuckProver{}, nil },
	})
	ts := httptest.NewServer(newServer(reg, 1).routes())
	defer ts.Close()
	var body struct {
		Error     string `json:"error"`
		Traceback *struct {
			Node int    `json:"node"`
			Kind string `json:"kind"`
			Bag  []int  `json:"bag"`
		} `json:"traceback"`
	}
	resp := postJSON(t, ts.URL+"/certify", map[string]any{
		"scheme": "stuck-dp",
		"graph":  wire.GraphToJSON(graphgen.Path(4)),
	}, &body)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	if !strings.Contains(body.Error, "traceback stuck at forget node 17") {
		t.Fatalf("error text not diagnosable: %q", body.Error)
	}
	tb := body.Traceback
	if tb == nil || tb.Node != 17 || tb.Kind != "forget" || len(tb.Bag) != 3 || tb.Bag[1] != 5 {
		t.Fatalf("structured traceback missing or wrong: %+v", tb)
	}
	// Ordinary prove failures keep the 422 contract: a 2-tree is packed
	// with triangles, so certifying triangle-freeness has nothing to
	// prove — a property of the input, not a server bug.
	ts2 := newTestServer(t)
	var plain struct {
		Error     string          `json:"error"`
		Traceback json.RawMessage `json:"traceback"`
	}
	resp = postJSON(t, ts2.URL+"/certify", map[string]any{
		"scheme":    "tw-mso",
		"params":    map[string]any{"formula": "forall x. forall y. forall z. !(x ~ y & y ~ z & x ~ z)", "t": 2},
		"generator": map[string]any{"kind": "k-tree", "n": 8, "t": 2, "seed": 1},
	}, &plain)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("ordinary prove failure: status %d, want 422", resp.StatusCode)
	}
	if len(plain.Traceback) != 0 {
		t.Fatalf("ordinary prove failure carried a traceback: %s", plain.Traceback)
	}
}
