package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/cert"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/graphgen"
	"repro/internal/registry"
	"repro/internal/wire"
)

// mixRequest is one service-mix request: its endpoint and body, how to
// check the answer, and the jobs the traced pass runs for it.
type mixRequest struct {
	// name identifies a /certify template, for cert_mean_bits.
	name  string
	path  string
	body  []byte
	check func(data []byte) (mixAnswer, error)
	jobs  []job
}

// mixAnswer is what a checked answer contributes to the metrics.
type mixAnswer struct {
	// certify is set for /certify answers, which carry the phase fields
	// and the certificate sizes; n is then the graph's vertex count.
	certify *phaseResponse
	n       int
}

// mix holds the prepared requests of service-mix. Graphs have 16 to 512
// vertices: per-request overhead (HTTP and JSON, admission, the compile
// cache, server-side generation, netsim) dominates, not the layers the
// large workloads stress.
type mix struct {
	seed int64
	// The requests built once per set-up, by endpoint; next chooses
	// among the groups by mixWeights.
	certify, verify, simulate, batch []mixRequest
}

// Request weights out of 8: JSON /certify on prepared generator specs
// (2) and on fresh tw-mso graphs (2), /verify (2), /simulate (1),
// /batch (1).
const mixWeights = 8

// next draws client c's i-th request. The tw-mso certify requests carry
// an explicit graph generated from a fresh seed, so the server has no
// witness and its decomposition cache misses: small-n decomposition does
// real work on every one of them.
func (m *mix) next(rng *rand.Rand, c, i int) (mixRequest, error) {
	switch w := rng.Intn(mixWeights); {
	case w < 2:
		return m.certify[rng.Intn(len(m.certify))], nil
	case w < 4:
		return twCertify(subSeed(m.seed, streamMixClient, c<<32|i), w == 2)
	case w < 6:
		return m.verify[rng.Intn(len(m.verify))], nil
	case w < 7:
		return m.simulate[rng.Intn(len(m.simulate))], nil
	default:
		return m.batch[rng.Intn(len(m.batch))], nil
	}
}

// paramsJSON and jobJSON mirror the server's request shapes.
type paramsJSON struct {
	Property string `json:"property,omitempty"`
	T        int    `json:"t,omitempty"`
}

type jobJSON struct {
	Scheme    string              `json:"scheme"`
	Params    paramsJSON          `json:"params"`
	Graph     *wire.GraphJSON     `json:"graph,omitempty"`
	Generator *wire.GeneratorSpec `json:"generator,omitempty"`
}

func toParams(p paramsJSON) registry.Params { return registry.Params{Property: p.Property, T: p.T} }

func specBuild(spec wire.GeneratorSpec) func() (*graph.Graph, error) {
	return func() (*graph.Graph, error) {
		g, _, err := spec.Build()
		return g, err
	}
}

// twCertify builds a /certify request over a fresh partial k-tree:
// tw-bound on a partial 3-tree (t=4), or 3-colorable on a partial 2-tree
// (t=3). The bound leaves one above the generator's k for the heuristic.
func twCertify(seed int64, threeColor bool) (mixRequest, error) {
	rng := rand.New(rand.NewSource(seed))
	k, keep, p := 3, 0.7, paramsJSON{Property: "tw-bound", T: 4}
	if threeColor {
		k, keep, p = 2, 0.8, paramsJSON{Property: "3-colorable", T: 3}
	}
	n := 16 + rng.Intn(512-16+1)
	build := func() (*graph.Graph, error) {
		g, _ := graphgen.PartialKTree(n, k, keep, rand.New(rand.NewSource(seed)))
		return g, nil
	}
	g, _ := build()
	gj := wire.GraphToJSON(g)
	return certifyRequest("tw-mso/"+p.Property, jobJSON{Scheme: "tw-mso", Params: p, Graph: &gj}, n, build)
}

func certifyRequest(name string, j jobJSON, n int, build func() (*graph.Graph, error)) (mixRequest, error) {
	body, err := json.Marshal(j)
	if err != nil {
		return mixRequest{}, fmt.Errorf("marshal certify body: %w", err)
	}
	return mixRequest{
		name: name,
		path: "/certify",
		body: body,
		check: func(data []byte) (mixAnswer, error) {
			var r phaseResponse
			if err := json.Unmarshal(data, &r); err != nil {
				return mixAnswer{}, err
			}
			if !r.Result.Accepted {
				return mixAnswer{}, errors.New("certificate rejected")
			}
			return mixAnswer{certify: &r, n: n}, nil
		},
		jobs: []job{{scheme: j.Scheme, params: toParams(j.Params), build: build}},
	}, nil
}

// refereeCase is a graph and scheme whose honest and tampered
// certificates the benchmark proves and referees in process; the server
// must reach the same verdicts on /verify (sequential) and /simulate
// (the distributed round).
type refereeCase struct {
	scheme string
	params paramsJSON
	spec   wire.GeneratorSpec
}

// refereeBodies proves c's graph in process, tampers one certificate
// bit, and returns /verify or /simulate requests for both assignments,
// each expecting the in-process sequential verdict and rejecters.
func refereeBodies(cache *engine.Cache, c refereeCase, path string, rng *rand.Rand) ([]mixRequest, error) {
	g, err := specBuild(c.spec)()
	if err != nil {
		return nil, err
	}
	scheme, err := cache.GetOrCompile(c.scheme, toParams(c.params))
	if err != nil {
		return nil, err
	}
	honest, err := scheme.Prove(g)
	if err != nil {
		return nil, fmt.Errorf("prove %s on %s: %w", c.scheme, c.spec.Kind, err)
	}
	tampered, changed := cert.FlipBits(1).Apply(honest, rng)
	if !changed {
		return nil, fmt.Errorf("tamper of %s on %s changed nothing", c.scheme, c.spec.Kind)
	}
	workers := 0
	if path == "/simulate" {
		workers = 2
	}
	var out []mixRequest
	for _, a := range []cert.Assignment{honest, tampered} {
		want, err := cert.RunSequential(g, scheme, a)
		if err != nil {
			return nil, err
		}
		j := jobJSON{Scheme: c.scheme, Params: c.params}
		if path == "/verify" {
			gj := wire.GraphToJSON(g)
			j.Graph = &gj
		} else {
			spec := c.spec
			j.Generator = &spec
		}
		body, err := json.Marshal(struct {
			jobJSON
			Certificates []string `json:"certificates"`
			Workers      int      `json:"workers,omitempty"`
		}{j, wire.AssignmentToStrings(a), workers})
		if err != nil {
			return nil, fmt.Errorf("marshal %s body: %w", path, err)
		}
		out = append(out, mixRequest{
			path: path,
			body: body,
			check: func(data []byte) (mixAnswer, error) {
				var r struct {
					Result wire.ResultJSON `json:"result"`
				}
				if err := json.Unmarshal(data, &r); err != nil {
					return mixAnswer{}, err
				}
				if r.Result.Accepted != want.Accepted || !slices.Equal(r.Result.Rejecters, want.Rejecters) {
					return mixAnswer{}, fmt.Errorf("verdict accepted=%v rejecters=%v, in-process referee says accepted=%v rejecters=%v",
						r.Result.Accepted, r.Result.Rejecters, want.Accepted, want.Rejecters)
				}
				return mixAnswer{}, nil
			},
			jobs: []job{{scheme: c.scheme, params: toParams(c.params), build: specBuild(c.spec)}},
		})
	}
	return out, nil
}

// batchRequest builds a /batch request over generator specs; every job
// must be accepted.
func batchRequest(jobs []jobJSON) (mixRequest, error) {
	body, err := json.Marshal(map[string]any{"workers": 2, "jobs": jobs})
	if err != nil {
		return mixRequest{}, fmt.Errorf("marshal batch body: %w", err)
	}
	r := mixRequest{
		path: "/batch",
		body: body,
		check: func(data []byte) (mixAnswer, error) {
			var r struct {
				Results []struct {
					Accepted bool   `json:"accepted"`
					Error    string `json:"error"`
				} `json:"results"`
			}
			if err := json.Unmarshal(data, &r); err != nil {
				return mixAnswer{}, err
			}
			if len(r.Results) != len(jobs) {
				return mixAnswer{}, fmt.Errorf("%d results for %d jobs", len(r.Results), len(jobs))
			}
			for i, res := range r.Results {
				if !res.Accepted || res.Error != "" {
					return mixAnswer{}, fmt.Errorf("job %d: accepted=%v error=%q", i, res.Accepted, res.Error)
				}
			}
			return mixAnswer{}, nil
		},
	}
	for _, j := range jobs {
		r.jobs = append(r.jobs, job{scheme: j.Scheme, params: toParams(j.Params), build: specBuild(*j.Generator)})
	}
	return r, nil
}

func gen(kind string, n, t int, seed int64) *wire.GeneratorSpec {
	return &wire.GeneratorSpec{Kind: kind, N: n, T: t, Seed: seed}
}

// newMix builds the prepared requests, proving the /verify and
// /simulate certificates in process.
func newMix(seed int64) (*mix, error) {
	m := &mix{seed: seed}
	s := func(i int) int64 { return subSeed(seed, streamMixInputs, i) }
	for i, j := range []jobJSON{
		{Scheme: "tree-mso", Params: paramsJSON{Property: "perfect-matching"}, Generator: gen("path", 64, 0, 0)},
		{Scheme: "tree-mso", Params: paramsJSON{Property: "perfect-matching"}, Generator: gen("path", 512, 0, 0)},
		{Scheme: "tree-mso", Params: paramsJSON{Property: "max-degree-<=2"}, Generator: gen("path", 256, 0, 0)},
		{Scheme: "tree-mso", Params: paramsJSON{Property: "is-star"}, Generator: gen("star", 32, 0, 0)},
		{Scheme: "universal", Params: paramsJSON{Property: "connected"}, Generator: gen("random-tree", 48, 0, s(0))},
		{Scheme: "universal", Params: paramsJSON{Property: "is-tree"}, Generator: gen("random-tree", 96, 0, s(1))},
		{Scheme: "universal", Params: paramsJSON{Property: "diameter-<=2"}, Generator: gen("star", 64, 0, 0)},
	} {
		r, err := certifyRequest(fmt.Sprint("static-", i), j, j.Generator.N, specBuild(*j.Generator))
		if err != nil {
			return nil, err
		}
		m.certify = append(m.certify, r)
	}

	cache := engine.NewCache(registry.Default())
	cache.Decomps = engine.NewDecompCache()
	rng := rand.New(rand.NewSource(s(2)))
	for _, c := range []refereeCase{
		{"tree-mso", paramsJSON{Property: "perfect-matching"}, *gen("path", 64, 0, 0)},
		{"universal", paramsJSON{Property: "connected"}, *gen("random-tree", 48, 0, s(3))},
		{"tw-mso", paramsJSON{Property: "tw-bound", T: 3}, *gen("partial-k-tree", 128, 2, s(4))},
	} {
		rs, err := refereeBodies(cache, c, "/verify", rng)
		if err != nil {
			return nil, err
		}
		m.verify = append(m.verify, rs...)
	}
	for _, c := range []refereeCase{
		{"tree-mso", paramsJSON{Property: "perfect-matching"}, *gen("path", 128, 0, 0)},
		{"universal", paramsJSON{Property: "connected"}, *gen("random-tree", 64, 0, s(5))},
	} {
		rs, err := refereeBodies(cache, c, "/simulate", rng)
		if err != nil {
			return nil, err
		}
		m.simulate = append(m.simulate, rs...)
	}
	for _, jobs := range [][]jobJSON{
		{
			{Scheme: "tree-mso", Params: paramsJSON{Property: "perfect-matching"}, Generator: gen("path", 16, 0, 0)},
			{Scheme: "tree-mso", Params: paramsJSON{Property: "max-degree-<=2"}, Generator: gen("path", 64, 0, 0)},
			{Scheme: "tw-mso", Params: paramsJSON{Property: "tw-bound", T: 2}, Generator: gen("partial-k-tree", 24, 2, s(6))},
			{Scheme: "universal", Params: paramsJSON{Property: "connected"}, Generator: gen("random-tree", 24, 0, s(7))},
		},
		{
			{Scheme: "tw-mso", Params: paramsJSON{Property: "3-colorable", T: 2}, Generator: gen("k-tree", 32, 2, s(8))},
			{Scheme: "tree-mso", Params: paramsJSON{Property: "is-star"}, Generator: gen("star", 16, 0, 0)},
			{Scheme: "universal", Params: paramsJSON{Property: "is-tree"}, Generator: gen("random-tree", 40, 0, s(9))},
		},
	} {
		r, err := batchRequest(jobs)
		if err != nil {
			return nil, err
		}
		m.batch = append(m.batch, r)
	}
	return m, nil
}

// send posts r and checks the answer.
func (r mixRequest) send(s *server) (mixAnswer, interval, error) {
	status, data, iv, err := s.post(r.path, "application/json", r.body)
	if err != nil {
		return mixAnswer{}, iv, err
	}
	if status != http.StatusOK {
		return mixAnswer{}, iv, fmt.Errorf("%s: status %d: %s", r.path, status, data)
	}
	a, err := r.check(data)
	if err != nil {
		return a, iv, fmt.Errorf("%s: %w", r.path, err)
	}
	return a, iv, nil
}

// mixClient is one closed-loop client's record.
type mixClient struct {
	t       tally
	lat     []float64
	ivs     []interval
	maxBits int
	bits    map[string]*templateBits
}

// templateBits sums one /certify template's certificate bits and
// vertices.
type templateBits struct{ bits, vertices int }

// runMix runs service-mix: clientsMax closed-loop clients, each drawing
// its requests from its own seeded stream.
func runMix(cfg config) (result, error) {
	var m *mix
	prepare := func(s *server) error {
		var err error
		if m, err = newMix(cfg.seed); err != nil {
			return err
		}
		// One of every prepared request, plus one fresh graph of each
		// tw-mso kind, compiles every scheme and checks every template.
		warm := slices.Concat(m.certify, m.verify, m.simulate, m.batch)
		for _, threeColor := range []bool{false, true} {
			r, err := twCertify(subSeed(cfg.seed, streamWarmup, len(warm)), threeColor)
			if err != nil {
				return err
			}
			warm = append(warm, r)
		}
		for _, r := range warm {
			if _, _, err := r.send(s); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		return nil
	}
	reps := setupReps
	if cfg.traced {
		reps = 1
	}
	srv, setupS, err := setUp(cfg, reps, prepare)
	if err != nil {
		return result{}, err
	}
	defer srv.stop()
	if cfg.traced {
		return traceMix(cfg, srv, m)
	}

	clients := make([]mixClient, clientsMax)
	deadline := time.Now().Add(cfg.seconds)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func(c int, mc *mixClient) {
			defer wg.Done()
			mc.bits = map[string]*templateBits{}
			rng := rand.New(rand.NewSource(subSeed(cfg.seed, streamMixClient, c)))
			for i := 0; time.Now().Before(deadline); i++ {
				mc.t.attempted++
				r, err := m.next(rng, c, i)
				if err != nil {
					mc.t.fail("client %d request %d: %v", c, i, err)
					continue
				}
				a, iv, err := r.send(srv)
				mc.ivs = append(mc.ivs, iv)
				if err != nil {
					mc.t.fail("client %d request %d: %v", c, i, err)
					continue
				}
				mc.lat = append(mc.lat, ms(iv.end.Sub(iv.start)))
				if a.certify != nil {
					mc.maxBits = max(mc.maxBits, a.certify.Result.MaxBits)
					tb := mc.bits[r.name]
					if tb == nil {
						tb = &templateBits{}
						mc.bits[r.name] = tb
					}
					tb.bits += a.certify.Result.TotalBits
					tb.vertices += a.n
				}
			}
		}(c, &clients[c])
	}
	wg.Wait()
	rss, err := srv.peakRSSMB()
	if err != nil {
		return result{}, err
	}
	var t tally
	var lat []float64
	var ivs []interval
	maxBits := 0
	templates := map[string]*templateBits{}
	for _, mc := range clients {
		t.attempted += mc.t.attempted
		t.failed += mc.t.failed
		lat = append(lat, mc.lat...)
		ivs = append(ivs, mc.ivs...)
		maxBits = max(maxBits, mc.maxBits)
		for name, tb := range mc.bits {
			if templates[name] == nil {
				templates[name] = &templateBits{}
			}
			templates[name].bits += tb.bits
			templates[name].vertices += tb.vertices
		}
	}
	// The mean over templates, not over requests, so which templates the
	// seeded draw happened to favour does not move it.
	meanBits := 0.0
	for _, tb := range templates {
		meanBits += float64(tb.bits) / float64(tb.vertices) / float64(len(templates))
	}
	if len(lat) == 0 || len(templates) == 0 {
		return t.result(nil), fmt.Errorf("no successful measured requests (%d failed)", t.failed)
	}
	return t.result(map[string]metric{
		"latency_p50_ms": {median(lat), "ms"},
		"latency_p99_ms": {quantile(lat, 0.99), "ms"},
		"throughput_rps": {float64(len(lat)) / busyTime(ivs).Seconds(), "1/s"},
		"peak_rss_mb":    {rss, "MB"},
		"cert_max_bits":  {float64(maxBits), "bits"},
		"cert_mean_bits": {meanBits, "bits"},
		"setup_s":        {setupS, "s"},
	}), nil
}

// traceMix is the traced pass of service-mix: one client sends client
// 0's request stream, and after each answer the request's jobs go
// through every layer in process.
func traceMix(cfg config, srv *server, m *mix) (result, error) {
	p := newLayerPass()
	before, err := srv.healthz()
	if err != nil {
		return result{}, err
	}
	var t tally
	rng := rand.New(rand.NewSource(subSeed(cfg.seed, streamMixClient, 0)))
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < cfg.seconds; i++ {
		r, err := m.next(rng, 0, i)
		if err != nil {
			return result{}, err
		}
		t.attempted++
		a, iv, err := r.send(srv)
		if err != nil {
			t.fail("request %d: %v", i, err)
			continue
		}
		for _, j := range r.jobs {
			tr, err := p.run(i, j)
			if err != nil {
				t.fail("request %d: traced layers for %s: %v", i, j.scheme, err)
				break
			}
			if a.certify == nil {
				continue
			}
			if got := tr.a.MaxBits(); got != a.certify.Result.MaxBits || tr.a.TotalBits() != a.certify.Result.TotalBits {
				t.fail("request %d: in-process %s certificates have %d/%d bits, server reported %d/%d",
					i, j.scheme, got, tr.a.TotalBits(), a.certify.Result.MaxBits, a.certify.Result.TotalBits)
			}
			p.addServer(*a.certify, iv, tr)
		}
	}
	after, err := srv.healthz()
	if err != nil {
		return result{}, err
	}
	metrics, err := p.finish(cfg, before, after)
	if err != nil {
		return t.result(nil), err
	}
	return t.result(metrics), nil
}
