package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"time"

	"repro/internal/graph"
	"repro/internal/graphgen"
	"repro/internal/registry"
	"repro/internal/wire"
)

// The large workloads stream partial 4-trees with edge-keep probability
// 0.85 at n=10^5 through the wire-v2 path. The server decomposes
// stream-loaded graphs heuristically (no witness crosses the wire) and
// lands at width 5 on these graphs, so t=6 leaves margin.
const (
	largeN       = 100_000
	largeK       = 4
	largeKeep    = 0.85
	largePath    = "/certify?scheme=tw-mso&property=tw-bound&t=6"
	streamType   = "application/x-graph-stream"
	warmupN      = 4096 // the set-up request that compiles the scheme
	warmSetSize  = 1
	minLargeReqs = 4 // requests always measured; large-cold reads peak RSS after them
)

var largeParams = registry.Params{Property: "tw-bound", T: 6}

// Seed streams of subSeed.
const (
	streamWarmup = iota
	streamCold
	streamWarm
	streamMixClient
	streamMixInputs
)

func largeGraph(seed int64, n int) *graph.Graph {
	g, _ := graphgen.PartialKTree(n, largeK, largeKeep, rand.New(rand.NewSource(seed)))
	return g
}

func streamBody(g *graph.Graph) ([]byte, error) {
	var buf bytes.Buffer
	if err := wire.EncodeGraphStream(&buf, g); err != nil {
		return nil, fmt.Errorf("encode stream body: %w", err)
	}
	return buf.Bytes(), nil
}

// certifyStream posts one stream body and decodes the phase response.
// An error means the request failed or was not accepted.
func certifyStream(s *server, body []byte) (phaseResponse, interval, error) {
	var r phaseResponse
	status, data, iv, err := s.post(largePath, streamType, body)
	if err != nil {
		return r, iv, err
	}
	if status != http.StatusOK {
		return r, iv, fmt.Errorf("status %d: %s", status, data)
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, iv, fmt.Errorf("decode response: %w", err)
	}
	if !r.Result.Accepted {
		return r, iv, fmt.Errorf("certificate rejected: %s", data)
	}
	return r, iv, nil
}

// runLarge runs certify-large-cold (every request a distinct graph, so
// the decomposition cache always misses) or certify-large-warm (requests
// cycle over a fixed set certified once during set-up, so it always
// hits). One closed-loop client: a prover waits for its certificate
// before sending the next graph.
func runLarge(cfg config) (result, error) {
	cold := cfg.workload == "certify-large-cold"
	graphSeed := func(i int) int64 {
		if cold {
			return subSeed(cfg.seed, streamCold, i)
		}
		return subSeed(cfg.seed, streamWarm, i%warmSetSize)
	}
	// Bodies are generated between requests, untimed; the warm set's
	// stay cached, together with the verdict set-up got for each.
	bodies := map[int64][]byte{}
	expect := map[int64]wire.ResultJSON{}
	input := func(i int) ([]byte, error) {
		seed := graphSeed(i)
		if b, ok := bodies[seed]; ok {
			return b, nil
		}
		b, err := streamBody(largeGraph(seed, largeN))
		if err != nil {
			return nil, err
		}
		if cold {
			clear(bodies)
		}
		bodies[seed] = b
		return b, nil
	}
	prepare := func(s *server) error {
		clear(bodies)
		warm, err := streamBody(largeGraph(subSeed(cfg.seed, streamWarmup, 0), warmupN))
		if err != nil {
			return err
		}
		if _, _, err := certifyStream(s, warm); err != nil {
			return fmt.Errorf("warm-up certify: %w", err)
		}
		if cold {
			_, err := input(0)
			return err
		}
		for i := 0; i < warmSetSize; i++ {
			body, err := input(i)
			if err != nil {
				return err
			}
			r, _, err := certifyStream(s, body)
			if err != nil {
				return fmt.Errorf("certify warm set graph %d: %w", i, err)
			}
			expect[graphSeed(i)] = r.Result
		}
		return nil
	}
	reps := setupReps
	switch {
	case cfg.traced:
		reps = 1
	case !cold:
		reps = 3
	}
	srv, setupS, err := setUp(cfg, reps, prepare)
	if err != nil {
		return result{}, err
	}
	defer srv.stop()
	if cfg.traced {
		return traceLarge(cfg, srv, graphSeed, input, expect)
	}

	var t tally
	var lat []float64
	var busy time.Duration
	var rss float64
	maxBits, totalBits, vertices := 0, 0, 0
	wallCap := time.Now().Add(2*cfg.seconds + time.Minute)
	for i := 0; (i < minLargeReqs || busy < cfg.seconds) && time.Now().Before(wallCap); i++ {
		body, err := input(i)
		if err != nil {
			return result{}, err
		}
		// Collect the generator's garbage now, so the client's collector
		// does not compete with the server for the CPUs mid-request.
		runtime.GC()
		t.attempted++
		r, iv, err := certifyStream(srv, body)
		busy += iv.end.Sub(iv.start)
		if err != nil {
			t.fail("request %d: %v", i, err)
			continue
		}
		lat = append(lat, ms(iv.end.Sub(iv.start)))
		fmt.Fprintf(os.Stderr, "perfbench: request %d: %.0f ms (decompose %.0f, prove %.0f, verify %.0f)\n", i,
			lat[len(lat)-1], ms(time.Duration(r.DecomposeNS)), ms(time.Duration(r.ProveNS)), ms(time.Duration(r.VerifyNS)))
		if want, ok := expect[graphSeed(i)]; ok && (want.MaxBits != r.Result.MaxBits || want.TotalBits != r.Result.TotalBits) {
			t.fail("request %d: bits %d/%d, set-up certified the same graph at %d/%d",
				i, r.Result.MaxBits, r.Result.TotalBits, want.MaxBits, want.TotalBits)
		}
		maxBits = max(maxBits, r.Result.MaxBits)
		totalBits += r.Result.TotalBits
		vertices += largeN
		// Every distinct graph adds a decomposition-cache entry, so
		// large-cold's peak RSS grows with the request count: read it at
		// a fixed count, or a faster server would be charged for the
		// extra graphs it fitted into the window.
		if cold && i+1 == minLargeReqs {
			if rss, err = srv.peakRSSMB(); err != nil {
				return result{}, err
			}
		}
	}
	if !cold {
		if rss, err = srv.peakRSSMB(); err != nil {
			return result{}, err
		}
	}
	if len(lat) == 0 || rss == 0 {
		return t.result(nil), fmt.Errorf("no successful measured requests (%d failed)", t.failed)
	}
	return t.result(map[string]metric{
		"latency_p50_ms": {median(lat), "ms"},
		"latency_p99_ms": {quantile(lat, 0.99), "ms"},
		"throughput_rps": {float64(len(lat)) / busy.Seconds(), "1/s"},
		"peak_rss_mb":    {rss, "MB"},
		"cert_max_bits":  {float64(maxBits), "bits"},
		"cert_mean_bits": {float64(totalBits) / float64(vertices), "bits"},
		"setup_s":        {setupS, "s"},
	}), nil
}

// traceLarge is the traced pass of the large workloads: each request is
// sent to the server as in the untraced run, then the same graph goes
// through every layer in process. The certificates proven in process
// must have the server's max_bits and total_bits.
func traceLarge(cfg config, srv *server, graphSeed func(int) int64, input func(int) ([]byte, error), expect map[int64]wire.ResultJSON) (result, error) {
	p := newLayerPass()
	// The warm workload's server already holds the warm set's
	// decompositions; give the in-process cache the same state.
	for seed := range expect {
		if _, err := p.cache.GetOrCompile("tw-mso", largeParams); err != nil {
			return result{}, err
		}
		if _, err := p.cache.Decomps.Get(largeGraph(seed, largeN)); err != nil {
			return result{}, err
		}
	}
	// One discarded pass over another graph of the same size grows the
	// process heap first; otherwise its page faults would land on
	// whichever layer happens to run first.
	warmSeed := subSeed(cfg.seed, streamWarmup, 1)
	if _, err := p.run(-1, job{
		scheme: "tw-mso",
		params: largeParams,
		build:  func() (*graph.Graph, error) { return largeGraph(warmSeed, largeN), nil },
	}); err != nil {
		return result{}, fmt.Errorf("traced warm-up: %w", err)
	}
	p.discard()
	before, err := srv.healthz()
	if err != nil {
		return result{}, err
	}
	var t tally
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < cfg.seconds; i++ {
		body, err := input(i)
		if err != nil {
			return result{}, err
		}
		t.attempted++
		r, iv, err := certifyStream(srv, body)
		if err != nil {
			t.fail("request %d: %v", i, err)
			continue
		}
		seed := graphSeed(i)
		tr, err := p.run(i, job{
			scheme: "tw-mso",
			params: largeParams,
			build:  func() (*graph.Graph, error) { return largeGraph(seed, largeN), nil },
		})
		if err != nil {
			t.fail("request %d: traced layers: %v", i, err)
			continue
		}
		if got := tr.a.MaxBits(); got != r.Result.MaxBits || tr.a.TotalBits() != r.Result.TotalBits {
			t.fail("request %d: in-process certificates have %d/%d bits, server reported %d/%d",
				i, got, tr.a.TotalBits(), r.Result.MaxBits, r.Result.TotalBits)
		}
		p.addServer(r, iv, tr)
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
