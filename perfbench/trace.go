package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/internal/cert"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/treewidth"
	"repro/internal/wire"
)

// span is one timed call into a layer's public function.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a top-level call
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the pass began
	End    int64  `json:"end_ns"`
	Alloc  uint64 `json:"alloc_bytes"`
}

// tracer keeps a pass's spans in memory until the pass ends.
//
// Spans are recorded around the benchmark's own calls into each layer;
// the program itself is not instrumented. Where a public function calls
// other measured ones (ProveCtx calls Validate and BuildPayloads;
// BuildPayloads calls MakeNice and SolveEMSO; DecompCache.GetCtx calls
// HeuristicCtx on a miss), the inner functions are called again on their
// own, on the same input, as children of the outer span. A span's self
// time is its duration minus its children's.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// call runs fn as one span and returns the span's id. A collection
// before the span starts keeps one call's garbage from being charged to
// the next, which matters because an outer function's self time is a
// difference of separately timed calls.
func (t *tracer) call(req, parent int, name string, fn func() error) (int, error) {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	alloc := m.TotalAlloc
	start := time.Since(t.t0)
	err := fn()
	end := time.Since(t.t0)
	runtime.ReadMemStats(&m)
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start), End: int64(end), Alloc: m.TotalAlloc - alloc,
	})
	if err != nil {
		return id, fmt.Errorf("%s: %w", name, err)
	}
	return id, nil
}

func (t *tracer) dur(id int) time.Duration {
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

// children returns the ids of span id's children. A child is recorded
// after its parent and within the same request, whose spans are
// contiguous.
func (t *tracer) children(id int) []int {
	var out []int
	for _, s := range t.spans[id+1:] {
		if s.Req != t.spans[id].Req {
			break
		}
		if s.Parent == id {
			out = append(out, s.ID)
		}
	}
	return out
}

func (t *tracer) self(id int) time.Duration {
	d := t.dur(id)
	for _, c := range t.children(id) {
		d -= t.dur(c)
	}
	return d
}

// treeSelf is the summed self time of span id and all its descendants.
func (t *tracer) treeSelf(id int) time.Duration {
	d := t.self(id)
	for _, c := range t.children(id) {
		d += t.treeSelf(c)
	}
	return d
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// layerPass runs every layer's public functions in process on the same
// inputs the server saw, against its own engine cache built like the
// server's (a decomposition cache attached), and collects one value per
// request for each per-layer metric.
type layerPass struct {
	tr    *tracer
	cache *engine.Cache
	sim   *netsim.Engine
	vals  map[string][]float64
}

func newLayerPass() *layerPass {
	cache := engine.NewCache(registry.Default())
	cache.Decomps = engine.NewDecompCache()
	return &layerPass{
		tr:    newTracer(),
		cache: cache,
		sim:   &netsim.Engine{},
		vals:  map[string][]float64{},
	}
}

func (p *layerPass) add(name string, v float64) { p.vals[name] = append(p.vals[name], v) }

// discard drops the spans and values recorded so far, keeping the
// caches.
func (p *layerPass) discard() {
	p.tr = newTracer()
	p.vals = map[string][]float64{}
}

// job is one graph certified under one scheme, as the traced pass sees
// it: generate (timed as graphgen), then every layer in turn.
type job struct {
	scheme string
	params registry.Params
	build  func() (*graph.Graph, error)
}

// traced is what one job's layer chain produced.
type traced struct {
	a cert.Assignment
	// phases is the summed self time of the spans under the server's
	// decompose, prove and verify phases, for the coverage check.
	phases time.Duration
}

// run generates the job's graph, round-trips it through the wire-v2
// stream codec, and runs compile, decomposition, prove (split into its
// parts for tw-mso), the sequential referee, the payload decoder and the
// simulated network round on it, checking that every verdict accepts and
// that the re-run parts agree with the whole.
func (p *layerPass) run(req int, j job) (traced, error) {
	ctx := context.Background()
	tr := p.tr
	var out traced
	var g *graph.Graph
	id, err := tr.call(req, -1, "graphgen.generate", func() (err error) {
		g, err = j.build()
		return err
	})
	if err != nil {
		return out, err
	}
	p.add("graphgen.generate_ms", ms(tr.dur(id)))
	var buf bytes.Buffer
	if err := wire.EncodeGraphStream(&buf, g); err != nil {
		return out, fmt.Errorf("encode stream: %w", err)
	}
	p.add("wire.body_mb", float64(buf.Len())/(1<<20))
	if id, err = tr.call(req, -1, "wire.decode", func() (err error) {
		g, err = wire.DecodeGraphStream(&buf, wire.StreamLimits{})
		return err
	}); err != nil {
		return out, err
	}
	p.add("wire.decode_ms", ms(tr.dur(id)))

	var scheme cert.Scheme
	if id, err = tr.call(req, -1, "engine.compile", func() (err error) {
		scheme, err = p.cache.GetOrCompileCtx(ctx, j.scheme, j.params)
		return err
	}); err != nil {
		return out, err
	}
	p.add("engine.compile_ms", ms(tr.dur(id)))

	if tws, ok := scheme.(*treewidth.MSOScheme); ok {
		out.a, out.phases, err = p.proveTW(ctx, req, g, tws)
	} else {
		id, err = tr.call(req, -1, "cert.prove", func() (err error) {
			out.a, err = cert.ProveWithContext(ctx, scheme, g)
			return err
		})
		out.phases = tr.treeSelf(id)
	}
	if err != nil {
		return out, err
	}

	var res cert.Result
	if id, err = tr.call(req, -1, "cert.verify", func() (err error) {
		res, err = cert.RunSequentialCtx(ctx, g, scheme, out.a)
		return err
	}); err != nil {
		return out, err
	}
	out.phases += tr.treeSelf(id)
	p.add("cert.verify_ms", ms(tr.self(id)))
	p.add("cert.verify_alloc_mb", float64(tr.spans[id].Alloc)/(1<<20))
	if !res.Accepted {
		return out, fmt.Errorf("in-process referee rejected the honest assignment (%d rejecters)", len(res.Rejecters))
	}

	var rep netsim.Report
	if id, err = tr.call(req, -1, "netsim.round", func() (err error) {
		rep, err = p.sim.Run(ctx, g, scheme, out.a)
		return err
	}); err != nil {
		return out, err
	}
	p.add("netsim.round_ms", ms(tr.dur(id)))
	if !rep.Accepted {
		return out, errors.New("simulated round rejected an assignment the sequential referee accepted")
	}
	return out, nil
}

// proveTW is the tw-mso part of the chain: the decomposition through the
// engine cache, then ProveCtx, then each function ProveCtx is built from,
// called again on its own as a child span.
func (p *layerPass) proveTW(ctx context.Context, req int, g *graph.Graph, s *treewidth.MSOScheme) (cert.Assignment, time.Duration, error) {
	tr := p.tr
	phi := s.Prop.Phi
	if phi == nil {
		return nil, 0, fmt.Errorf("tw-mso scheme %s has no compiled property", s.Name())
	}
	prop := treewidth.Property{Name: s.Prop.Name, Phi: phi}
	setBits := phi.NumSets()

	before := p.cache.Decomps.Stats()
	var d *treewidth.Decomposition
	did, err := tr.call(req, -1, "engine.decomp", func() (err error) {
		d, err = p.cache.Decomps.GetCtx(ctx, g)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	// On a miss GetCtx ran the heuristic, so the separately timed
	// heuristic is its child; on a hit it is a top-level measurement the
	// decompose phase did not pay for.
	parent := -1
	if p.cache.Decomps.Stats().Misses > before.Misses {
		parent = did
	}
	var hd *treewidth.Decomposition
	hid, err := tr.call(req, parent, "treewidth.heuristic", func() (err error) {
		hd, _, err = treewidth.HeuristicCtx(ctx, g)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	p.add("engine.decomp_ms", ms(tr.self(did)))
	p.add("treewidth.heuristic_ms", ms(tr.dur(hid)))
	p.add("treewidth.heuristic_alloc_mb", float64(tr.spans[hid].Alloc)/(1<<20))
	p.add("treewidth.width", float64(hd.Width()))

	var a cert.Assignment
	pid, err := tr.call(req, -1, "treewidth.prove", func() (err error) {
		a, err = s.ProveCtx(ctx, g)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	vid, err := tr.call(req, pid, "treewidth.validate", func() error { return treewidth.Validate(g, d) })
	if err != nil {
		return nil, 0, err
	}
	var payloads []treewidth.Payload
	bid, err := tr.call(req, pid, "treewidth.payloads", func() (err error) {
		payloads, err = treewidth.BuildPayloads(g, d, prop)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	var nice *treewidth.Nice
	nid, err := tr.call(req, bid, "treewidth.nice", func() (err error) {
		nice, err = treewidth.MakeNice(d, 0)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	eid, err := tr.call(req, bid, "treewidth.emso", func() error {
		_, ok, err := treewidth.SolveEMSO(g, nice, phi)
		if err == nil && !ok {
			err = errors.New("property does not hold")
		}
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	enc := make(cert.Assignment, len(payloads))
	xid, _ := tr.call(req, pid, "treewidth.encode", func() error {
		for v, pl := range payloads {
			enc[v] = treewidth.EncodePayload(pl, g.IDOf(v), setBits)
		}
		return nil
	})
	for v := range a {
		if !slices.Equal(a[v], enc[v]) {
			return nil, 0, fmt.Errorf("EncodePayload over BuildPayloads differs from ProveCtx at vertex %d", v)
		}
	}
	decID, err := tr.call(req, -1, "treewidth.payload_decode", func() error {
		for v, c := range a {
			if _, ok := treewidth.DecodePayload(c, g.IDOf(v), setBits); !ok {
				return fmt.Errorf("certificate of vertex %d does not decode", v)
			}
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	p.add("treewidth.prove_ms", ms(tr.self(pid)))
	p.add("treewidth.prove_alloc_mb", float64(tr.spans[pid].Alloc)/(1<<20))
	p.add("treewidth.validate_ms", ms(tr.dur(vid)))
	p.add("treewidth.payloads_ms", ms(tr.self(bid)))
	p.add("treewidth.nice_ms", ms(tr.dur(nid)))
	p.add("treewidth.nice_nodes", float64(nice.NumNodes()))
	p.add("treewidth.emso_ms", ms(tr.dur(eid)))
	p.add("treewidth.encode_ms", ms(tr.dur(xid)))
	p.add("treewidth.payload_decode_ms", ms(tr.dur(decID)))
	p.add("cert.decodes", float64(g.N()+2*g.M()))
	return a, tr.treeSelf(did) + tr.treeSelf(pid), nil
}

// phaseResponse is the phase breakdown a /certify response carries.
type phaseResponse struct {
	Result      wire.ResultJSON `json:"result"`
	CompileNS   int64           `json:"compile_ns"`
	DecomposeNS int64           `json:"decompose_ns"`
	ProveNS     int64           `json:"prove_ns"`
	VerifyNS    int64           `json:"verify_ns"`
}

// addServer records one /certify request's server-side phases, the
// client-observed overhead around them, and the coverage of the traced
// layers against them.
func (p *layerPass) addServer(r phaseResponse, iv interval, t traced) {
	server := time.Duration(r.DecomposeNS + r.ProveNS + r.VerifyNS)
	p.add("certserver.compile_ms", ms(time.Duration(r.CompileNS)))
	p.add("certserver.decompose_ms", ms(time.Duration(r.DecomposeNS)))
	p.add("certserver.prove_ms", ms(time.Duration(r.ProveNS)))
	p.add("certserver.verify_ms", ms(time.Duration(r.VerifyNS)))
	p.add("certserver.overhead_ms", ms(iv.end.Sub(iv.start)-server-time.Duration(r.CompileNS)))
	if server > 0 {
		p.add("trace.coverage", float64(t.phases)/float64(server))
	}
	p.add("trace.overhead_ms", ms(t.phases-server))
}

// perLayer is every per-layer metric with its unit.
var perLayer = []struct{ name, unit string }{
	{"wire.decode_ms", "ms"},
	{"wire.body_mb", "MB"},
	{"engine.compile_ms", "ms"},
	{"engine.compile_hit_ratio", "ratio"},
	{"engine.decomp_ms", "ms"},
	{"engine.decomp_hit_ratio", "ratio"},
	{"engine.decomp_cache_entries", "count"},
	{"treewidth.heuristic_ms", "ms"},
	{"treewidth.heuristic_alloc_mb", "MB"},
	{"treewidth.width", "count"},
	{"treewidth.validate_ms", "ms"},
	{"treewidth.nice_ms", "ms"},
	{"treewidth.nice_nodes", "count"},
	{"treewidth.emso_ms", "ms"},
	{"treewidth.payloads_ms", "ms"},
	{"treewidth.encode_ms", "ms"},
	{"treewidth.prove_ms", "ms"},
	{"treewidth.prove_alloc_mb", "MB"},
	{"treewidth.payload_decode_ms", "ms"},
	{"cert.verify_ms", "ms"},
	{"cert.verify_alloc_mb", "MB"},
	{"cert.decodes", "count"},
	{"netsim.round_ms", "ms"},
	{"graphgen.generate_ms", "ms"},
	{"certserver.compile_ms", "ms"},
	{"certserver.decompose_ms", "ms"},
	{"certserver.prove_ms", "ms"},
	{"certserver.verify_ms", "ms"},
	{"certserver.overhead_ms", "ms"},
	{"certserver.shed_total", "count"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_ms", "ms"},
}

// finish adds the server's cache and admission counters over the
// measured window (before and after are /healthz snapshots), writes the
// spans, and reduces every per-layer metric to its median over the
// pass's requests.
func (p *layerPass) finish(cfg config, before, after health) (map[string]metric, error) {
	ratio := func(hits, misses int64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	p.add("engine.compile_hit_ratio", ratio(after.Cache.Hits-before.Cache.Hits, after.Cache.Misses-before.Cache.Misses))
	p.add("engine.decomp_hit_ratio", ratio(after.Decomps.Hits-before.Decomps.Hits, after.Decomps.Misses-before.Decomps.Misses))
	p.add("engine.decomp_cache_entries", float64(after.Decomps.Size))
	p.add("certserver.shed_total", float64(after.Admission.Shed))
	if err := p.tr.write(spanFile(cfg)); err != nil {
		return nil, err
	}
	out := map[string]metric{}
	for _, m := range perLayer {
		vs := p.vals[m.name]
		if len(vs) == 0 {
			return nil, fmt.Errorf("traced pass measured no %s", m.name)
		}
		out[m.name] = metric{Value: median(vs), Unit: m.unit}
	}
	return out, nil
}
