package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/cert"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/registry"
)

// provePre is the fault point between a job's compiled scheme and its
// prove call — the last moment before the expensive work starts.
var provePre = fault.NewPoint("engine.prove.pre")

// TamperSweep asks a job to additionally attack its own honest assignment:
// each tamper is applied Trials times and every corrupted variant is
// verified, reporting detection statistics.
type TamperSweep struct {
	// Tampers is the adversary family; empty means cert.StandardTampers.
	Tampers []cert.Tamper
	// Trials is the per-tamper trial count; <= 0 means 10.
	Trials int
	// Seed makes the sweep deterministic.
	Seed int64
}

// Job is one certification: prove and verify one graph under one scheme,
// optionally followed by an adversarial soundness sweep.
type Job struct {
	// Graph is the instance to certify. Leave nil and set Lazy to
	// materialize the instance inside a worker instead.
	Graph *graph.Graph
	// Lazy builds the graph (and may refine the params, e.g. attach a
	// generator's witness provider) when the job is picked up. Keeping
	// construction in the workers bounds batch memory to the worker
	// count and parallelizes generation.
	Lazy func() (*graph.Graph, registry.Params, error)
	// Scheme names a registry entry.
	Scheme string
	// Params parameterise the scheme factory; ignored when Lazy is set
	// (Lazy returns the effective params).
	Params registry.Params
	// Distributed verifies on the sharded network simulator instead of
	// the sequential referee (the verdicts are identical; the simulator
	// additionally exercises the self-stabilization code path).
	Distributed bool
	// Sweep, when set, runs the adversarial soundness sweep after an
	// accepted verification.
	Sweep *TamperSweep
	// Certificates, when set, are verified (and swept) instead of an
	// honest proof: the job skips the decompose and prove phases. The
	// caller checks there is one certificate per vertex.
	Certificates cert.Assignment
}

// JobResult reports one job's outcome with per-phase timings and the
// certificate-size statistics the paper measures.
type JobResult struct {
	// Index is the job's position in the submitted batch.
	Index int `json:"index"`
	// Scheme is the resolved scheme name (empty when compilation failed).
	Scheme string `json:"scheme,omitempty"`
	// Accepted reports whether every vertex accepted the honest proof (or
	// the job's supplied certificates).
	Accepted bool `json:"accepted"`
	// Rejecters lists rejecting vertex indices, when any.
	Rejecters []int `json:"rejecters,omitempty"`
	// MaxBits and TotalBits are the certificate-size measures.
	MaxBits   int `json:"max_bits"`
	TotalBits int `json:"total_bits"`
	// Generate, Compile, Decompose, Prove and Verify are the phase
	// durations (Generate is zero for jobs submitted with an explicit
	// graph; Decompose is zero unless the scheme draws its tree
	// decomposition from the shared cache).
	Generate  time.Duration `json:"generate_ns"`
	Compile   time.Duration `json:"compile_ns"`
	Decompose time.Duration `json:"decompose_ns,omitempty"`
	Prove     time.Duration `json:"prove_ns"`
	Verify    time.Duration `json:"verify_ns"`
	// Distributed reports that verification ran on the network simulator.
	Distributed bool `json:"distributed,omitempty"`
	// Rounds and Workers describe the distributed verification round:
	// the communication rounds it used and the workers it ran on (zero
	// for sequential verification).
	Rounds  int `json:"rounds,omitempty"`
	Workers int `json:"workers,omitempty"`
	// Sweep is the adversarial soundness report, when the job asked for
	// one and the honest verification accepted.
	Sweep *netsim.SweepReport `json:"sweep,omitempty"`
	// SweepTime is the sweep phase duration, when the job swept.
	SweepTime time.Duration `json:"sweep_ns,omitempty"`
	// Err is the failure, if the job did not complete. It does not
	// survive JSON; Error is the serializable form.
	Err error `json:"-"`
	// Error is Err's text, populated at the pipeline layer so every
	// consumer of serialized results sees the failure cause — not only
	// clients that translate Err by hand.
	Error string `json:"error,omitempty"`
}

// fail records an error in both its programmatic and serializable forms.
func (r *JobResult) fail(err error) {
	r.Err = err
	r.Error = err.Error()
}

// failAt records err as a failure of the named phase.
func (r *JobResult) failAt(phase string, err error) {
	r.fail(&PhaseError{Phase: phase, Err: err})
}

// PhaseError is a certification failure tagged with the phase it
// happened in (generate, compile, decompose, prove, verify or sweep), so
// callers map failures by phase — a compile error is the request's
// fault, a prove error says the graph cannot be certified as asked —
// instead of by call site.
type PhaseError struct {
	Phase string
	Err   error
}

// Error prefixes the cause with its phase. Compile errors stay bare: they
// come straight from the registry or the formula parser and already name
// what was wrong with the request.
func (e *PhaseError) Error() string {
	if e.Phase == "compile" {
		return e.Err.Error()
	}
	return e.Phase + ": " + e.Err.Error()
}

func (e *PhaseError) Unwrap() error { return e.Err }

// Pipeline certifies jobs — one at a time through Certify, or batches of
// them on a bounded worker pool through Run — compiling schemes through a
// shared cache.
type Pipeline struct {
	// Cache supplies compiled schemes; required.
	Cache *Cache
	// Workers bounds concurrency; <= 0 means GOMAXPROCS.
	Workers int
	// Sim runs distributed verifications and sweeps. When nil the
	// pipeline lazily builds one engine writing its metrics into the
	// cache's registry, so batch round latencies land next to the phase
	// histograms instead of in the package-level default registry.
	Sim *netsim.Engine

	simOnce sync.Once
	simLazy *netsim.Engine
}

// sim resolves the network-simulation engine.
func (p *Pipeline) sim() *netsim.Engine {
	if p.Sim != nil {
		return p.Sim
	}
	p.simOnce.Do(func() {
		p.simLazy = &netsim.Engine{Obs: p.Cache.Obs}
	})
	return p.simLazy
}

// effectiveWorkers resolves the worker count.
func (p *Pipeline) effectiveWorkers(jobs int) int {
	w := p.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes every job and returns one result per job, in submission
// order. Cancellation via ctx stops dispatching promptly: jobs not yet
// started complete with ctx's error. Run itself only returns an error for
// malformed input; per-job failures live in the results.
func (p *Pipeline) Run(ctx context.Context, jobs []Job) ([]JobResult, error) {
	if p.Cache == nil {
		return nil, fmt.Errorf("engine: pipeline has no cache")
	}
	results := make([]JobResult, len(jobs))
	idx := make(chan int)
	var wg sync.WaitGroup
	// depth tracks jobs accepted into this Run but not yet picked up by a
	// worker; the gauge sums across concurrent batches, so overload shows
	// up as queue depth on /metrics instead of only as latency.
	depth := QueueDepthGauge(p.Cache.Obs)
	depth.Add(int64(len(jobs)))
	for w := 0; w < p.effectiveWorkers(len(jobs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				depth.Dec()
				results[i] = p.runOne(ctx, i, jobs[i])
			}
		}()
	}
dispatch:
	for i := range jobs {
		select {
		case idx <- i:
		case <-ctx.Done():
			// Mark every undispatched job cancelled.
			for j := i; j < len(jobs); j++ {
				results[j] = JobResult{Index: j}
				results[j].fail(ctx.Err())
			}
			depth.Add(int64(-(len(jobs) - i)))
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	return results, nil
}

// runOne executes one batch job: Certify under a "job" span, plus the
// batch-only concerns around it. A panicking job — a buggy scheme, an
// armed panic fault — is contained: it fails its own result, never the
// worker or the process. The job's outcome and any cancellation are
// counted, and the assignment is dropped so batch memory stays bounded by
// the results.
func (p *Pipeline) runOne(ctx context.Context, i int, job Job) (res JobResult) {
	if err := ctx.Err(); err != nil {
		res = JobResult{Index: i}
		res.fail(err)
		return res
	}
	reg := p.registry()
	ctx, jsp := obs.Start(ctx, "job")
	defer func() {
		if r := recover(); r != nil {
			res = JobResult{Index: i}
			res.fail(fmt.Errorf("engine: job %d panicked: %v", i, r))
		}
		jsp.End()
		outcome := "accepted"
		switch {
		case res.Err != nil:
			outcome = "failed"
		case !res.Accepted:
			outcome = "rejected"
		}
		jsp.SetAttr("outcome", outcome)
		jobCounter(reg, outcome).Inc()
		if ce, ok := fault.Cancelled(res.Err); ok {
			CancelledCounter(reg, ce.Phase).Inc()
		}
	}()
	res, _, _ = p.Certify(ctx, job)
	res.Index = i
	return res
}

// registry is where the pipeline's phase histograms and job counters
// land: the cache's registry, or — for a registry-less cache, which still
// runs fully instrumented — the process-wide default.
func (p *Pipeline) registry() *obs.Registry {
	if p.Cache.Obs != nil {
		return p.Cache.Obs
	}
	return obs.Default()
}

// Certify runs one job through every certification phase in order:
// generate (when lazy), compile (through the cache), decompose
// (prewarming the shared cache when the scheme reads it), prove, verify
// (sequentially or on the network simulator), then the optional
// adversarial sweep. A job carrying Certificates skips decompose and
// prove and verifies those instead. Each phase runs under a child span of
// ctx's span, lands one sample in its phase histogram, and receives its
// weighted slice of any deadline on ctx (PhaseBudget); ctx's span is
// annotated with the scheme, the vertex count and the verdict.
//
// A failed phase is reported in the result as a *PhaseError. Certify
// returns the verified assignment and the compiled scheme when it got
// that far, so callers can run further rounds over them. It does not
// recover panics: a batch contains them per job, a server per request.
func (p *Pipeline) Certify(ctx context.Context, job Job) (res JobResult, a cert.Assignment, s cert.Scheme) {
	reg := p.registry()
	span := obs.FromContext(ctx)
	g, params := job.Graph, job.Params
	if g == nil && job.Lazy != nil {
		_, gsp := obs.Start(ctx, "generate")
		var err error
		g, params, err = job.Lazy()
		gsp.End()
		res.Generate = gsp.Duration()
		phaseHistogram(reg, "generate").Observe(res.Generate)
		if err != nil {
			res.failAt("generate", err)
			return res, nil, nil
		}
	}
	if g == nil {
		res.fail(fmt.Errorf("engine: job has no graph"))
		return res, nil, nil
	}
	cctx, ccancel := PhaseBudget(ctx, "compile")
	t0 := time.Now()
	s, err := p.Cache.GetOrCompileCtx(cctx, job.Scheme, params)
	ccancel()
	res.Compile = time.Since(t0)
	if err != nil {
		res.failAt("compile", err)
		return res, nil, nil
	}
	res.Scheme = s.Name()
	span.SetAttr("scheme", res.Scheme)
	span.SetAttr("n", g.N())
	a = job.Certificates
	if a == nil {
		dctx, dcancel := PhaseBudget(ctx, "decompose")
		res.Decompose = p.Cache.prewarmDecomposition(dctx, s, g)
		dcancel()
		if err := ctx.Err(); err != nil {
			// The prewarm swallows errors by design; do not hand a
			// cancelled job to the prover's own fallback computation.
			res.failAt("decompose", &fault.CancelledError{Phase: "decompose", Cause: err})
			return res, nil, s
		}
		if err := provePre.Inject(); err != nil {
			res.failAt("prove", err)
			return res, nil, s
		}
		pctx, pcancel := PhaseBudget(ctx, "prove")
		pctx, psp := obs.Start(pctx, "prove")
		a, err = cert.ProveWithContext(pctx, s, g)
		psp.End()
		pcancel()
		res.Prove = psp.Duration()
		phaseHistogram(reg, "prove").Observe(res.Prove)
		if err != nil {
			res.failAt("prove", err)
			return res, nil, s
		}
	}
	res.MaxBits = a.MaxBits()
	res.TotalBits = a.TotalBits()
	vctx, vcancel := PhaseBudget(ctx, "verify")
	vctx, vsp := obs.Start(vctx, "verify")
	if job.Distributed {
		vsp.SetAttr("mode", "distributed")
		var rep netsim.Report
		rep, err = p.sim().Run(vctx, g, s, a)
		res.Accepted, res.Rejecters = rep.Accepted, rep.Rejecters
		res.Rounds, res.Workers = rep.Rounds, rep.Workers
	} else {
		vsp.SetAttr("mode", "sequential")
		var verdict cert.Result
		verdict, err = cert.RunSequentialCtx(vctx, g, s, a)
		res.Accepted, res.Rejecters = verdict.Accepted, verdict.Rejecters
	}
	vsp.End()
	vcancel()
	res.Verify = vsp.Duration()
	phaseHistogram(reg, "verify").Observe(res.Verify)
	if err != nil {
		res.failAt("verify", err)
		return res, a, s
	}
	res.Distributed = job.Distributed
	span.SetAttr("accepted", res.Accepted)
	if job.Sweep != nil && res.Accepted {
		tampers := job.Sweep.Tampers
		if len(tampers) == 0 {
			tampers = cert.StandardTampers()
		}
		trials := job.Sweep.Trials
		if trials <= 0 {
			trials = 10
		}
		sctx, ssp := obs.Start(ctx, "sweep")
		sweep, err := p.sim().Sweep(sctx, g, s, a, tampers, trials, job.Sweep.Seed)
		ssp.End()
		res.SweepTime = ssp.Duration()
		phaseHistogram(reg, "sweep").Observe(res.SweepTime)
		if err != nil {
			res.failAt("sweep", err)
			return res, a, s
		}
		res.Sweep = &sweep
	}
	return res, a, s
}

// BatchStats aggregates a batch's results.
type BatchStats struct {
	Jobs     int `json:"jobs"`
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
	Failed   int `json:"failed"`
	// MaxBits is the largest certificate over the whole batch.
	MaxBits int `json:"max_bits"`
	// TotalGenerate through TotalVerify sum the per-job phase times (CPU
	// work, not wall time: jobs overlap across workers). Generation and
	// compilation were previously dropped from the totals, silently
	// under-reporting batch cost for lazy and compile-heavy batches.
	TotalGenerate  time.Duration `json:"total_generate_ns,omitempty"`
	TotalCompile   time.Duration `json:"total_compile_ns,omitempty"`
	TotalDecompose time.Duration `json:"total_decompose_ns,omitempty"`
	TotalProve     time.Duration `json:"total_prove_ns"`
	TotalVerify    time.Duration `json:"total_verify_ns"`
	// SweepMutated, SweepDetected and SweepNoOps aggregate the jobs'
	// adversarial sweeps (zero when no job swept). SweepDetected <
	// SweepMutated means some corruption went undetected somewhere.
	SweepMutated  int `json:"sweep_mutated,omitempty"`
	SweepDetected int `json:"sweep_detected,omitempty"`
	SweepNoOps    int `json:"sweep_noops,omitempty"`
}

// Summarize folds results into batch statistics.
func Summarize(results []JobResult) BatchStats {
	st := BatchStats{Jobs: len(results)}
	for _, r := range results {
		switch {
		case r.Err != nil:
			st.Failed++
		case r.Accepted:
			st.Accepted++
		default:
			st.Rejected++
		}
		if r.MaxBits > st.MaxBits {
			st.MaxBits = r.MaxBits
		}
		st.TotalGenerate += r.Generate
		st.TotalCompile += r.Compile
		st.TotalDecompose += r.Decompose
		st.TotalProve += r.Prove
		st.TotalVerify += r.Verify
		if r.Sweep != nil {
			for _, ts := range r.Sweep.Stats {
				st.SweepMutated += ts.Mutated
				st.SweepDetected += ts.Detected
				st.SweepNoOps += ts.NoOps
			}
		}
	}
	return st
}
