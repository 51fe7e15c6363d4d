package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/graphgen"
	"repro/internal/logic"
	"repro/internal/registry"
	"repro/internal/treewidth"
)

// countingRegistry returns a registry with one entry whose factory counts
// invocations and optionally blocks until release is closed.
func countingRegistry(t *testing.T, compiles *atomic.Int64, block chan struct{}) *registry.Registry {
	t.Helper()
	r := registry.New()
	r.MustRegister(registry.Entry{
		Info: registry.Info{Name: "counted", Needs: []registry.Param{registry.ParamProperty}},
		Build: func(p registry.Params) (cert.Scheme, error) {
			compiles.Add(1)
			if block != nil {
				<-block
			}
			if p.Property == "fail" {
				return nil, errors.New("synthetic compile failure")
			}
			return registry.Default().Build("tree-mso", registry.Params{Property: "perfect-matching"})
		},
	})
	return r
}

// Concurrent requests for one key must trigger exactly one compilation,
// and all callers must receive the same scheme instance.
func TestCacheSingleflight(t *testing.T) {
	var compiles atomic.Int64
	release := make(chan struct{})
	c := NewCache(countingRegistry(t, &compiles, release))

	const callers = 32
	schemes := make([]cert.Scheme, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := c.GetOrCompile("counted", registry.Params{Property: "ok"})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			schemes[i] = s
		}(i)
	}
	// Let every caller queue up on the single flight, then release it.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := compiles.Load(); got != 1 {
		t.Fatalf("compiled %d times, want 1", got)
	}
	for i := 1; i < callers; i++ {
		if schemes[i] != schemes[0] {
			t.Fatalf("caller %d got a different scheme instance", i)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != callers-1 || st.Size != 1 {
		t.Fatalf("stats = %+v, want 1 miss, %d hits, size 1", st, callers-1)
	}
}

// Distinct keys compile independently; repeated keys hit.
func TestCacheKeying(t *testing.T) {
	var compiles atomic.Int64
	c := NewCache(countingRegistry(t, &compiles, nil))
	for i := 0; i < 3; i++ {
		if _, err := c.GetOrCompile("counted", registry.Params{Property: "a"}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.GetOrCompile("counted", registry.Params{Property: "b"}); err != nil {
			t.Fatal(err)
		}
	}
	if got := compiles.Load(); got != 2 {
		t.Fatalf("compiled %d times, want 2 (one per property)", got)
	}
	// A param the entry does not declare must not fragment the cache.
	if _, err := c.GetOrCompile("counted", registry.Params{Property: "a", T: 99}); err != nil {
		t.Fatal(err)
	}
	if got := compiles.Load(); got != 2 {
		t.Fatalf("undeclared param fragmented the cache: %d compiles", got)
	}
}

// Failed compiles must not be pinned: a retry recompiles.
func TestCacheFailureNotPinned(t *testing.T) {
	var compiles atomic.Int64
	c := NewCache(countingRegistry(t, &compiles, nil))
	for i := 0; i < 2; i++ {
		if _, err := c.GetOrCompile("counted", registry.Params{Property: "fail"}); err == nil {
			t.Fatal("expected compile failure")
		}
	}
	if got := compiles.Load(); got != 2 {
		t.Fatalf("failed compile was pinned: %d compiles, want 2", got)
	}
	if st := c.Stats(); st.Size != 0 {
		t.Fatalf("failed compile left a cache entry: %+v", st)
	}
}

// Uncacheable params (closures) bypass the cache.
func TestCacheBypass(t *testing.T) {
	c := NewCache(registry.Default())
	p := registry.Params{
		Property:     "anything",
		PropertyFunc: func(*graph.Graph) (bool, error) { return true, nil },
	}
	for i := 0; i < 2; i++ {
		if _, err := c.GetOrCompile("universal", p); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Bypasses != 2 || st.Size != 0 {
		t.Fatalf("stats = %+v, want 2 bypasses and size 0", st)
	}
}

// The pipeline must prove and verify a large mixed batch correctly at
// several worker counts, sharing one compiled scheme per kind.
func TestPipelineBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	jobs := make([]Job, 0, 120)
	for i := 0; i < 60; i++ {
		jobs = append(jobs, Job{
			Graph:  graphgen.RandomTree(10+rng.Intn(40), rng),
			Scheme: "tree-fo",
			Params: registry.Params{Formula: "forall x. exists y. x ~ y"},
		})
	}
	for i := 0; i < 40; i++ {
		jobs = append(jobs, Job{
			Graph:  graphgen.Path(2 * (4 + rng.Intn(20))),
			Scheme: "tree-mso",
			Params: registry.Params{Property: "perfect-matching"},
		})
	}
	for i := 0; i < 20; i++ {
		jobs = append(jobs, Job{
			Graph:  graphgen.Star(5 + rng.Intn(30)),
			Scheme: "universal",
			Params: registry.Params{Property: "connected"},
		})
	}
	for _, workers := range []int{1, 4, 8} {
		cache := NewCache(registry.Default())
		pipe := &Pipeline{Cache: cache, Workers: workers}
		results, err := pipe.Run(context.Background(), jobs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(results) != len(jobs) {
			t.Fatalf("workers=%d: %d results for %d jobs", workers, len(results), len(jobs))
		}
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("workers=%d job %d: %v", workers, i, r.Err)
			}
			if !r.Accepted {
				t.Fatalf("workers=%d job %d rejected at %v", workers, i, r.Rejecters)
			}
			if r.Index != i {
				t.Fatalf("workers=%d: result %d has index %d", workers, i, r.Index)
			}
		}
		st := Summarize(results)
		if st.Accepted != len(jobs) || st.Failed != 0 || st.Rejected != 0 {
			t.Fatalf("workers=%d: stats %+v", workers, st)
		}
		// One compile per distinct scheme key, however many workers.
		if cs := cache.Stats(); cs.Misses != 3 {
			t.Fatalf("workers=%d: %d compiles, want 3", workers, cs.Misses)
		}
	}
}

// Per-job failures must be reported in the result, not abort the batch.
func TestPipelineJobFailureIsolated(t *testing.T) {
	jobs := []Job{
		{Graph: graphgen.Path(8), Scheme: "tree-mso", Params: registry.Params{Property: "perfect-matching"}},
		// Odd path has no perfect matching: the honest prover must refuse.
		{Graph: graphgen.Path(7), Scheme: "tree-mso", Params: registry.Params{Property: "perfect-matching"}},
		{Graph: nil, Scheme: "tree-mso", Params: registry.Params{Property: "perfect-matching"}},
		{Graph: graphgen.Path(4), Scheme: "no-such-scheme"},
	}
	pipe := &Pipeline{Cache: NewCache(registry.Default()), Workers: 2}
	results, err := pipe.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || !results[0].Accepted {
		t.Fatalf("healthy job failed: %+v", results[0])
	}
	for i := 1; i < len(jobs); i++ {
		if results[i].Err == nil {
			t.Fatalf("job %d should have failed", i)
		}
	}
	st := Summarize(results)
	if st.Accepted != 1 || st.Failed != 3 {
		t.Fatalf("stats = %+v, want 1 accepted / 3 failed", st)
	}
}

// Cancelling the context stops dispatch; undispatched jobs carry the
// context error.
func TestPipelineCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := make([]Job, 50)
	for i := range jobs {
		jobs[i] = Job{Graph: graphgen.Path(8), Scheme: "tree-mso", Params: registry.Params{Property: "perfect-matching"}}
	}
	pipe := &Pipeline{Cache: NewCache(registry.Default()), Workers: 4}
	results, err := pipe.Run(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	cancelled := 0
	for _, r := range results {
		if errors.Is(r.Err, context.Canceled) {
			cancelled++
		}
	}
	if cancelled != len(jobs) {
		t.Fatalf("%d of %d jobs cancelled, want all (ctx cancelled before Run)", cancelled, len(jobs))
	}
}

// Regression for the dropped-error bug: JobResult.Err was json:"-" only,
// so serialized results lost their failure cause. Every result of a
// cancelled or failed batch must keep its Index and carry the error text
// through JSON.
func TestPipelineCancelledBatchKeepsIndexAndErrorText(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := make([]Job, 20)
	for i := range jobs {
		jobs[i] = Job{Graph: graphgen.Path(8), Scheme: "tree-mso", Params: registry.Params{Property: "perfect-matching"}}
	}
	pipe := &Pipeline{Cache: NewCache(registry.Default()), Workers: 4}
	results, err := pipe.Run(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Index != i {
			t.Fatalf("result %d has index %d", i, r.Index)
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("result %d: err = %v", i, r.Err)
		}
		if r.Error == "" || !strings.Contains(r.Error, context.Canceled.Error()) {
			t.Fatalf("result %d: serializable error %q does not carry the cause", i, r.Error)
		}
		raw, jerr := json.Marshal(r)
		if jerr != nil {
			t.Fatal(jerr)
		}
		var decoded struct {
			Index int    `json:"index"`
			Error string `json:"error"`
		}
		if jerr := json.Unmarshal(raw, &decoded); jerr != nil {
			t.Fatal(jerr)
		}
		if decoded.Index != i || decoded.Error != r.Error {
			t.Fatalf("JSON round-trip lost failure cause: %s", raw)
		}
	}
}

// Failed (not cancelled) jobs must also serialize their cause.
func TestPipelineFailedJobSerializesError(t *testing.T) {
	jobs := []Job{
		// Odd path has no perfect matching: the honest prover refuses.
		{Graph: graphgen.Path(7), Scheme: "tree-mso", Params: registry.Params{Property: "perfect-matching"}},
		{Graph: graphgen.Path(4), Scheme: "no-such-scheme"},
	}
	pipe := &Pipeline{Cache: NewCache(registry.Default()), Workers: 2}
	results, err := pipe.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err == nil {
			t.Fatalf("job %d should have failed", i)
		}
		if r.Error != r.Err.Error() {
			t.Fatalf("job %d: Error %q != Err %q", i, r.Error, r.Err)
		}
		raw, jerr := json.Marshal(r)
		if jerr != nil {
			t.Fatal(jerr)
		}
		if !strings.Contains(string(raw), `"error"`) {
			t.Fatalf("job %d: serialized result lost the failure: %s", i, raw)
		}
	}
}

// Distributed jobs verify on the network simulator with identical
// verdicts, and sweep jobs attach a soundness report.
func TestPipelineDistributedAndSweepJobs(t *testing.T) {
	jobs := []Job{
		{Graph: graphgen.Path(8), Scheme: "tree-mso", Params: registry.Params{Property: "perfect-matching"}, Distributed: true},
		{
			Graph:       graphgen.Path(12),
			Scheme:      "tree-mso",
			Params:      registry.Params{Property: "perfect-matching"},
			Distributed: true,
			Sweep:       &TamperSweep{Trials: 5, Seed: 3},
		},
	}
	pipe := &Pipeline{Cache: NewCache(registry.Default()), Workers: 2}
	results, err := pipe.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if !r.Accepted || !r.Distributed {
			t.Fatalf("job %d: %+v", i, r)
		}
	}
	if results[0].Sweep != nil {
		t.Fatal("sweep report attached to a job that did not ask for one")
	}
	sw := results[1].Sweep
	if sw == nil {
		t.Fatal("sweep job has no sweep report")
	}
	mutated := 0
	for _, ts := range sw.Stats {
		if ts.Trials != 5 || ts.NoOps+ts.Mutated != ts.Trials {
			t.Fatalf("inconsistent sweep accounting: %+v", ts)
		}
		mutated += ts.Mutated
	}
	if mutated == 0 {
		t.Fatal("sweep mutated nothing")
	}
	st := Summarize(results)
	if st.SweepMutated != mutated || st.SweepDetected > st.SweepMutated {
		t.Fatalf("batch sweep stats inconsistent: %+v", st)
	}
}

// Lazy jobs materialize their graph inside a worker and can refine
// params; a failing Lazy is an isolated per-job error.
func TestPipelineLazyJobs(t *testing.T) {
	built := atomic.Int64{}
	jobs := []Job{
		{
			Scheme: "tree-mso",
			Lazy: func() (*graph.Graph, registry.Params, error) {
				built.Add(1)
				return graphgen.Path(8), registry.Params{Property: "perfect-matching"}, nil
			},
		},
		{
			Scheme: "tree-mso",
			Lazy: func() (*graph.Graph, registry.Params, error) {
				return nil, registry.Params{}, errors.New("generator exploded")
			},
		},
	}
	pipe := &Pipeline{Cache: NewCache(registry.Default()), Workers: 2}
	results, err := pipe.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || !results[0].Accepted {
		t.Fatalf("lazy job failed: %+v", results[0])
	}
	if results[0].Generate <= 0 {
		t.Fatalf("lazy job has no generation timing: %+v", results[0])
	}
	if built.Load() != 1 {
		t.Fatalf("lazy builder ran %d times, want 1", built.Load())
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "generator exploded") {
		t.Fatalf("lazy failure not surfaced: %+v", results[1])
	}
}

// A nil cache is a caller bug and must be reported, not panic.
func TestPipelineNoCache(t *testing.T) {
	pipe := &Pipeline{}
	if _, err := pipe.Run(context.Background(), []Job{{}}); err == nil {
		t.Fatal("Run without a cache succeeded")
	}
}

// Sanity for the example in the package docs: a cached tree-fo scheme
// accumulates type knowledge across graphs, so later proofs reuse it.
func TestCacheSharesCompiledArtifact(t *testing.T) {
	c := NewCache(registry.Default())
	p := registry.Params{Formula: "forall x. exists y. x ~ y"}
	s1, err := c.GetOrCompile("tree-fo", p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Prove(graphgen.Path(40)); err != nil {
		t.Fatal(err)
	}
	s2, err := c.GetOrCompile("tree-fo", p)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("second lookup returned a fresh scheme")
	}
	if _, err := s2.Prove(graphgen.Path(80)); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func ExampleSummarize() {
	st := Summarize([]JobResult{
		{Accepted: true, MaxBits: 18},
		{Accepted: false},
		{Err: errors.New("boom")},
	})
	fmt.Println(st.Jobs, st.Accepted, st.Rejected, st.Failed, st.MaxBits)
	// Output: 3 1 1 1 18
}

// A batch of tw-mso jobs over the same graph must compute the tree
// decomposition once: the compiled scheme is shared through the compile
// cache and the decomposition through the attached decomposition cache.
func TestDecompCacheReusedAcrossBatchJobs(t *testing.T) {
	cache := NewCache(registry.Default())
	cache.Decomps = NewDecompCache()
	pipe := &Pipeline{Cache: cache, Workers: 4}
	rng := rand.New(rand.NewSource(8))
	g, _ := graphgen.PartialKTree(40, 2, 0.5, rng)
	const jobsN = 6
	jobs := make([]Job, jobsN)
	for i := range jobs {
		jobs[i] = Job{
			Graph:  g,
			Scheme: "tw-mso",
			Params: registry.Params{Property: "tw-bound", T: 2},
		}
	}
	results, err := pipe.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.Err != nil {
			t.Fatalf("job %d: %v", res.Index, res.Err)
		}
		if !res.Accepted {
			t.Fatalf("job %d rejected at %v", res.Index, res.Rejecters)
		}
	}
	st := cache.Decomps.Stats()
	if st.Misses != 1 || st.Hits != jobsN-1 {
		t.Fatalf("decomposition cache stats = %+v, want 1 miss and %d hits", st, jobsN-1)
	}
	// A second batch over the same graph is all hits.
	if _, err := pipe.Run(context.Background(), jobs[:2]); err != nil {
		t.Fatal(err)
	}
	st = cache.Decomps.Stats()
	if st.Misses != 1 || st.Hits != jobsN+1 {
		t.Fatalf("after second batch: %+v", st)
	}
	// A different graph is a fresh miss.
	g2, _ := graphgen.PartialKTree(30, 2, 0.5, rng)
	if _, err := cache.Decomps.Get(g2); err != nil {
		t.Fatal(err)
	}
	if st := cache.Decomps.Stats(); st.Misses != 2 || st.Size != 2 {
		t.Fatalf("after second graph: %+v", st)
	}
	cache.Decomps.Purge()
	if st := cache.Decomps.Stats(); st.Size != 0 {
		t.Fatalf("purge left %d entries", st.Size)
	}
}

// A scheme compiled without the decomposition cache computes its own
// decomposition; with an explicit witness the cache is bypassed entirely.
func TestDecompCacheNotAttachedOverWitness(t *testing.T) {
	cache := NewCache(registry.Default())
	cache.Decomps = NewDecompCache()
	rng := rand.New(rand.NewSource(3))
	g, attach := graphgen.PartialKTree(20, 2, 0.5, rng)
	called := false
	params := registry.Params{Property: "tw-bound", T: 2, DecompProvider: func(gg *graph.Graph) (*treewidth.Decomposition, error) {
		called = true
		return treewidth.FromKTree(gg.N(), 2, attach)
	}}
	s, err := cache.GetOrCompile("tw-mso", params)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Prove(g); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("explicit witness was not used")
	}
	if st := cache.Decomps.Stats(); st.Misses != 0 || st.Hits != 0 {
		t.Fatalf("witness-driven job touched the decomposition cache: %+v", st)
	}
	if st := cache.Stats(); st.Bypasses != 1 {
		t.Fatalf("witness params did not bypass the compile cache: %+v", st)
	}
}

// The decomposition cache is bounded: fingerprints are client-controlled,
// so distinct graphs must not grow it without limit.
func TestDecompCacheBounded(t *testing.T) {
	c := NewDecompCache()
	for i := 0; i < 1100; i++ {
		ids := []graph.ID{1, graph.ID(i + 2)}
		g, err := graph.NewWithIDs(ids)
		if err != nil {
			t.Fatal(err)
		}
		g.MustAddEdge(0, 1)
		if _, err := c.Get(g); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Size > 1024 {
		t.Fatalf("cache grew to %d entries", st.Size)
	}
}

// TestCacheCanonicalFormulaKeys is the cache-canonicalization acceptance
// test: alpha-equivalent and implies-eliminated spellings of one sentence,
// mixed into a single batch, must produce exactly one compile miss — and
// an enum property request must share the flight of its defining
// sentence.
func TestCacheCanonicalFormulaKeys(t *testing.T) {
	t.Run("alpha-and-implies-spellings", func(t *testing.T) {
		cache := NewCache(registry.Default())
		pipe := &Pipeline{Cache: cache, Workers: 4}
		g := graphgen.Star(6)
		spellings := []string{
			"exists x. forall y. x = y | x ~ y",
			"exists a. forall b. !(a = b) -> a ~ b", // implies sugar, NNF-equal
			"exists u. forall w. u = w | u ~ w",     // alpha variant
		}
		jobs := make([]Job, 0, 2*len(spellings))
		for _, src := range spellings {
			jobs = append(jobs,
				Job{Graph: g, Scheme: "depth2-fo", Params: registry.Params{Formula: src}},
				Job{Graph: g, Scheme: "depth2-fo", Params: registry.Params{Formula: src}},
			)
		}
		results, err := pipe.Run(context.Background(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if r.Err != nil {
				t.Fatalf("job %d failed: %v", r.Index, r.Err)
			}
		}
		st := cache.Stats()
		if st.Misses != 1 || st.Hits != int64(len(jobs)-1) {
			t.Fatalf("mixed spellings: misses=%d hits=%d, want 1 miss / %d hits", st.Misses, st.Hits, len(jobs)-1)
		}
		fs := cache.FormulaStats()
		if fs.Size != len(spellings) {
			t.Fatalf("formula memo holds %d spellings, want %d", fs.Size, len(spellings))
		}
	})
	t.Run("enum-and-formula-unified", func(t *testing.T) {
		cache := NewCache(registry.Default())
		pipe := &Pipeline{Cache: cache, Workers: 2}
		g := graphgen.Path(8)
		alias := logic.CanonicalString(logic.MaxDegreeAtMost(2))
		jobs := []Job{
			{Graph: g, Scheme: "tree-mso", Params: registry.Params{Property: "max-degree-<=2"}},
			{Graph: g, Scheme: "tree-mso", Params: registry.Params{Formula: alias}},
			{Graph: g, Scheme: "tree-mso", Params: registry.Params{Property: "max-degree-<=2"}},
		}
		results, err := pipe.Run(context.Background(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if r.Err != nil {
				t.Fatalf("job %d failed: %v", r.Index, r.Err)
			}
			if !r.Accepted {
				t.Fatalf("job %d rejected", r.Index)
			}
		}
		st := cache.Stats()
		if st.Misses != 1 || st.Hits != 2 {
			t.Fatalf("enum+formula: misses=%d hits=%d, want 1 miss / 2 hits", st.Misses, st.Hits)
		}
	})
	t.Run("distinct-sentences-stay-distinct", func(t *testing.T) {
		cache := NewCache(registry.Default())
		k1, err := cache.Key("depth2-fo", registry.Params{Formula: "exists x. exists y. x ~ y"})
		if err != nil {
			t.Fatal(err)
		}
		k2, err := cache.Key("depth2-fo", registry.Params{Formula: "forall x. forall y. x ~ y"})
		if err != nil {
			t.Fatal(err)
		}
		if k1 == k2 {
			t.Fatalf("distinct sentences share key %q", k1)
		}
		// Universal enum names must NOT collapse onto the formula path:
		// the native predicate and the model checker are different
		// deciders with different limits.
		ke, err := cache.Key("universal", registry.Params{Property: "connected"})
		if err != nil {
			t.Fatal(err)
		}
		kf, err := cache.Key("universal", registry.Params{Formula: logic.Connected().String()})
		if err != nil {
			t.Fatal(err)
		}
		if ke == kf {
			t.Fatal("universal enum and formula requests share a cache key")
		}
	})
}

// nopScheme is a trivially cheap compiled scheme for cache-bound tests.
type nopScheme struct{}

func (nopScheme) Holds(*graph.Graph) (bool, error) { return true, nil }
func (nopScheme) Name() string                     { return "nop" }
func (nopScheme) Prove(g *graph.Graph) (cert.Assignment, error) {
	return make(cert.Assignment, g.N()), nil
}
func (nopScheme) Verify(cert.View) bool { return true }

// The compile cache is bounded: every distinct canonical formula a client
// sends compiles to its own scheme, so more distinct formulas than the
// bound must not grow the cache past it.
func TestCacheBounded(t *testing.T) {
	r := registry.New()
	r.MustRegister(registry.Entry{
		Info:  registry.Info{Name: "nop", Needs: []registry.Param{registry.ParamFormula}},
		Build: func(registry.Params) (cert.Scheme, error) { return nopScheme{}, nil },
	})
	c := NewCache(r)
	const formulas = maxCompileEntries + 100
	for i := 0; i < formulas; i++ {
		// Bit b of i picks the b-th disjunct, so every i spells a
		// structurally distinct sentence.
		atoms := make([]string, 13)
		for b := range atoms {
			atoms[b] = "x = y"
			if i>>b&1 == 1 {
				atoms[b] = "x ~ y"
			}
		}
		f := "forall x. forall y. " + strings.Join(atoms, " | ")
		if _, err := c.GetOrCompile("nop", registry.Params{Formula: f}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Misses != formulas {
		t.Fatalf("%d compiles for %d distinct formulas", st.Misses, formulas)
	}
	if st.Size > maxCompileEntries {
		t.Fatalf("compile cache grew to %d entries (bound %d)", st.Size, maxCompileEntries)
	}
}
