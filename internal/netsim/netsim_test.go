package netsim

import (
	"context"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/graphgen"
	"repro/internal/spanning"
)

// degreeAtMost mirrors the toy scheme from package cert's tests.
type degreeAtMost struct{ D int }

func (s degreeAtMost) Name() string                       { return "degree-at-most" }
func (s degreeAtMost) Holds(g *graph.Graph) (bool, error) { return g.MaxDegree() <= s.D, nil }
func (s degreeAtMost) Prove(g *graph.Graph) (cert.Assignment, error) {
	return make(cert.Assignment, g.N()), nil
}
func (s degreeAtMost) Verify(v cert.View) bool { return v.Degree() <= s.D }

var _ cert.Scheme = degreeAtMost{}

// sameVerdict fails the test unless the report matches the sequential
// result exactly (accepted flag and sorted rejecter list).
func sameVerdict(t *testing.T, rep Report, seq cert.Result) {
	t.Helper()
	if rep.Accepted != seq.Accepted {
		t.Fatalf("distributed %v vs sequential %v", rep.Accepted, seq.Accepted)
	}
	if len(rep.Rejecters) != len(seq.Rejecters) {
		t.Fatalf("rejecters: %v vs %v", rep.Rejecters, seq.Rejecters)
	}
	for i := range rep.Rejecters {
		if rep.Rejecters[i] != seq.Rejecters[i] {
			t.Fatalf("rejecters: %v vs %v", rep.Rejecters, seq.Rejecters)
		}
	}
}

func TestRunMatchesSequentialOnAcceptingInstance(t *testing.T) {
	g := graphgen.Cycle(8)
	s := degreeAtMost{D: 2}
	a := make(cert.Assignment, g.N())
	rep, err := Run(context.Background(), g, s, a)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Accepted || rep.Rounds != 1 {
		t.Fatalf("rep = %+v", rep)
	}
}

func TestRunMatchesSequentialOnRejectingInstance(t *testing.T) {
	g := graphgen.Star(7)
	s := degreeAtMost{D: 2}
	a := make(cert.Assignment, g.N())
	rep, err := Run(context.Background(), g, s, a)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := cert.RunSequential(g, s, a)
	if err != nil {
		t.Fatal(err)
	}
	sameVerdict(t, rep, seq)
}

func TestRunAgreesWithSequentialQuick(t *testing.T) {
	// Property: on random graphs with random certificates, the sharded
	// simulator and the sequential referee give identical verdicts.
	s := degreeAtMost{D: 3}
	f := func(seed int64, sz uint8) bool {
		n := int(sz%20) + 2
		rng := rand.New(rand.NewSource(seed))
		g := graphgen.RandomConnected(n, n/2, rng)
		a := cert.RandomAssignment(n, 8, rng)
		rep, err := Run(context.Background(), g, s, a)
		if err != nil {
			return false
		}
		seq, err := cert.RunSequential(g, s, a)
		if err != nil {
			return false
		}
		if rep.Accepted != seq.Accepted || len(rep.Rejecters) != len(seq.Rejecters) {
			return false
		}
		for i := range rep.Rejecters {
			if rep.Rejecters[i] != seq.Rejecters[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestShardedEquivalenceProperty is the differential property test of the
// sharded rewrite: random (graph, scheme, tamper, seed) cases must give
// identical Accepted and Rejecters under the sharded engine and the
// sequential referee — on honest and on tampered assignments, across
// worker counts.
func TestShardedEquivalenceProperty(t *testing.T) {
	tampers := cert.StandardTampers()
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := graphgen.RandomConnected(n, rng.Intn(n), rng)

		var s cert.Scheme
		var honest cert.Assignment
		if seed%2 == 0 {
			s = degreeAtMost{D: 1 + rng.Intn(4)}
			honest = make(cert.Assignment, n)
		} else {
			s = spanning.Tree{}
			var err error
			honest, err = s.Prove(g)
			if err != nil {
				t.Fatalf("seed %d: prove: %v", seed, err)
			}
		}
		a := honest
		if tm := tampers[rng.Intn(len(tampers))]; rng.Intn(3) > 0 {
			a, _ = tm.Apply(honest, rng)
		}

		seq, err := cert.RunSequential(g, s, a)
		if err != nil {
			t.Fatalf("seed %d: sequential: %v", seed, err)
		}
		for _, workers := range []int{1, 2, 7, 0} {
			e := &Engine{Workers: workers}
			rep, err := e.Run(context.Background(), g, s, a)
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			sameVerdict(t, rep, seq)
		}
	}
}

// TestEngineReuseAcrossRuns exercises the sync.Pool path: repeated runs on
// one engine (the serving pattern) must keep producing correct verdicts
// even though view buffers are recycled.
func TestEngineReuseAcrossRuns(t *testing.T) {
	e := &Engine{Workers: 3}
	rng := rand.New(rand.NewSource(11))
	g := graphgen.RandomConnected(60, 40, rng)
	s := spanning.Tree{}
	honest, err := s.Prove(g)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		a := honest
		if i%2 == 1 {
			a, _ = cert.RandomizeOne().Apply(honest, rng)
		}
		seq, err := cert.RunSequential(g, s, a)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run(context.Background(), g, s, a)
		if err != nil {
			t.Fatal(err)
		}
		sameVerdict(t, rep, seq)
	}
}

// goroutineCounter records the peak goroutine count observed while its
// Verify is running — a probe for the bounded-concurrency guarantee.
type goroutineCounter struct {
	max atomic.Int64
}

func (c *goroutineCounter) Name() string                       { return "goroutine-counter" }
func (c *goroutineCounter) Holds(g *graph.Graph) (bool, error) { return true, nil }
func (c *goroutineCounter) Prove(g *graph.Graph) (cert.Assignment, error) {
	return make(cert.Assignment, g.N()), nil
}
func (c *goroutineCounter) Verify(v cert.View) bool {
	n := int64(runtime.NumGoroutine())
	for {
		old := c.max.Load()
		if n <= old || c.max.CompareAndSwap(old, n) {
			return true
		}
	}
}

func TestRunGoroutinesBoundedByWorkerCount(t *testing.T) {
	const workers = 4
	base := runtime.NumGoroutine()
	e := &Engine{Workers: workers}
	probe := &goroutineCounter{}
	g := graphgen.Path(10000)
	if _, err := e.Run(context.Background(), g, probe, make(cert.Assignment, g.N())); err != nil {
		t.Fatal(err)
	}
	// Allow a small slack for runtime/test goroutines that come and go,
	// but nothing anywhere near the per-vertex regime (n + const).
	if peak := probe.max.Load(); peak > int64(base+workers+4) {
		t.Fatalf("observed %d goroutines during run; base %d + workers %d exceeded", peak, base, workers)
	}
}

// blockingScheme sleeps in Verify so a cancellation lands mid-run.
type blockingScheme struct{ d time.Duration }

func (s blockingScheme) Name() string                       { return "blocking" }
func (s blockingScheme) Holds(g *graph.Graph) (bool, error) { return true, nil }
func (s blockingScheme) Prove(g *graph.Graph) (cert.Assignment, error) {
	return make(cert.Assignment, g.N()), nil
}
func (s blockingScheme) Verify(v cert.View) bool {
	time.Sleep(s.d)
	return true
}

// TestRunNoGoroutineLeakOnCancellation pins down the no-leak guarantee:
// after a cancelled Run returns, every worker goroutine has been joined.
// This is the regression test the sharded rewrite must keep green.
func TestRunNoGoroutineLeakOnCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	e := &Engine{Workers: 4}
	g := graphgen.Path(4000)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	_, err := e.Run(ctx, g, blockingScheme{d: 50 * time.Microsecond}, make(cert.Assignment, g.N()))
	if err == nil {
		t.Fatal("cancelled run reported success")
	}
	// Run joins its workers before returning; only the cancel helper above
	// may still be winding down. Poll briefly to avoid scheduler noise.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRunSizeMismatch(t *testing.T) {
	g := graphgen.Path(3)
	if _, err := Run(context.Background(), g, degreeAtMost{D: 5}, make(cert.Assignment, 1)); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := graphgen.Path(50)
	_, err := Run(ctx, g, degreeAtMost{D: 5}, make(cert.Assignment, 50))
	if err == nil {
		t.Fatal("pre-cancelled context accepted")
	}
}

// TestShardedLargeN is the scale acceptance check: a 100k-vertex round
// must complete on the sharded engine.
func TestShardedLargeN(t *testing.T) {
	const n = 100000
	rng := rand.New(rand.NewSource(3))
	g := graphgen.RandomTree(n, rng)
	s := spanning.Tree{}
	a, err := s.Prove(g)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), g, s, a)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Accepted {
		t.Fatalf("honest 100k-vertex assignment rejected at %v", rep.Rejecters[:min(len(rep.Rejecters), 5)])
	}
}

func TestSweepDetectsStandardTampers(t *testing.T) {
	g := graphgen.Cycle(40)
	s := spanning.Tree{}
	honest, err := s.Prove(g)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Sweep(context.Background(), g, s, honest, 15, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.AllDetected {
		t.Fatalf("undetected corruption: %+v", rep.Stats)
	}
	sawMutation := false
	for _, st := range rep.Stats {
		if st.Trials != 15 || st.NoOps+st.Mutated != st.Trials {
			t.Fatalf("inconsistent accounting: %+v", st)
		}
		if st.Mutated > 0 {
			sawMutation = true
			if st.Detected != st.Mutated || st.DetectionRate() != 1 {
				t.Fatalf("tamper %s: %d/%d detected", st.Tamper, st.Detected, st.Mutated)
			}
			if st.Rejecters == 0 {
				t.Fatalf("tamper %s detected with no rejecters", st.Tamper)
			}
		}
	}
	if !sawMutation {
		t.Fatal("sweep produced no mutated trial at all")
	}
}

func TestSweepCountsNoOpsSeparately(t *testing.T) {
	// degreeAtMost uses empty certificates, so flip/truncate/randomize can
	// never mutate and swap swaps identical (empty) certificates: every
	// trial must be accounted as a no-op, not as undetected corruption.
	g := graphgen.Cycle(12)
	s := degreeAtMost{D: 2}
	honest := make(cert.Assignment, g.N())
	rep, err := Sweep(context.Background(), g, s, honest, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.AllDetected {
		t.Fatalf("no-op trials reported as undetected corruption: %+v", rep.Stats)
	}
	for _, st := range rep.Stats {
		if st.NoOps != st.Trials || st.Mutated != 0 {
			t.Fatalf("tamper %s on empty certificates: %+v", st.Tamper, st)
		}
	}
}

// TestSweepPerTamperIndependence pins the reproduction contract: a single
// tamper kind re-run with the same seed must replay exactly the trials it
// had inside a full-family sweep, whatever its position there.
func TestSweepPerTamperIndependence(t *testing.T) {
	g := graphgen.Cycle(30)
	s := spanning.Tree{}
	honest, err := s.Prove(g)
	if err != nil {
		t.Fatal(err)
	}
	family := cert.StandardTampers()
	full, err := Default.Sweep(context.Background(), g, s, honest, family, 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Reversed family and solo runs must give identical per-name stats.
	reversed := make([]cert.Tamper, len(family))
	for i, tm := range family {
		reversed[len(family)-1-i] = tm
	}
	rev, err := Default.Sweep(context.Background(), g, s, honest, reversed, 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	byName := func(rep SweepReport) map[string]TamperStat {
		m := map[string]TamperStat{}
		for _, st := range rep.Stats {
			st.VerifyNS = 0 // wall time legitimately varies
			m[st.Tamper] = st
		}
		return m
	}
	fullBy, revBy := byName(full), byName(rev)
	for name, st := range fullBy {
		if got := revBy[name]; got.Mutated != st.Mutated || got.Detected != st.Detected || got.NoOps != st.NoOps {
			t.Fatalf("tamper %s depends on family order: %+v vs %+v", name, st, got)
		}
		solo, err := Default.Sweep(context.Background(), g, s, honest, []cert.Tamper{cert.StandardTampers()[indexOf(family, name)]}, 12, 5)
		if err != nil {
			t.Fatal(err)
		}
		soloSt := byName(solo)[name]
		if soloSt.Mutated != st.Mutated || soloSt.Detected != st.Detected || soloSt.NoOps != st.NoOps {
			t.Fatalf("tamper %s depends on family presence: %+v vs %+v", name, st, soloSt)
		}
	}
}

func indexOf(family []cert.Tamper, name string) int {
	for i, tm := range family {
		if tm.Name == name {
			return i
		}
	}
	return -1
}

func TestSweepRejectsBadInput(t *testing.T) {
	g := graphgen.Path(4)
	if _, err := Sweep(context.Background(), g, degreeAtMost{D: 5}, make(cert.Assignment, 2), 5, 1); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if _, err := Sweep(context.Background(), g, degreeAtMost{D: 5}, make(cert.Assignment, 4), 0, 1); err == nil {
		t.Fatal("zero trials accepted")
	}
}
