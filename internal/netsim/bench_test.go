package netsim

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cert"
	"repro/internal/graphgen"
	"repro/internal/spanning"
)

// BenchmarkSimulator measures one sharded verification round on an honest
// spanning-tree assignment on a random tree. The interesting columns are
// ns/op and allocs/op (the engine reuses pooled shard buffers, so the
// steady state should allocate almost nothing).
func BenchmarkSimulator(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		rng := rand.New(rand.NewSource(7))
		g := graphgen.RandomTree(n, rng)
		s := spanning.Tree{}
		a, err := s.Prove(g)
		if err != nil {
			b.Fatal(err)
		}
		e := &Engine{}
		b.Run(fmt.Sprintf("sharded-n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(context.Background(), g, s, a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweep measures a full adversarial sweep (standard tamper family
// x trials) on a mid-size instance — the unit of work POST /simulate with
// a tamper spec performs.
func BenchmarkSweep(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g := graphgen.RandomTree(2000, rng)
	s := spanning.Tree{}
	a, err := s.Prove(g)
	if err != nil {
		b.Fatal(err)
	}
	e := &Engine{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Sweep(context.Background(), g, s, a, cert.StandardTampers(), 3, 1); err != nil {
			b.Fatal(err)
		}
	}
}
