package wire

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/graphgen"
	"repro/internal/treewidth"
)

func sameGraph(t *testing.T, a, b *graph.Graph) {
	t.Helper()
	if a.N() != b.N() || a.M() != b.M() {
		t.Fatalf("size mismatch: (%d,%d) vs (%d,%d)", a.N(), a.M(), b.N(), b.M())
	}
	for v := 0; v < a.N(); v++ {
		if a.IDOf(v) != b.IDOf(v) {
			t.Fatalf("vertex %d: id %d vs %d", v, a.IDOf(v), b.IDOf(v))
		}
	}
	ae, be := a.Edges(), b.Edges()
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("edge %d: %v vs %v", i, ae[i], be[i])
		}
	}
}

// JSON graph form must round-trip through encoding/json.
func TestGraphJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, g := range []*graph.Graph{graphgen.Star(12), graphgen.RandomTree(50, rng)} {
		blob, err := json.Marshal(GraphToJSON(g))
		if err != nil {
			t.Fatal(err)
		}
		var j GraphJSON
		if err := json.Unmarshal(blob, &j); err != nil {
			t.Fatal(err)
		}
		got, err := j.ToGraph()
		if err != nil {
			t.Fatal(err)
		}
		sameGraph(t, g, got)
	}
}

func TestGraphJSONErrors(t *testing.T) {
	cases := []GraphJSON{
		{N: 3, Edges: [][2]int{{0, 3}}},         // endpoint out of range
		{N: 2, Edges: [][2]int{{0, 0}}},         // self loop
		{N: 2, IDs: []int64{1, 2, 3}},           // id count mismatch
		{N: 2, IDs: []int64{5, 5}},              // duplicate ids
		{N: 3, Edges: [][2]int{{0, 1}, {0, 1}}}, // duplicate edge
		{N: -1},                                 // negative count
		{N: MaxGraphVertices + 1},               // hostile huge header
	}
	for i, j := range cases {
		if _, err := j.ToGraph(); err == nil {
			t.Fatalf("case %d: ToGraph accepted invalid input %+v", i, j)
		}
	}
}

// Assignments round-trip through the JSON bit-string form, including
// empty certificates.
func TestAssignmentRoundTrip(t *testing.T) {
	a := cert.Assignment{
		{1, 0, 1, 1, 0},
		nil,
		{0},
		{1, 1, 1, 1, 1, 1, 1, 1, 1},
	}
	strs := AssignmentToStrings(a)
	if strs[0] != "10110" || strs[1] != "" || strs[2] != "0" {
		t.Fatalf("AssignmentToStrings = %v", strs)
	}
	back, err := AssignmentFromStrings(strs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if len(back[i]) != len(a[i]) {
			t.Fatalf("string round trip: certificate %d has %d bits, want %d", i, len(back[i]), len(a[i]))
		}
	}
}

func TestAssignmentErrors(t *testing.T) {
	if _, err := AssignmentFromStrings([]string{"01x"}); err == nil {
		t.Fatal("accepted a non-bit character")
	}
}

// Generator specs must build the families the CLI and server advertise,
// deterministically per seed.
func TestGeneratorSpec(t *testing.T) {
	for _, kind := range GeneratorKinds() {
		spec := GeneratorSpec{Kind: kind, N: 24, T: 3, Seed: 9}
		g, witness, err := spec.Build()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if g.N() != 24 {
			t.Fatalf("%s: n = %d, want 24", kind, g.N())
		}
		if (kind == "random-td") != (witness.Model != nil) {
			t.Fatalf("%s: model witness presence wrong", kind)
		}
		wantDecomp := kind == "k-tree" || kind == "partial-k-tree"
		if wantDecomp != (witness.Decomp != nil) {
			t.Fatalf("%s: decomposition witness presence wrong", kind)
		}
		if witness.Model != nil {
			m, err := witness.Model(g)
			if err != nil {
				t.Fatalf("%s: model witness: %v", kind, err)
			}
			if m == nil {
				t.Fatalf("%s: model witness returned nil", kind)
			}
		}
		if witness.Decomp != nil {
			d, err := witness.Decomp(g)
			if err != nil {
				t.Fatalf("%s: decomposition witness: %v", kind, err)
			}
			if err := treewidth.Validate(g, d); err != nil {
				t.Fatalf("%s: decomposition witness invalid: %v", kind, err)
			}
			if d.Width() > spec.T {
				t.Fatalf("%s: witness width %d exceeds k=%d", kind, d.Width(), spec.T)
			}
		}
		// Same seed, same graph.
		g2, _, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		sameGraph(t, g, g2)
	}
	bad := []GeneratorSpec{
		{Kind: "nope", N: 5},
		{Kind: "path", N: 0},
		{Kind: "random-td", N: 10, T: 0},
		{Kind: "path", N: 1 << 21},
		{Kind: "k-tree", N: 10, T: 0},
		{Kind: "partial-k-tree", N: 3, T: 3},
		// Implied edge count beyond the cap: a hostile clique size must be
		// rejected before any construction.
		{Kind: "k-tree", N: 1 << 20, T: 1<<20 - 1},
		{Kind: "partial-k-tree", N: 1 << 16, T: 1 << 10},
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Fatalf("case %d: Validate accepted %+v", i, spec)
		}
		if _, _, err := spec.Build(); err == nil {
			t.Fatalf("case %d: Build accepted %+v", i, spec)
		}
	}
}

// DecompositionToJSON carries every bag and each tree edge exactly once.
func TestDecompositionRoundTrip(t *testing.T) {
	g, witness, err := GeneratorSpec{Kind: "partial-k-tree", N: 20, T: 2, Seed: 4}.Build()
	if err != nil {
		t.Fatal(err)
	}
	d, err := witness.Decomp(g)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(DecompositionToJSON(d))
	if err != nil {
		t.Fatal(err)
	}
	var j DecompositionJSON
	if err := json.Unmarshal(blob, &j); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(j.Bags, d.Bags) {
		t.Fatalf("JSON bags = %v, want %v", j.Bags, d.Bags)
	}
	var want [][2]int
	for b, nbrs := range d.Adj {
		for _, c := range nbrs {
			if b < c {
				want = append(want, [2]int{b, c})
			}
		}
	}
	if len(want) != d.NumTreeEdges() || !reflect.DeepEqual(j.Edges, want) {
		t.Fatalf("JSON edges = %v, want %v (%d tree edges)", j.Edges, want, d.NumTreeEdges())
	}
}
