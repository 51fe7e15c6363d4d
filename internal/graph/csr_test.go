package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// randomMutable builds a graph through the mutable AddEdge path with the
// given density, deliberately inserting edges in scrambled order so CSR
// construction has to sort rows.
func randomMutable(rng *rand.Rand, n int, p float64) *Graph {
	g := New(n)
	type e struct{ u, v int }
	var edges []e
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				edges = append(edges, e{u, v})
			}
		}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	for _, ed := range edges {
		if rng.Intn(2) == 0 {
			g.MustAddEdge(ed.v, ed.u)
		} else {
			g.MustAddEdge(ed.u, ed.v)
		}
	}
	return g
}

// TestCSRRowsSortedAndComplete: the snapshot holds exactly the adjacency,
// sorted, regardless of insertion order.
func TestCSRRowsSortedAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		g := randomMutable(rng, 1+rng.Intn(40), 0.3)
		c := g.CSR()
		if c.N() != g.N() || c.M() != g.M() {
			t.Fatalf("CSR n=%d m=%d, graph n=%d m=%d", c.N(), c.M(), g.N(), g.M())
		}
		for v := 0; v < g.N(); v++ {
			row := c.Row(v)
			if !sort.SliceIsSorted(row, func(i, j int) bool { return row[i] < row[j] }) {
				t.Fatalf("row %d not sorted: %v", v, row)
			}
			want := append([]int(nil), g.Neighbors(v)...)
			sort.Ints(want)
			got := make([]int, len(row))
			for i, w := range row {
				got[i] = int(w)
			}
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("row %d: %v, want %v", v, got, want)
			}
			if c.Degree(v) != g.Degree(v) {
				t.Fatalf("degree %d mismatch", v)
			}
		}
	}
}

// TestCSRHasEdgeMatrix: binary-search HasEdge agrees with the slice scan
// for every pair, and the graph-level HasEdge agrees with both before
// and after the snapshot exists.
func TestCSRHasEdgeMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	g := randomMutable(rng, 30, 0.25)
	// Before CSR: slice path.
	pre := make(map[[2]int]bool)
	for u := 0; u < 30; u++ {
		for v := 0; v < 30; v++ {
			pre[[2]int{u, v}] = g.HasEdge(u, v)
		}
	}
	c := g.CSR()
	for u := 0; u < 30; u++ {
		for v := 0; v < 30; v++ {
			if got := c.HasEdge(u, v); got != pre[[2]int{u, v}] {
				t.Fatalf("CSR.HasEdge(%d,%d)=%v, slice scan says %v", u, v, got, !got)
			}
			if got := g.HasEdge(u, v); got != pre[[2]int{u, v}] {
				t.Fatalf("Graph.HasEdge(%d,%d) changed after snapshot", u, v)
			}
		}
	}
}

// TestCSRInvalidatedByAddEdge: mutating the graph drops the snapshot and
// the next one reflects the new edge.
func TestCSRInvalidatedByAddEdge(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1)
	c1 := g.CSR()
	if c1.HasEdge(2, 3) {
		t.Fatal("phantom edge")
	}
	g.MustAddEdge(2, 3)
	c2 := g.CSR()
	if c1 == c2 {
		t.Fatal("snapshot not invalidated by AddEdge")
	}
	if !c2.HasEdge(2, 3) || !c2.HasEdge(0, 1) {
		t.Fatal("new snapshot missing edges")
	}
	// The old snapshot stays immutable and self-consistent.
	if c1.M() != 1 || c1.HasEdge(2, 3) {
		t.Fatal("old snapshot mutated")
	}
}

// TestBFSFromMatchesReference pins the CSR BFS against the retained
// slice-adjacency reference across random graphs, including
// disconnected ones.
func TestBFSFromMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		g := randomMutable(rng, 1+rng.Intn(50), []float64{0.02, 0.1, 0.5}[trial%3])
		src := rng.Intn(g.N())
		if got, want := g.BFSFrom(src), g.bfsFromRef(src); !reflect.DeepEqual(got, want) {
			t.Fatalf("BFSFrom(%d) diverges from reference\ngot  %v\nwant %v", src, got, want)
		}
	}
}

// TestComponentsMatchesReference pins CSR component discovery against
// the slice reference.
func TestComponentsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 40; trial++ {
		g := randomMutable(rng, 1+rng.Intn(50), []float64{0.0, 0.03, 0.15}[trial%3])
		if got, want := g.Components(), g.componentsRef(); !reflect.DeepEqual(got, want) {
			t.Fatalf("Components diverges from reference\ngot  %v\nwant %v", got, want)
		}
	}
}

// canonBlocks sorts a block list so two biconnected-component
// enumerations can be compared independently of DFS traversal order.
func canonBlocks(blocks [][]int) [][]int {
	out := make([][]int, len(blocks))
	for i, b := range blocks {
		c := append([]int(nil), b...)
		sort.Ints(c)
		out[i] = c
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
	return out
}

// TestStructureMatchesReference pins CSR articulation points and
// biconnected components against the retained slice references. Block
// sets are compared canonically: the CSR DFS visits neighbours in
// sorted order, which may legitimately pop blocks in a different order
// than the insertion-ordered slice DFS.
func TestStructureMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 40; trial++ {
		g := randomMutable(rng, 1+rng.Intn(40), []float64{0.05, 0.1, 0.3}[trial%3])
		if got, want := g.ArticulationPoints(), g.articulationPointsRef(); !reflect.DeepEqual(got, want) {
			t.Fatalf("articulation points diverge\ngot  %v\nwant %v\ngraph %v", got, want, g)
		}
		got := canonBlocks(g.BiconnectedComponents())
		want := canonBlocks(g.biconnectedComponentsRef())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("biconnected components diverge\ngot  %v\nwant %v\ngraph %v", got, want, g)
		}
	}
}

// TestBuilderMatchesMutable: the bulk Builder and the incremental
// AddEdge path produce graphs with identical edge sets, IDs and CSR
// rows.
func TestBuilderMatchesMutable(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(40)
		ref := New(n)
		b := NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.2 {
					ref.MustAddEdge(u, v)
					// Feed the builder in arbitrary orientation.
					if rng.Intn(2) == 0 {
						u, v := v, u
						if err := b.AddEdge(u, v); err != nil {
							t.Fatal(err)
						}
					} else if err := b.AddEdge(u, v); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		g, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g.Edges(), ref.Edges()) {
			t.Fatalf("edge sets differ")
		}
		if g.M() != ref.M() || g.N() != ref.N() || g.MaxID() != ref.MaxID() {
			t.Fatalf("shape differs: m %d/%d n %d/%d", g.M(), ref.M(), g.N(), ref.N())
		}
		for v := 0; v < n; v++ {
			got := append([]int(nil), g.Neighbors(v)...)
			want := append([]int(nil), ref.Neighbors(v)...)
			sort.Ints(want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("row %d differs: %v vs %v", v, got, want)
			}
		}
	}
}

// TestBuilderErrors: validation at AddEdge (range, self-loop) and at
// Finish (duplicates, either orientation).
func TestBuilderErrors(t *testing.T) {
	b := NewBuilder(3)
	if err := b.AddEdge(0, 0); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := b.AddEdge(-1, 2); err == nil {
		t.Fatal("negative index accepted")
	}
	if err := b.AddEdge(0, 3); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Finish(); err == nil {
		t.Fatal("duplicate edge (reversed orientation) accepted at Finish")
	}
}

// TestBuilderGraphSafeToMutate: a Builder-produced graph uses one flat
// backing array with capacity-capped rows; AddEdge after Finish must
// reallocate, not clobber the next row.
func TestBuilderGraphSafeToMutate(t *testing.T) {
	b := NewBuilder(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	before := append([]int(nil), g.Neighbors(1)...)
	g.MustAddEdge(0, 3) // grows row 0 and row 3
	after := append([]int(nil), g.Neighbors(1)...)
	sort.Ints(before)
	sort.Ints(after)
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("appending to row 0 clobbered row 1: %v -> %v", before, after)
	}
	if !g.HasEdge(0, 3) || !g.HasEdge(3, 0) {
		t.Fatal("post-Finish edge missing")
	}
}

// TestBuilderWithIDs: custom IDs round-trip through the builder, and
// default IDs skip the lookup map.
func TestBuilderWithIDs(t *testing.T) {
	b, err := NewBuilderWithIDs([]ID{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if g.MaxID() != 30 {
		t.Fatalf("MaxID = %d", g.MaxID())
	}
	if i, ok := g.IndexOf(20); !ok || i != 1 {
		t.Fatal("IndexOf wrong for custom IDs")
	}
	if _, ok := g.IndexOf(99); ok {
		t.Fatal("IndexOf found nonexistent ID")
	}
	if _, err := NewBuilderWithIDs([]ID{1, 1}); err == nil {
		t.Fatal("duplicate IDs accepted")
	}
}

// TestMaxIDFixedAtConstruction: MaxID is computed once; it reflects the
// ID set, not edge activity, and IndexOf stays correct on both the
// arithmetic (default) and map (custom) paths.
func TestMaxIDFixedAtConstruction(t *testing.T) {
	g := New(5)
	if g.MaxID() != 5 {
		t.Fatalf("default MaxID = %d, want 5", g.MaxID())
	}
	for v := 0; v < 5; v++ {
		if i, ok := g.IndexOf(ID(v + 1)); !ok || i != v {
			t.Fatalf("IndexOf(%d) != %d", v+1, v)
		}
	}
	for _, id := range []ID{0, 6, -3} {
		if _, ok := g.IndexOf(id); ok {
			t.Fatalf("IndexOf accepted out-of-range default ID %d", id)
		}
	}
	h, err := NewWithIDs([]ID{7, 3, 42})
	if err != nil {
		t.Fatal(err)
	}
	if h.MaxID() != 42 {
		t.Fatalf("custom MaxID = %d, want 42", h.MaxID())
	}
	if i, ok := h.IndexOf(3); !ok || i != 1 {
		t.Fatal("IndexOf wrong on map path")
	}
	if _, ok := h.IndexOf(8); ok {
		t.Fatal("IndexOf found nonexistent custom ID")
	}
}

// bfsFromRef is the retained slice-adjacency reference for BFSFrom; the
// differential test pins the CSR traversal byte-identical to it.
func (g *Graph) bfsFromRef(src int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	if src < 0 || src >= g.N() {
		return dist
	}
	dist[src] = 0
	queue := make([]int, 0, g.N())
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// componentsRef is the retained slice-adjacency reference for Components.
func (g *Graph) componentsRef() [][]int {
	seen := make([]bool, g.N())
	var comps [][]int
	for s := 0; s < g.N(); s++ {
		if seen[s] {
			continue
		}
		var comp []int
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, v := range g.adj[u] {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// articulationPointsRef is the retained slice-adjacency reference the
// differential test pins the CSR version against.
func (g *Graph) articulationPointsRef() []int {
	n := g.N()
	disc := make([]int, n)
	low := make([]int, n)
	parent := make([]int, n)
	isCut := make([]bool, n)
	for i := range disc {
		disc[i] = -1
		parent[i] = -1
	}
	timer := 0

	type frame struct {
		v, childIdx, rootChildren int
	}
	for s := 0; s < n; s++ {
		if disc[s] != -1 {
			continue
		}
		stack := []frame{{v: s}}
		disc[s] = timer
		low[s] = timer
		timer++
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			v := f.v
			if f.childIdx < len(g.adj[v]) {
				w := g.adj[v][f.childIdx]
				f.childIdx++
				if w == parent[v] {
					continue
				}
				if disc[w] != -1 {
					if disc[w] < low[v] {
						low[v] = disc[w]
					}
					continue
				}
				parent[w] = v
				if v == s {
					f.rootChildren++
				}
				disc[w] = timer
				low[w] = timer
				timer++
				stack = append(stack, frame{v: w})
				continue
			}
			stack = stack[:len(stack)-1]
			if p := parent[v]; p != -1 {
				if low[v] < low[p] {
					low[p] = low[v]
				}
				if p != s && low[v] >= disc[p] {
					isCut[p] = true
				}
			}
		}
		rootChildren := 0
		for _, w := range g.adj[s] {
			if parent[w] == s {
				rootChildren++
			}
		}
		if rootChildren >= 2 {
			isCut[s] = true
		}
	}

	var out []int
	for v, cut := range isCut {
		if cut {
			out = append(out, v)
		}
	}
	return out
}

// biconnectedComponentsRef is the retained slice-adjacency reference the
// differential test pins the CSR version against.
func (g *Graph) biconnectedComponentsRef() [][]int {
	n := g.N()
	disc := make([]int, n)
	low := make([]int, n)
	parent := make([]int, n)
	for i := range disc {
		disc[i] = -1
		parent[i] = -1
	}
	timer := 0
	var edgeStack [][2]int
	var blocks [][]int

	popBlock := func(u, w int) {
		seen := map[int]bool{}
		for len(edgeStack) > 0 {
			e := edgeStack[len(edgeStack)-1]
			edgeStack = edgeStack[:len(edgeStack)-1]
			seen[e[0]] = true
			seen[e[1]] = true
			if e[0] == u && e[1] == w || e[0] == w && e[1] == u {
				break
			}
		}
		block := make([]int, 0, len(seen))
		for v := range seen {
			block = append(block, v)
		}
		sort.Ints(block)
		blocks = append(blocks, block)
	}

	type frame struct {
		v, childIdx int
	}
	for s := 0; s < n; s++ {
		if disc[s] != -1 {
			continue
		}
		stack := []frame{{v: s}}
		disc[s] = timer
		low[s] = timer
		timer++
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			v := f.v
			if f.childIdx < len(g.adj[v]) {
				w := g.adj[v][f.childIdx]
				f.childIdx++
				if w == parent[v] {
					continue
				}
				if disc[w] != -1 {
					if disc[w] < disc[v] { // back edge
						edgeStack = append(edgeStack, [2]int{v, w})
						if disc[w] < low[v] {
							low[v] = disc[w]
						}
					}
					continue
				}
				parent[w] = v
				edgeStack = append(edgeStack, [2]int{v, w})
				disc[w] = timer
				low[w] = timer
				timer++
				stack = append(stack, frame{v: w})
				continue
			}
			stack = stack[:len(stack)-1]
			if p := parent[v]; p != -1 {
				if low[v] < low[p] {
					low[p] = low[v]
				}
				if low[v] >= disc[p] {
					popBlock(p, v)
				}
			}
		}
	}
	return blocks
}
