package treewidth

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/graphgen"
	"repro/internal/logic"
)

// bookGraph returns the "book" B_k — an edge {0,1} shared by k triangles —
// together with a decomposition whose spine bag {0,1} has all k triangle
// bags as children. MakeNice folds those children through k-1 binary
// joins, which makes the pair the join-heaviest shape the DP meets.
func bookGraph(k int) (*graph.Graph, *Decomposition) {
	g := graph.New(2 + k)
	g.MustAddEdge(0, 1)
	d := &Decomposition{
		Bags: [][]int{{0, 1}},
		Adj:  make([][]int, 1+k),
	}
	for i := 0; i < k; i++ {
		w := 2 + i
		g.MustAddEdge(0, w)
		g.MustAddEdge(1, w)
		d.Bags = append(d.Bags, []int{0, 1, w})
		d.Adj[0] = append(d.Adj[0], 1+i)
		d.Adj[1+i] = append(d.Adj[1+i], 0)
	}
	return g, d
}

// TestSolveEMSODifferential drives the table-driven engine against the
// retained map-based reference over random (graph, sentence, seed)
// triples — including width-0/single-vertex instances and join-heavy
// decompositions — and requires identical verdicts and identical
// extracted witness words.
func TestSolveEMSODifferential(t *testing.T) {
	sentences := []logic.Formula{
		logic.TrueSentence(),
		logic.TwoColorable(),
		logic.ThreeColorable(),
		logic.TriangleFree(),
		logic.MustParse("existsset S. forall x. forall y. x ~ y -> !(x in S & y in S)"),
	}
	type instance struct {
		name string
		g    *graph.Graph
		d    *Decomposition
	}
	var instances []instance
	single := graph.New(1)
	dSingle := &Decomposition{Bags: [][]int{{0}}, Adj: [][]int{nil}}
	instances = append(instances, instance{"single-vertex", single, dSingle})
	for _, k := range []int{2, 5, 9} {
		g, d := bookGraph(k)
		instances = append(instances, instance{fmt.Sprintf("book-%d", k), g, d})
	}
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(20)
		kk := 1 + rng.Intn(3)
		g, _ := graphgen.PartialKTree(n, kk, 0.3+0.5*rng.Float64(), rng)
		d, _, err := Heuristic(g)
		if err != nil {
			t.Fatal(err)
		}
		instances = append(instances, instance{fmt.Sprintf("partial-%d-tree-seed%d", kk, seed), g, d})
	}
	// Wide-bag instance: K_{25,25} has treewidth 25, so its heuristic
	// decomposition carries bags of 24+ vertices. Sentences without set
	// variables (tw-bound, triangle-free) keep the DP's state count at 1
	// regardless of width, so the engine must survive arbitrary bag sizes
	// — this pins a crash where the adjacency-pair bitmap was fixed-size.
	wide := graph.New(50)
	for i := 0; i < 25; i++ {
		for j := 25; j < 50; j++ {
			wide.MustAddEdge(i, j)
		}
	}
	wideD, _, err := Heuristic(wide)
	if err != nil {
		t.Fatal(err)
	}
	instances = append(instances, instance{"complete-bipartite-25", wide, wideD})

	triples := 0
	for _, inst := range instances {
		if err := Validate(inst.g, inst.d); err != nil {
			t.Fatalf("%s: bad instance decomposition: %v", inst.name, err)
		}
		nice, err := MakeNice(inst.d, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range sentences {
			phi := MustCompileEMSO(f)
			wantWords, wantOK, wantErr := solveEMSOReference(inst.g, nice, phi)
			gotWords, gotOK, gotErr := SolveEMSO(inst.g, nice, phi)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%s / %s: reference err=%v, engine err=%v", inst.name, f, wantErr, gotErr)
			}
			if wantOK != gotOK {
				t.Fatalf("%s / %s: reference ok=%v, engine ok=%v", inst.name, f, wantOK, gotOK)
			}
			if len(wantWords) != len(gotWords) {
				t.Fatalf("%s / %s: witness lengths differ: %d vs %d", inst.name, f, len(wantWords), len(gotWords))
			}
			for v := range wantWords {
				if wantWords[v] != gotWords[v] {
					t.Fatalf("%s / %s: witness word of vertex %d differs: reference %#x, engine %#x",
						inst.name, f, v, wantWords[v], gotWords[v])
				}
			}
			triples++
		}
	}
	if triples < 50 {
		t.Fatalf("only %d differential triples ran (want >= 50)", triples)
	}
}

// TestSolveEMSOJoinHeavyEndToEnd pins the join path with a real
// certification round trip on a book graph.
func TestSolveEMSOJoinHeavyEndToEnd(t *testing.T) {
	g, d := bookGraph(12)
	prop, _ := PropertyByName("3-colorable")
	s := &MSOScheme{T: 2, Prop: prop, DecompProvider: func(*graph.Graph) (*Decomposition, error) {
		return d, nil
	}}
	a, err := s.Prove(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cert.RunSequential(g, s, a)
	if err != nil || !res.Accepted {
		t.Fatalf("book graph proof rejected at %v (err=%v)", res.Rejecters, err)
	}
}

// TestTracebackErrorTyped checks the typed error formats its diagnostic
// fields and is matchable with errors.As through wrapping.
func TestTracebackErrorTyped(t *testing.T) {
	base := &TracebackError{Node: 17, Kind: KindForget, Bag: []int{2, 5, 9}}
	wrapped := fmt.Errorf("prove: %w", base)
	var te *TracebackError
	if !errors.As(wrapped, &te) {
		t.Fatal("errors.As failed to recover *TracebackError through wrapping")
	}
	if te.Node != 17 || te.Kind != KindForget || len(te.Bag) != 3 {
		t.Fatalf("typed fields lost: %+v", te)
	}
	want := "treewidth: EMSO DP traceback stuck at forget node 17 (bag [2 5 9])"
	if te.Error() != want {
		t.Fatalf("Error() = %q, want %q", te.Error(), want)
	}
}

// TestIntroMemoBounded pins the transition-table memo's eviction: the
// configurations are graph-controlled, so the memo must stay bounded no
// matter how many distinct bag adjacency patterns a long-lived process
// meets. The memo is filled through itself, then solves needing fresh
// narrow and wide configurations must evict instead of growing.
func TestIntroMemoBounded(t *testing.T) {
	phi := MustCompileEMSO(logic.TrueSentence())
	ctx := context.Background()
	fill := func() (*introTables, error) { return &introTables{}, nil }
	for i := 0; i < maxIntroMemoEntries; i++ {
		_, _, _ = phi.tables.Do(ctx, introKey{narrow: uint64(i)}, fill)
	}
	if got := phi.tables.Len(); got != maxIntroMemoEntries {
		t.Fatalf("synthetic fill holds %d entries, want %d", got, maxIntroMemoEntries)
	}
	// A cycle needs narrow configurations, a 12-clique's bag a wide one.
	for _, g := range []*graph.Graph{graphgen.Cycle(8), graphgen.Clique(12)} {
		d, _, err := Heuristic(g)
		if err != nil {
			t.Fatal(err)
		}
		nice, err := MakeNice(d, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, err := SolveEMSO(g, nice, phi); err != nil || !ok {
			t.Fatalf("solve on full memo: ok=%v err=%v", ok, err)
		}
		if got := phi.tables.Len(); got > maxIntroMemoEntries {
			t.Fatalf("memo grew past its bound: %d entries (cap %d)", got, maxIntroMemoEntries)
		}
	}
}

// TestTablesForHitAllocFree pins the memo's hit path: a warm lookup runs
// once per introduce node, so it must not allocate.
func TestTablesForHitAllocFree(t *testing.T) {
	prop, _ := PropertyByName("3-colorable")
	g := graphgen.Clique(3)
	sv := &emsoSolver{g: g, phi: MustCompileEMSO(prop.Phi.Source)}
	bag := []int{0, 1, 2}
	warm := sv.tablesFor(bag, 2)
	if allocs := testing.AllocsPerRun(100, func() {
		if sv.tablesFor(bag, 2) != warm {
			t.Fatal("warm lookup returned different tables")
		}
	}); allocs != 0 {
		t.Fatalf("warm tablesFor allocates %.1f times per call, want 0", allocs)
	}
}

// TestSolveEMSOConcurrentShared runs four solvers of one freshly compiled
// sentence on one graph at once, so they race to build the same
// transition tables: every solver must produce the same witness words.
func TestSolveEMSOConcurrentShared(t *testing.T) {
	prop, _ := PropertyByName("3-colorable")
	phi := MustCompileEMSO(prop.Phi.Source)
	g, _ := graphgen.PartialKTree(60, 2, 0.6, rand.New(rand.NewSource(7)))
	d, _, err := Heuristic(g)
	if err != nil {
		t.Fatal(err)
	}
	nice, err := MakeNice(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	const solvers = 4
	words := make([][]uint8, solvers)
	errs := make([]error, solvers)
	var wg sync.WaitGroup
	for i := 0; i < solvers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var ok bool
			words[i], ok, errs[i] = SolveEMSO(g, nice, phi)
			if errs[i] == nil && !ok {
				errs[i] = fmt.Errorf("solver %d: partial 2-tree not 3-colourable", i)
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < solvers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !slices.Equal(words[i], words[0]) {
			t.Fatalf("solver %d witness differs from solver 0", i)
		}
	}
}

// TestHeuristicMatchesReference drives the bitset elimination engine
// against the retained map-based reference: identical elimination order,
// identical bags, identical width — which pins the incremental degree and
// fill-in maintenance exactly (any drift in a single count changes a
// greedy choice).
func TestHeuristicMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		var g *graph.Graph
		switch seed % 4 {
		case 0:
			g, _ = graphgen.PartialKTree(8+rng.Intn(40), 1+rng.Intn(3), 0.5, rng)
		case 1:
			g = graphgen.RandomConnected(8+rng.Intn(30), rng.Intn(40), rng)
		case 2:
			g = graphgen.Grid(2+rng.Intn(4), 2+rng.Intn(5))
		default:
			g = graphgen.Star(3 + rng.Intn(20))
		}
		for _, score := range []heuristicScore{scoreDegree, scoreFill} {
			wantD, wantOrder, wantWidth := runHeuristicReference(g, score)
			gotD, gotOrder, gotWidth, err := runHeuristic(context.Background(), g, score)
			if err != nil {
				t.Fatalf("seed %d score %d: %v", seed, score, err)
			}
			if wantWidth != gotWidth {
				t.Fatalf("seed %d score %d: width %d vs reference %d", seed, score, gotWidth, wantWidth)
			}
			if len(wantOrder) != len(gotOrder) {
				t.Fatalf("seed %d score %d: order lengths differ", seed, score)
			}
			for i := range wantOrder {
				if wantOrder[i] != gotOrder[i] {
					t.Fatalf("seed %d score %d: elimination order differs at step %d: %d vs reference %d",
						seed, score, i, gotOrder[i], wantOrder[i])
				}
			}
			for b := range wantD.Bags {
				if len(wantD.Bags[b]) != len(gotD.Bags[b]) {
					t.Fatalf("seed %d score %d: bag %d sizes differ", seed, score, b)
				}
				for i := range wantD.Bags[b] {
					if wantD.Bags[b][i] != gotD.Bags[b][i] {
						t.Fatalf("seed %d score %d: bag %d differs: %v vs reference %v",
							seed, score, b, gotD.Bags[b], wantD.Bags[b])
					}
				}
			}
		}
	}
}

// solveEMSOReference is the original map-based realization of the EMSO
// dynamic program: per-node state sets held in map[uint64]struct{} and
// recursive closures for both passes. The table-driven SolveEMSO (see
// emso_engine.go) replaced it on the hot path; this implementation is
// retained as the executable specification that the differential property
// test drives the optimized engine against — verdicts and extracted
// witness words must match byte for byte.
func solveEMSOReference(g *graph.Graph, nice *Nice, phi *EMSO) ([]uint8, bool, error) {
	m := len(phi.Sets)
	states := 1
	for i := 0; i <= nice.Width(); i++ {
		states *= 1 << uint(m)
		if states > MaxDPStates {
			return nil, false, fmt.Errorf("treewidth: width %d too large for the %d-set EMSO DP (limit %d states)",
				nice.Width(), m, MaxDPStates)
		}
	}
	valid := make([]map[uint64]struct{}, len(nice.Nodes))
	var up func(t int) map[uint64]struct{}
	up = func(t int) map[uint64]struct{} {
		if valid[t] != nil {
			return valid[t]
		}
		node := &nice.Nodes[t]
		out := map[uint64]struct{}{}
		switch node.Kind {
		case KindLeaf:
			out[0] = struct{}{}
		case KindIntroduce:
			child := up(node.Children[0])
			pos := sort.SearchInts(node.Bag, node.Vertex)
			for cs := range child {
				for w := uint64(0); w < 1<<uint(m); w++ {
					s := expandWord(cs, pos, m, w)
					if introduceOK(g, phi, node.Bag, pos, s) {
						out[s] = struct{}{}
					}
				}
			}
		case KindForget:
			child := up(node.Children[0])
			childBag := nice.Nodes[node.Children[0]].Bag
			pos := sort.SearchInts(childBag, node.Vertex)
			for cs := range child {
				out[forgetWord(cs, pos, m)] = struct{}{}
			}
		case KindJoin:
			left := up(node.Children[0])
			right := up(node.Children[1])
			for s := range left {
				if _, ok := right[s]; ok {
					out[s] = struct{}{}
				}
			}
		}
		valid[t] = out
		return out
	}
	if _, ok := up(nice.Root)[0]; !ok {
		return nil, false, nil
	}
	words := make([]int16, g.N())
	for v := range words {
		words[v] = -1
	}
	var down func(t int, s uint64) error
	down = func(t int, s uint64) error {
		node := &nice.Nodes[t]
		switch node.Kind {
		case KindLeaf:
			return nil
		case KindIntroduce:
			pos := sort.SearchInts(node.Bag, node.Vertex)
			if words[node.Vertex] == -1 {
				words[node.Vertex] = int16(wordAt(s, pos, m))
			}
			return down(node.Children[0], forgetWord(s, pos, m))
		case KindForget:
			childBag := nice.Nodes[node.Children[0]].Bag
			pos := sort.SearchInts(childBag, node.Vertex)
			child := valid[node.Children[0]]
			for w := uint64(0); w < 1<<uint(m); w++ {
				cs := expandWord(s, pos, m, w)
				if _, ok := child[cs]; ok {
					return down(node.Children[0], cs)
				}
			}
			return &TracebackError{Node: t, Kind: node.Kind, Bag: node.Bag}
		case KindJoin:
			if err := down(node.Children[0], s); err != nil {
				return err
			}
			return down(node.Children[1], s)
		}
		return &TracebackError{Node: t, Kind: node.Kind, Bag: node.Bag}
	}
	if err := down(nice.Root, 0); err != nil {
		return nil, false, err
	}
	out := make([]uint8, g.N())
	for v, w := range words {
		if w == -1 {
			return nil, false, fmt.Errorf("treewidth: EMSO DP left vertex %d without a membership word", v)
		}
		out[v] = uint8(w)
	}
	// The DP guarantees the checks below; assert them so a table bug
	// cannot leak a bogus witness.
	member := func(set, point int) bool { return out[point]>>uint(set)&1 == 1 }
	adj := func(a, b int) bool { return g.HasEdge(a, b) }
	for i := range nice.Nodes {
		bag := nice.Nodes[i].Bag
		if !allTuplesOK(phi, bag, adj, member, -1) {
			return nil, false, fmt.Errorf("treewidth: EMSO DP produced a witness violating the matrix in bag %v", bag)
		}
	}
	return out, true, nil
}

// introduceOK checks every matrix tuple over the bag that involves the
// introduced position, reading memberships from the packed DP state.
func introduceOK(g *graph.Graph, phi *EMSO, bag []int, pos int, s uint64) bool {
	m := len(phi.Sets)
	member := func(set, point int) bool {
		p := sort.SearchInts(bag, point)
		return wordAt(s, p, m)>>uint(set)&1 == 1
	}
	return allTuplesOK(phi, bag, func(a, b int) bool { return g.HasEdge(a, b) }, member, bag[pos])
}

// The map-based realization below is the executable specification of the
// elimination heuristics: neighbour sets as maps, scores recomputed from
// scratch every round. The bitset engine (heuristic.go) replaced it on the hot
// path; a differential test keeps the two order-, bag- and
// width-identical, which pins the incremental count maintenance exactly.

type refElimState struct {
	nbr   []map[int]struct{}
	alive []bool
	left  int
}

func newRefElimState(g *graph.Graph) *refElimState {
	n := g.N()
	st := &refElimState{
		nbr:   make([]map[int]struct{}, n),
		alive: make([]bool, n),
		left:  n,
	}
	for v := 0; v < n; v++ {
		st.alive[v] = true
		st.nbr[v] = make(map[int]struct{}, g.Degree(v))
		for _, w := range g.Neighbors(v) {
			st.nbr[v][w] = struct{}{}
		}
	}
	return st
}

func (st *refElimState) bagOf(v int) []int {
	bag := make([]int, 0, len(st.nbr[v])+1)
	bag = append(bag, v)
	for w := range st.nbr[v] {
		bag = append(bag, w)
	}
	sort.Ints(bag)
	return bag
}

func (st *refElimState) eliminate(v int) int {
	nbrs := make([]int, 0, len(st.nbr[v]))
	for w := range st.nbr[v] {
		nbrs = append(nbrs, w)
	}
	for i := 0; i < len(nbrs); i++ {
		for j := i + 1; j < len(nbrs); j++ {
			a, b := nbrs[i], nbrs[j]
			st.nbr[a][b] = struct{}{}
			st.nbr[b][a] = struct{}{}
		}
		delete(st.nbr[nbrs[i]], v)
	}
	st.alive[v] = false
	st.left--
	return len(nbrs)
}

func (st *refElimState) fillCost(v int) int {
	nbrs := make([]int, 0, len(st.nbr[v]))
	for w := range st.nbr[v] {
		nbrs = append(nbrs, w)
	}
	missing := 0
	for i := 0; i < len(nbrs); i++ {
		for j := i + 1; j < len(nbrs); j++ {
			if _, ok := st.nbr[nbrs[i]][nbrs[j]]; !ok {
				missing++
			}
		}
	}
	return missing
}

// runHeuristicReference is the reference elimination driver the
// differential test compares runHeuristic against.
func runHeuristicReference(g *graph.Graph, score heuristicScore) (*Decomposition, []int, int) {
	st := newRefElimState(g)
	n := g.N()
	order := make([]int, 0, n)
	bags := make([][]int, 0, n)
	width := 0
	for st.left > 0 {
		best, bestScore := -1, 0
		for v := 0; v < n; v++ {
			if !st.alive[v] {
				continue
			}
			s := len(st.nbr[v])
			if score == scoreFill {
				s = st.fillCost(v)
			}
			if best == -1 || s < bestScore {
				best, bestScore = v, s
			}
		}
		order = append(order, best)
		bags = append(bags, st.bagOf(best))
		if d := st.eliminate(best); d > width {
			width = d
		}
	}
	return linkEliminationBags(order, bags), order, width
}
