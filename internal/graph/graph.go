// Package graph implements the undirected-graph substrate that every
// certification scheme in this module runs on.
//
// Following the paper (§3), all graphs handled by schemes are connected,
// loopless and non-empty; vertices carry unique identifiers from a
// polynomial range. The package also provides the structural algorithms the
// schemes depend on: traversals, connectivity, articulation points,
// biconnected components, and simple path/cycle length computations.
package graph

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// ID is a vertex identifier. The paper assumes unique IDs in [1, n^k]; we
// keep them as int64 and account for their width explicitly when encoding.
type ID = int64

// Graph is an undirected, loopless graph over vertices indexed 0..N-1.
// Each vertex has an application-visible identifier; indices are an
// internal, contiguous handle.
//
// The zero value is an empty graph; use New or NewWithIDs to create one.
// Graphs must not be copied by value after first use (they cache an
// atomically published CSR snapshot).
type Graph struct {
	ids []ID
	adj [][]int
	// byID maps identifier to index; nil when identifiers are the default
	// 1..n (the common case for generated graphs), where the mapping is
	// arithmetic and the map would cost n entries for nothing.
	byID  map[ID]int
	m     int // number of edges
	maxID ID  // largest identifier, fixed at construction
	// csr caches the immutable CSR snapshot of the current revision;
	// AddEdge invalidates it. Atomic so concurrent readers of a quiescent
	// graph (server handlers, netsim shards) share one snapshot safely.
	csr atomic.Pointer[CSR]
}

// New creates a graph with n vertices and default identifiers 1..n.
func New(n int) *Graph {
	ids := make([]ID, n)
	for i := range ids {
		ids[i] = ID(i + 1)
	}
	return &Graph{
		ids:   ids,
		adj:   make([][]int, n),
		maxID: ID(n),
	}
}

// NewWithIDs creates a graph whose i-th vertex has identifier ids[i].
// It returns an error if identifiers are not unique or not positive.
func NewWithIDs(ids []ID) (*Graph, error) {
	own := make([]ID, len(ids))
	copy(own, ids)
	g := &Graph{
		ids: own,
		adj: make([][]int, len(ids)),
	}
	if defaultIDs(own) {
		g.maxID = ID(len(own))
		return g, nil
	}
	byID := make(map[ID]int, len(ids))
	for i, id := range ids {
		if id <= 0 {
			return nil, fmt.Errorf("graph: identifier %d at index %d is not positive", id, i)
		}
		if j, dup := byID[id]; dup {
			return nil, fmt.Errorf("graph: duplicate identifier %d at indices %d and %d", id, j, i)
		}
		byID[id] = i
		if id > g.maxID {
			g.maxID = id
		}
	}
	g.byID = byID
	return g, nil
}

// defaultIDs reports whether ids is exactly the default sequence 1..n,
// for which the identifier-to-index map can be elided.
func defaultIDs(ids []ID) bool {
	for i, id := range ids {
		if id != ID(i+1) {
			return false
		}
	}
	return true
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.ids) }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// IDOf returns the identifier of vertex index v.
func (g *Graph) IDOf(v int) ID { return g.ids[v] }

// IndexOf returns the index of the vertex with the given identifier and
// whether it exists.
func (g *Graph) IndexOf(id ID) (int, bool) {
	if g.byID == nil {
		if id >= 1 && id <= ID(len(g.ids)) {
			return int(id - 1), true
		}
		return 0, false
	}
	v, ok := g.byID[id]
	return v, ok
}

// MaxID returns the largest identifier in the graph (0 for an empty
// graph). It is a stored field — the value sits on the cert-encoding hot
// path for ID-width accounting, so it must not rescan the vertex list.
func (g *Graph) MaxID() ID { return g.maxID }

// CSR returns the immutable CSR snapshot of the graph's current
// revision, building and caching it on first use. Mutating the graph
// (AddEdge) invalidates the cache; snapshots already handed out stay
// valid for the revision they captured. Safe for concurrent use on a
// quiescent graph.
func (g *Graph) CSR() *CSR {
	if c := g.csr.Load(); c != nil {
		return c
	}
	c := buildCSR(g.adj, g.m)
	// A racing builder may publish first; both snapshots are identical,
	// so either may win.
	g.csr.CompareAndSwap(nil, c)
	return g.csr.Load()
}

// AddEdge inserts the undirected edge {u, v} given by vertex indices.
// Self-loops and duplicate edges are rejected with an error, keeping the
// graph simple as the paper requires.
func (g *Graph) AddEdge(u, v int) error {
	if u < 0 || u >= len(g.ids) || v < 0 || v >= len(g.ids) {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, len(g.ids))
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d rejected", u)
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
	}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	g.m++
	g.csr.Store(nil) // invalidate the snapshot of the previous revision
	return nil
}

// MustAddEdge is AddEdge for construction code where the edge is known to
// be valid (generators, tests); it panics on error.
func (g *Graph) MustAddEdge(u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// HasEdge reports whether {u, v} is an edge. When a CSR snapshot is
// cached the test is a binary search over the shorter sorted row;
// otherwise it scans the shorter adjacency list (construction-time
// callers, where no snapshot exists yet).
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= len(g.ids) || v < 0 || v >= len(g.ids) {
		return false
	}
	if c := g.csr.Load(); c != nil {
		return c.HasEdge(u, v)
	}
	// Scan the shorter adjacency list.
	a, b := u, v
	if len(g.adj[a]) > len(g.adj[b]) {
		a, b = b, a
	}
	for _, w := range g.adj[a] {
		if w == b {
			return true
		}
	}
	return false
}

// Neighbors returns the adjacency list of v. The returned slice aliases
// internal storage and must not be modified.
func (g *Graph) Neighbors(v int) []int { return g.adj[v] }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// MaxDegree returns the maximum vertex degree (0 for edgeless graphs).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := range g.adj {
		if d := len(g.adj[v]); d > max {
			max = d
		}
	}
	return max
}

// Edges returns all edges as index pairs with u < v, sorted. The CSR
// snapshot's sorted rows make this a single ordered sweep, no sort pass.
func (g *Graph) Edges() [][2]int {
	c := g.CSR()
	out := make([][2]int, 0, g.m)
	for u := 0; u < c.N(); u++ {
		for _, v := range c.Row(u) {
			if int(v) > u {
				out = append(out, [2]int{u, int(v)})
			}
		}
	}
	return out
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c, err := NewWithIDs(g.ids)
	if err != nil {
		panic(err) // unreachable: ids were already validated
	}
	for u := range g.adj {
		c.adj[u] = append([]int(nil), g.adj[u]...)
	}
	c.m = g.m
	return c
}

// String returns a compact human-readable description, useful in test
// failure messages.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph{n=%d, m=%d, edges=%v}", g.N(), g.M(), g.Edges())
}

// BFSFrom runs a breadth-first search from src and returns the distance
// (in edges) to every vertex, with -1 for unreachable vertices.
func (g *Graph) BFSFrom(src int) []int {
	return g.CSR().BFSFrom(src)
}

// Connected reports whether the graph is connected. The empty graph is not
// connected (the paper considers non-empty graphs only).
func (g *Graph) Connected() bool {
	if g.N() == 0 {
		return false
	}
	dist := g.BFSFrom(0)
	for _, d := range dist {
		if d == -1 {
			return false
		}
	}
	return true
}

// Components returns the connected components as lists of vertex indices,
// each sorted, ordered by smallest contained index.
func (g *Graph) Components() [][]int {
	return g.CSR().Components()
}

// InducedSubgraph returns the subgraph induced by the given vertex indices
// (which keep their identifiers), together with the mapping from new index
// to old index.
func (g *Graph) InducedSubgraph(vertices []int) (*Graph, []int) {
	keep := append([]int(nil), vertices...)
	sort.Ints(keep)
	oldToNew := make(map[int]int, len(keep))
	ids := make([]ID, len(keep))
	for newIdx, oldIdx := range keep {
		oldToNew[oldIdx] = newIdx
		ids[newIdx] = g.ids[oldIdx]
	}
	sub, err := NewWithIDs(ids)
	if err != nil {
		panic(err) // unreachable: subset of already-unique IDs
	}
	for _, u := range keep {
		for _, v := range g.adj[u] {
			if u < v {
				if nv, ok := oldToNew[v]; ok {
					sub.MustAddEdge(oldToNew[u], nv)
				}
			}
		}
	}
	return sub, keep
}

// RemoveVertex returns a copy of the graph with vertex v removed, together
// with the mapping from new index to old index.
func (g *Graph) RemoveVertex(v int) (*Graph, []int) {
	keep := make([]int, 0, g.N()-1)
	for u := 0; u < g.N(); u++ {
		if u != v {
			keep = append(keep, u)
		}
	}
	return g.InducedSubgraph(keep)
}

// Eccentricity returns the maximum distance from v to any vertex, or -1 if
// some vertex is unreachable.
func (g *Graph) Eccentricity(v int) int {
	dist := g.BFSFrom(v)
	ecc := 0
	for _, d := range dist {
		if d == -1 {
			return -1
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Diameter returns the maximum eccentricity, or -1 if the graph is
// disconnected or empty.
func (g *Graph) Diameter() int {
	if g.N() == 0 {
		return -1
	}
	diam := 0
	for v := 0; v < g.N(); v++ {
		e := g.Eccentricity(v)
		if e == -1 {
			return -1
		}
		if e > diam {
			diam = e
		}
	}
	return diam
}

// IsTree reports whether the graph is a tree (connected and m = n-1).
func (g *Graph) IsTree() bool {
	return g.Connected() && g.m == g.N()-1
}

// AdjacencyMatrix returns the n x n boolean adjacency matrix.
func (g *Graph) AdjacencyMatrix() [][]bool {
	n := g.N()
	mat := make([][]bool, n)
	for i := range mat {
		mat[i] = make([]bool, n)
	}
	for u := range g.adj {
		for _, v := range g.adj[u] {
			mat[u][v] = true
		}
	}
	return mat
}
