// Package wire is the canonical serialization layer of the certification
// engine: a compact binary format (built on internal/bitio, so sizes are
// accounted in bits like everything else in this module) and a JSON form
// for the HTTP API, for the three payloads that cross process boundaries —
// graphs, certificate assignments, and verification results.
//
// Binary graph format (bit-level, then packed MSB-first into bytes):
//
//	uvarint n                 number of vertices
//	uvarint m                 number of edges
//	bit     customIDs         1 if identifiers differ from the default 1..n
//	n x uvarint id            only when customIDs
//	m x (uint w, uint w)      edges as index pairs u < v, w = UintWidth(n-1)
//
// Binary assignment format:
//
//	uvarint count
//	count x (uvarint len, len raw bits)
//
// The JSON forms mirror the same data: graphs as {"n", "ids"?, "edges"},
// assignments as arrays of "0101..." bit strings.
package wire

import (
	"fmt"
	"strings"

	"repro/internal/bitio"
	"repro/internal/cert"
	"repro/internal/graph"
)

// MaxGraphVertices bounds the vertex count every decoder accepts. The
// limit exists so a few-byte hostile header cannot force a huge
// allocation before any real data is validated.
const MaxGraphVertices = 1 << 24

// Pack converts a bitio bit string (one byte per bit) into packed bytes,
// MSB-first, zero-padded to a byte boundary.
func Pack(bits []byte) []byte {
	out := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		if b != 0 {
			out[i/8] |= 1 << uint(7-i%8)
		}
	}
	return out
}

// Unpack expands packed bytes back into a bitio bit string of 8*len(data)
// bits. Decoders read exact field counts, so byte-boundary padding is
// simply never consumed.
func Unpack(data []byte) []byte {
	out := make([]byte, 8*len(data))
	for i := range out {
		if data[i/8]&(1<<uint(7-i%8)) != 0 {
			out[i] = 1
		}
	}
	return out
}

// hasDefaultIDs reports whether g uses the default identifiers 1..n.
func hasDefaultIDs(g *graph.Graph) bool {
	for v := 0; v < g.N(); v++ {
		if g.IDOf(v) != graph.ID(v+1) {
			return false
		}
	}
	return true
}

// EncodeGraph serializes g into the packed binary format.
func EncodeGraph(g *graph.Graph) []byte {
	var w bitio.Writer
	n := g.N()
	w.WriteUvarint(uint64(n))
	w.WriteUvarint(uint64(g.M()))
	custom := !hasDefaultIDs(g)
	w.WriteBool(custom)
	if custom {
		for v := 0; v < n; v++ {
			w.WriteUvarint(uint64(g.IDOf(v)))
		}
	}
	width := 1
	if n > 0 {
		width = bitio.UintWidth(uint64(n - 1))
	}
	for _, e := range g.Edges() {
		w.WriteUint(uint64(e[0]), width)
		w.WriteUint(uint64(e[1]), width)
	}
	return Pack(w.Bits())
}

// DecodeGraph parses the packed binary graph format.
func DecodeGraph(data []byte) (*graph.Graph, error) {
	r := bitio.NewReader(Unpack(data))
	n64, err := r.ReadUvarint()
	if err != nil {
		return nil, fmt.Errorf("wire: graph header: %w", err)
	}
	m64, err := r.ReadUvarint()
	if err != nil {
		return nil, fmt.Errorf("wire: graph header: %w", err)
	}
	if n64 > MaxGraphVertices || m64 > MaxGraphVertices*32 {
		return nil, fmt.Errorf("wire: graph too large (n=%d, m=%d)", n64, m64)
	}
	n, m := int(n64), int(m64)
	custom, err := r.ReadBool()
	if err != nil {
		return nil, fmt.Errorf("wire: graph header: %w", err)
	}
	var g *graph.Graph
	if custom {
		// Each identifier takes at least one bit; a count exceeding the
		// remaining payload is a hostile header, not a short read.
		if n > r.Remaining() {
			return nil, fmt.Errorf("wire: graph claims %d ids, %d bits remain", n, r.Remaining())
		}
		ids := make([]graph.ID, n)
		for v := 0; v < n; v++ {
			id, err := r.ReadUvarint()
			if err != nil {
				return nil, fmt.Errorf("wire: graph ids: %w", err)
			}
			ids[v] = graph.ID(id)
		}
		g, err = graph.NewWithIDs(ids)
		if err != nil {
			return nil, fmt.Errorf("wire: %w", err)
		}
	} else {
		g = graph.New(n)
	}
	width := 1
	if n > 0 {
		width = bitio.UintWidth(uint64(n - 1))
	}
	for i := 0; i < m; i++ {
		u, err := r.ReadUint(width)
		if err != nil {
			return nil, fmt.Errorf("wire: graph edge %d: %w", i, err)
		}
		v, err := r.ReadUint(width)
		if err != nil {
			return nil, fmt.Errorf("wire: graph edge %d: %w", i, err)
		}
		if err := g.AddEdge(int(u), int(v)); err != nil {
			return nil, fmt.Errorf("wire: %w", err)
		}
	}
	return g, nil
}

// GraphJSON is the JSON form of a graph. IDs is omitted for the default
// identifiers 1..n.
type GraphJSON struct {
	N     int      `json:"n"`
	IDs   []int64  `json:"ids,omitempty"`
	Edges [][2]int `json:"edges"`
}

// GraphToJSON converts a graph into its JSON form.
func GraphToJSON(g *graph.Graph) GraphJSON {
	out := GraphJSON{N: g.N(), Edges: g.Edges()}
	if out.Edges == nil {
		out.Edges = [][2]int{}
	}
	if !hasDefaultIDs(g) {
		out.IDs = make([]int64, g.N())
		for v := 0; v < g.N(); v++ {
			out.IDs[v] = g.IDOf(v)
		}
	}
	return out
}

// ToGraph materializes the JSON form.
func (j GraphJSON) ToGraph() (*graph.Graph, error) {
	if j.N < 0 || j.N > MaxGraphVertices {
		return nil, fmt.Errorf("wire: vertex count %d out of range [0, %d]", j.N, MaxGraphVertices)
	}
	var g *graph.Graph
	if len(j.IDs) > 0 {
		if len(j.IDs) != j.N {
			return nil, fmt.Errorf("wire: %d ids for %d vertices", len(j.IDs), j.N)
		}
		var err error
		g, err = graph.NewWithIDs(j.IDs)
		if err != nil {
			return nil, fmt.Errorf("wire: %w", err)
		}
	} else {
		g = graph.New(j.N)
	}
	for _, e := range j.Edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			return nil, fmt.Errorf("wire: %w", err)
		}
	}
	return g, nil
}

// EncodeAssignment serializes an assignment into the packed binary format.
func EncodeAssignment(a cert.Assignment) []byte {
	var w bitio.Writer
	w.WriteUvarint(uint64(len(a)))
	for _, c := range a {
		w.WriteUvarint(uint64(len(c)))
		for _, b := range c {
			w.WriteBit(b)
		}
	}
	return Pack(w.Bits())
}

// DecodeAssignment parses the packed binary assignment format.
func DecodeAssignment(data []byte) (cert.Assignment, error) {
	r := bitio.NewReader(Unpack(data))
	count, err := r.ReadUvarint()
	if err != nil {
		return nil, fmt.Errorf("wire: assignment header: %w", err)
	}
	// Each certificate takes at least its one-bit length header, so a
	// count beyond the remaining payload cannot be honest; checking it
	// here keeps the allocation proportional to the actual data.
	if count > uint64(r.Remaining()) {
		return nil, fmt.Errorf("wire: assignment claims %d certificates, %d bits remain", count, r.Remaining())
	}
	a := make(cert.Assignment, count)
	for i := range a {
		bits, err := r.ReadUvarint()
		if err != nil {
			return nil, fmt.Errorf("wire: certificate %d: %w", i, err)
		}
		if bits > uint64(r.Remaining()) {
			return nil, fmt.Errorf("wire: certificate %d claims %d bits, %d remain", i, bits, r.Remaining())
		}
		c := make(cert.Certificate, bits)
		for j := range c {
			b, err := r.ReadBit()
			if err != nil {
				return nil, fmt.Errorf("wire: certificate %d: %w", i, err)
			}
			c[j] = b
		}
		a[i] = c
	}
	return a, nil
}

// AssignmentToStrings renders each certificate as a "0101..." bit string —
// the JSON form of an assignment.
func AssignmentToStrings(a cert.Assignment) []string {
	out := make([]string, len(a))
	for i, c := range a {
		var sb strings.Builder
		sb.Grow(len(c))
		for _, b := range c {
			if b != 0 {
				sb.WriteByte('1')
			} else {
				sb.WriteByte('0')
			}
		}
		out[i] = sb.String()
	}
	return out
}

// AssignmentFromStrings parses the JSON bit-string form.
func AssignmentFromStrings(certs []string) (cert.Assignment, error) {
	a := make(cert.Assignment, len(certs))
	for i, s := range certs {
		c := make(cert.Certificate, len(s))
		for j := 0; j < len(s); j++ {
			switch s[j] {
			case '0':
				c[j] = 0
			case '1':
				c[j] = 1
			default:
				return nil, fmt.Errorf("wire: certificate %d: invalid bit character %q", i, s[j])
			}
		}
		a[i] = c
	}
	return a, nil
}

// ResultJSON is the JSON form of a verification result plus the
// certificate-size measures.
type ResultJSON struct {
	Accepted  bool  `json:"accepted"`
	Rejecters []int `json:"rejecters,omitempty"`
	MaxBits   int   `json:"max_bits"`
	TotalBits int   `json:"total_bits"`
}
