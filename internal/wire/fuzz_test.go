package wire

import (
	"bytes"
	"slices"
	"testing"
)

// fuzzStreamLimits keeps the fuzzer's accepted graphs small, so the
// engine spends its budget on the header, id and chunk parsing rather
// than on allocating claimed sizes.
var fuzzStreamLimits = StreamLimits{MaxVertices: 64, MaxEdges: 256}

// FuzzDecodeGraphStream hammers the wire-v2 stream decoder, which every
// stream /certify body reaches. An input must either fail with an error
// or decode to a graph within the limits whose re-encoding decodes back
// to the same vertex count, edge count, identifiers and CSR rows. The
// seed corpus (testdata/fuzz) holds encoded small graphs, with and
// without custom identifiers, plus the hostile inputs of
// TestStreamHostileInputs.
func FuzzDecodeGraphStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := DecodeGraphStream(bytes.NewReader(data), fuzzStreamLimits)
		if err != nil {
			return
		}
		if g.N() > fuzzStreamLimits.MaxVertices || g.M() > fuzzStreamLimits.MaxEdges {
			t.Fatalf("accepted n=%d m=%d beyond limits %+v", g.N(), g.M(), fuzzStreamLimits)
		}
		var buf bytes.Buffer
		if err := EncodeGraphStream(&buf, g); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, err := DecodeGraphStream(&buf, fuzzStreamLimits)
		if err != nil {
			t.Fatalf("re-encoded graph does not decode: %v", err)
		}
		if back.N() != g.N() || back.M() != g.M() {
			t.Fatalf("round trip changed the shape: n %d->%d m %d->%d", g.N(), back.N(), g.M(), back.M())
		}
		gc, bc := g.CSR(), back.CSR()
		for v := 0; v < g.N(); v++ {
			if back.IDOf(v) != g.IDOf(v) {
				t.Fatalf("round trip changed id %d: %d -> %d", v, g.IDOf(v), back.IDOf(v))
			}
			if !slices.Equal(bc.Row(v), gc.Row(v)) {
				t.Fatalf("round trip changed row %d: %v -> %v", v, gc.Row(v), bc.Row(v))
			}
		}
	})
}
