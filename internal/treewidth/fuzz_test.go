package treewidth

import (
	"reflect"
	"testing"

	"repro/internal/cert"
	"repro/internal/graph"
)

// FuzzDecodePayload hammers the tw-mso certificate decoder, which /verify
// and /simulate feed untrusted bytes. The target appends the correct guard
// itself, so every input gets past the 16-bit integrity check and into the
// prefix, row and state parsing. The seed corpus (testdata/fuzz) holds
// honest certificates, guard stripped, from a small partial k-tree.
func FuzzDecodePayload(f *testing.F) {
	f.Fuzz(func(t *testing.T, bodyBytes []byte, owner int64, setBitsIn uint8) {
		setBits := int(setBitsIn) % (MaxEMSOSetVars + 1)
		body := make([]byte, len(bodyBytes))
		for i, b := range bodyBytes {
			body[i] = b & 1
		}
		c := append(make(cert.Certificate, 0, len(body)+guardBits), body...)
		g := guardOf(graph.ID(owner), body)
		for i := guardBits - 1; i >= 0; i-- {
			c = append(c, byte(g>>uint(i)&1))
		}
		p, ok := DecodePayload(c, graph.ID(owner), setBits)
		if !ok {
			return
		}
		if len(p.Bag) == 0 || len(p.Bag) > maxBagEntries {
			t.Fatalf("accepted bag of %d entries", len(p.Bag))
		}
		for i := 1; i < len(p.Bag); i++ {
			if p.Bag[i] <= p.Bag[i-1] {
				t.Fatalf("accepted bag not strictly increasing: %v", p.Bag)
			}
		}
		if len(p.Row) != len(p.Bag) {
			t.Fatalf("row has %d entries for a bag of %d", len(p.Row), len(p.Bag))
		}
		back, ok := DecodePayload(EncodePayload(p, graph.ID(owner), setBits), graph.ID(owner), setBits)
		if !ok {
			t.Fatalf("re-encoded payload %+v does not decode", p)
		}
		if !reflect.DeepEqual(back, p) {
			t.Fatalf("round trip changed the payload: %+v -> %+v", p, back)
		}
	})
}
