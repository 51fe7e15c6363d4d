package cert

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// Tamper is a named adversarial transformation of a certificate
// assignment. Tampering models the failures local certification exists to
// catch: corrupted memory, replayed state from another vertex, truncation,
// and outright forgery.
//
// Apply returns the tampered assignment together with a flag reporting
// whether the result actually differs from the input. The flag matters for
// soundness sweeps: a tamper that happened to be the identity (swapping two
// byte-identical certificates, flipping bits of an all-empty assignment,
// re-randomizing a certificate into itself) must be counted as a no-op
// trial, not as undetected corruption.
type Tamper struct {
	// Name identifies the tamper in sweep reports and wire payloads.
	Name string
	// Apply returns a tampered copy of a (the input is never modified)
	// and whether the copy differs from the input.
	Apply func(a Assignment, rng *rand.Rand) (Assignment, bool)
}

// FlipBits returns a tamper flipping k random bits across non-empty
// certificates. It reports no mutation when every certificate is empty or
// when the random flips cancelled each other out (an even number of flips
// landing on the same bit).
func FlipBits(k int) Tamper {
	return Tamper{
		Name: fmt.Sprintf("flip-bits-%d", k),
		Apply: func(a Assignment, rng *rand.Rand) (Assignment, bool) {
			out := a.Clone()
			var nonEmpty []int
			for v, c := range out {
				if len(c) > 0 {
					nonEmpty = append(nonEmpty, v)
				}
			}
			if len(nonEmpty) == 0 || k <= 0 {
				return out, false
			}
			// Track flip parity per position: an even number of flips on
			// the same bit restores it.
			parity := make(map[[2]int]bool, k)
			for i := 0; i < k; i++ {
				v := nonEmpty[rng.Intn(len(nonEmpty))]
				p := rng.Intn(len(out[v]))
				out[v][p] ^= 1
				key := [2]int{v, p}
				parity[key] = !parity[key]
			}
			mutated := false
			for _, odd := range parity {
				if odd {
					mutated = true
					break
				}
			}
			return out, mutated
		},
	}
}

// SwapCertificates returns a tamper exchanging the certificates of two
// random distinct vertices (a "replay" fault). Swapping two byte-identical
// certificates leaves the assignment unchanged and is reported as a no-op.
func SwapCertificates() Tamper {
	return Tamper{
		Name: "swap",
		Apply: func(a Assignment, rng *rand.Rand) (Assignment, bool) {
			out := a.Clone()
			if len(out) < 2 {
				return out, false
			}
			u := rng.Intn(len(out))
			v := rng.Intn(len(out) - 1)
			if v >= u {
				v++
			}
			out[u], out[v] = out[v], out[u]
			return out, !certificatesEqual(out[u], out[v])
		},
	}
}

// TruncateOne returns a tamper cutting a non-empty random suffix off one
// random non-empty certificate. It is a no-op only on all-empty
// assignments.
func TruncateOne() Tamper {
	return Tamper{
		Name: "truncate",
		Apply: func(a Assignment, rng *rand.Rand) (Assignment, bool) {
			out := a.Clone()
			var nonEmpty []int
			for v, c := range out {
				if len(c) > 0 {
					nonEmpty = append(nonEmpty, v)
				}
			}
			if len(nonEmpty) == 0 {
				return out, false
			}
			v := nonEmpty[rng.Intn(len(nonEmpty))]
			out[v] = out[v][:rng.Intn(len(out[v]))]
			return out, true
		},
	}
}

// RandomizeOne returns a tamper replacing one certificate with uniformly
// random bits of the same length — a forgery fault. The forged bits may
// coincide with the original; that case is reported as a no-op.
func RandomizeOne() Tamper {
	return Tamper{
		Name: "randomize",
		Apply: func(a Assignment, rng *rand.Rand) (Assignment, bool) {
			out := a.Clone()
			if len(out) == 0 {
				return out, false
			}
			v := rng.Intn(len(out))
			mutated := false
			for i := range out[v] {
				b := byte(rng.Intn(2))
				if b != out[v][i] {
					mutated = true
				}
				out[v][i] = b
			}
			return out, mutated
		},
	}
}

// StandardTampers is the adversary family soundness sweeps run by default:
// single- and multi-bit corruption, replay, truncation, and forgery.
func StandardTampers() []Tamper {
	return []Tamper{FlipBits(1), FlipBits(5), SwapCertificates(), TruncateOne(), RandomizeOne()}
}

// RandomAssignment produces an assignment of uniformly random certificates
// with sizes up to maxBits, used to probe soundness on no-instances.
func RandomAssignment(n, maxBits int, rng *rand.Rand) Assignment {
	a := make(Assignment, n)
	for v := range a {
		size := rng.Intn(maxBits + 1)
		c := make(Certificate, size)
		for i := range c {
			c[i] = byte(rng.Intn(2))
		}
		a[v] = c
	}
	return a
}

// SoundnessReport summarizes a soundness probe.
type SoundnessReport struct {
	Trials   int
	Breaches int   // assignments that were (wrongly) accepted
	Breach   []int // trial indices of breaches, for reproduction
}

// ProbeSoundness attacks a no-instance: it submits `trials` adversarial
// assignments (random ones plus, when seed assignments are supplied,
// tampered variants of them) and reports how many are wrongly accepted.
// Any breach is a soundness bug in the scheme.
func ProbeSoundness(g *graph.Graph, s Scheme, seeds []Assignment, maxBits, trials int, rng *rand.Rand) (SoundnessReport, error) {
	holds, err := s.Holds(g)
	if err != nil {
		return SoundnessReport{}, fmt.Errorf("cert: ground truth: %w", err)
	}
	if holds {
		return SoundnessReport{}, fmt.Errorf("cert: ProbeSoundness needs a no-instance")
	}
	tampers := []Tamper{FlipBits(1), FlipBits(3), SwapCertificates(), TruncateOne(), RandomizeOne()}
	rep := SoundnessReport{Trials: trials}
	for i := 0; i < trials; i++ {
		var a Assignment
		if len(seeds) > 0 && i%2 == 0 {
			seed := seeds[rng.Intn(len(seeds))]
			if len(seed) == g.N() {
				a, _ = tampers[rng.Intn(len(tampers))].Apply(seed, rng)
			}
		}
		if a == nil {
			a = RandomAssignment(g.N(), maxBits, rng)
		}
		res, err := RunSequential(g, s, a)
		if err != nil {
			return rep, err
		}
		if res.Accepted {
			rep.Breaches++
			rep.Breach = append(rep.Breach, i)
		}
	}
	return rep, nil
}

// ProbeTamperDetection attacks a yes-instance: starting from the honest
// assignment it applies each standard tamper `perTamper` times and counts
// how often the corruption goes undetected while actually changing the
// assignment (trials the tamper itself reports as no-ops are skipped).
// Note that a tamper may occasionally produce another valid certificate
// assignment (e.g. flipping a bit in an unread field); callers treat the
// returned rate as a diagnostic, while dedicated tests assert detection of
// specific, semantically meaningful corruptions.
func ProbeTamperDetection(g *graph.Graph, s Scheme, honest Assignment, perTamper int, rng *rand.Rand) (detected, changed int, err error) {
	for _, tm := range StandardTampers() {
		for i := 0; i < perTamper; i++ {
			a, mutated := tm.Apply(honest, rng)
			if !mutated {
				continue
			}
			changed++
			res, rerr := RunSequential(g, s, a)
			if rerr != nil {
				return detected, changed, rerr
			}
			if !res.Accepted {
				detected++
			}
		}
	}
	return detected, changed, nil
}

// certificatesEqual compares two certificates byte-wise (nil and empty are
// equal: both are the empty bit string).
func certificatesEqual(a, b Certificate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
