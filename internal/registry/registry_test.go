package registry

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/compile"

	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/graphgen"
	"repro/internal/logic"
	"repro/internal/treewidth"
	"repro/internal/wire"
)

// The default registry must expose every scheme kind of the paper.
func TestDefaultRegistryNames(t *testing.T) {
	want := []string{
		"ct-minor-free", "depth2-fo", "existential-fo", "kernel-mso",
		"pt-minor-free", "tree-fo", "tree-mso", "treedepth", "tw-mso", "universal",
	}
	got := Default().Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// Every entry's Info must be complete enough to drive the /schemes
// listing and the CLI help.
func TestDefaultRegistryInfoComplete(t *testing.T) {
	for _, info := range Default().List() {
		if info.Summary == "" || info.CertBound == "" || info.GraphClass == "" {
			t.Errorf("entry %q has incomplete metadata: %+v", info.Name, info)
		}
	}
}

// Every tree-mso property listed in the enum must actually build and
// certify a suitable instance — the enum and the factory switch must
// never drift apart.
func TestTreeMSOEnumMatchesFactory(t *testing.T) {
	props := TreeMSOProperties()
	if len(props) != 6 {
		t.Fatalf("TreeMSOProperties() = %v, want 6 entries", props)
	}
	for _, p := range props {
		s, err := Default().Build("tree-mso", Params{Property: p})
		if err != nil {
			t.Fatalf("Build(tree-mso, %q): %v", p, err)
		}
		if s.Name() == "" {
			t.Fatalf("tree-mso %q: empty scheme name", p)
		}
	}
	if _, err := Default().Build("tree-mso", Params{Property: "no-such-property"}); err == nil {
		t.Fatal("Build accepted an unknown tree-mso property")
	}
}

// Each built scheme must prove and verify a known yes-instance.
func TestBuildProveVerify(t *testing.T) {
	cases := []struct {
		name   string
		params Params
		graph  *graph.Graph
	}{
		{"tree-mso", Params{Property: "perfect-matching"}, graphgen.Path(8)},
		{"tree-fo", Params{Formula: "forall x. exists y. x ~ y"}, graphgen.Path(6)},
		{"treedepth", Params{T: 3}, graphgen.Path(7)},
		{"kernel-mso", Params{T: 3, Formula: "forall x. exists y. x ~ y"}, graphgen.Path(7)},
		{"pt-minor-free", Params{T: 4}, graphgen.Star(9)},
		{"universal", Params{Property: "connected"}, graphgen.Cycle(5)},
		{"existential-fo", Params{Formula: "exists x. exists y. x ~ y"}, graphgen.Path(4)},
		{"depth2-fo", Params{Formula: "forall x. exists y. x ~ y"}, graphgen.Star(5)},
		{"tw-mso", Params{Property: "tw-bound", T: 2}, graphgen.Cycle(8)},
		{"tw-mso", Params{Property: "3-colorable", T: 2}, graphgen.Cycle(9)},
	}
	for _, tc := range cases {
		s, err := Default().Build(tc.name, tc.params)
		if err != nil {
			t.Fatalf("Build(%s): %v", tc.name, err)
		}
		a, res, err := cert.ProveAndVerify(tc.graph, s)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !res.Accepted {
			t.Fatalf("%s: honest proof rejected at %v", tc.name, res.Rejecters)
		}
		if a.MaxBits() == 0 && tc.name != "universal" {
			t.Logf("%s: zero-bit certificates (allowed but unusual)", tc.name)
		}
	}
}

// Missing or invalid params must be rejected with an informative error.
func TestBuildValidation(t *testing.T) {
	cases := []struct {
		name    string
		params  Params
		wantSub string
	}{
		{"tree-mso", Params{}, "needs a formula or a property"},
		{"tree-mso", Params{Property: "no-such"}, "unknown property"},
		{"tree-mso", Params{Formula: "existsset S. forall x. x in S"}, "outside the tree automaton library"},
		{"tw-mso", Params{Property: "tw-bound"}, "must be positive"},
		{"tw-mso", Params{Property: "no-such", T: 2}, "unknown property"},
		{"tree-fo", Params{}, "missing formula"},
		{"treedepth", Params{}, "must be positive"},
		{"kernel-mso", Params{Formula: "forall x. x = x"}, "must be positive"},
		{"no-such-scheme", Params{}, "unknown scheme"},
		{"tree-fo", Params{Formula: "forall x. ("}, ""},
	}
	for _, tc := range cases {
		_, err := Default().Build(tc.name, tc.params)
		if err == nil {
			t.Fatalf("Build(%s, %+v) succeeded, want error", tc.name, tc.params)
		}
		if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
			t.Fatalf("Build(%s) error = %q, want substring %q", tc.name, err, tc.wantSub)
		}
	}
}

// Registration must reject duplicates and incomplete entries.
func TestRegisterRejects(t *testing.T) {
	r := New()
	ok := Entry{
		Info:  Info{Name: "x"},
		Build: func(Params) (cert.Scheme, error) { return nil, nil },
	}
	if err := r.Register(ok); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := r.Register(ok); err == nil {
		t.Fatal("Register accepted a duplicate name")
	}
	if err := r.Register(Entry{Info: Info{Name: "y"}}); err == nil {
		t.Fatal("Register accepted a nil factory")
	}
	if err := r.Register(Entry{Build: ok.Build}); err == nil {
		t.Fatal("Register accepted an unnamed entry")
	}
}

// Cacheable must flag closure-bearing params as graph-specific.
func TestParamsCacheable(t *testing.T) {
	if !(Params{Property: "p", T: 3}).Cacheable() {
		t.Fatal("value-only params reported uncacheable")
	}
	p := Params{PropertyFunc: func(*graph.Graph) (bool, error) { return true, nil }}
	if p.Cacheable() {
		t.Fatal("params with a predicate closure reported cacheable")
	}
	d := Params{DecompProvider: func(*graph.Graph) (*treewidth.Decomposition, error) { return nil, nil }}
	if d.Cacheable() {
		t.Fatal("params with a decomposition witness reported cacheable")
	}
}

// The tw-mso enum and the property library must agree — same names in
// the same order, each alias sentence canonically equal to the library's
// — and a generator witness must drive the prover.
func TestTreewidthMSOEntry(t *testing.T) {
	props := TreewidthMSOProperties()
	if want := treewidth.Properties(); !slices.Equal(props, want) {
		t.Fatalf("TreewidthMSOProperties() = %v, want %v", props, want)
	}
	for _, a := range compile.Aliases("tw-mso") {
		p, ok := treewidth.PropertyByName(a.Name)
		if !ok {
			t.Fatalf("alias %q is not a library property", a.Name)
		}
		if got, want := logic.CanonicalString(a.Formula), logic.CanonicalString(p.Phi.Source); got != want {
			t.Fatalf("alias %q: canonical sentence %s, library %s", a.Name, got, want)
		}
	}
	e, ok := Default().Lookup("tw-mso")
	if !ok {
		t.Fatal("tw-mso not registered")
	}
	if !e.UsesDecomposition || e.UsesWitness {
		t.Fatalf("tw-mso witness flags wrong: %+v", e.Info)
	}
	g, witness, err := wire.GeneratorSpec{Kind: "partial-k-tree", N: 18, T: 2, Seed: 5}.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := Default().Build("tw-mso", Params{Property: "tw-bound", T: 2, DecompProvider: witness.Decomp})
	if err != nil {
		t.Fatal(err)
	}
	_, res, err := cert.ProveAndVerify(g, s)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("witness-driven tw-mso proof rejected at %v", res.Rejecters)
	}
}

// TestEnumAndFormulaPathsCertifyIdentically is the acceptance check of the
// formula-first refactor: every previously enum-named property, requested
// by its defining sentence instead, must behave identically end to end —
// same Holds verdict over random instances, and identical certificates on
// yes-instances.
func TestEnumAndFormulaPathsCertifyIdentically(t *testing.T) {
	reg := Default()
	for _, kind := range []string{"tree-mso", "tw-mso", "universal"} {
		for _, alias := range compile.Aliases(kind) {
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				var g *graph.Graph
				var params Params
				switch kind {
				case "tree-mso":
					g = graphgen.RandomTree(2+rng.Intn(10), rng)
				case "tw-mso":
					g, _ = graphgen.PartialKTree(6+rng.Intn(10), 2, 0.5, rng)
					params.T = 2
				case "universal":
					// The formula path model-checks MSO sentences by 2^n
					// subset enumeration; stay small.
					g = graphgen.RandomTree(2+rng.Intn(6), rng)
				}
				ep := params
				ep.Property = alias.Name
				fp := params
				fp.Formula = alias.Source()
				enumScheme, err := reg.Build(kind, ep)
				if err != nil {
					t.Fatalf("%s/%s: enum build: %v", kind, alias.Name, err)
				}
				formulaScheme, err := reg.Build(kind, fp)
				if err != nil {
					t.Fatalf("%s/%s: formula build: %v", kind, alias.Name, err)
				}
				eh, eerr := enumScheme.Holds(g)
				fh, ferr := formulaScheme.Holds(g)
				if (eerr == nil) != (ferr == nil) || eh != fh {
					t.Fatalf("%s/%s seed %d: Holds diverges: enum=(%v,%v) formula=(%v,%v)",
						kind, alias.Name, seed, eh, eerr, fh, ferr)
				}
				if eerr != nil || !eh {
					continue
				}
				ea, err := enumScheme.Prove(g)
				if err != nil {
					t.Fatalf("%s/%s seed %d: enum prove: %v", kind, alias.Name, seed, err)
				}
				fa, err := formulaScheme.Prove(g)
				if err != nil {
					t.Fatalf("%s/%s seed %d: formula prove: %v", kind, alias.Name, seed, err)
				}
				for v := range ea {
					if string(ea[v]) != string(fa[v]) {
						t.Fatalf("%s/%s seed %d: certificates diverge at vertex %d", kind, alias.Name, seed, v)
					}
				}
				er, err := cert.RunSequential(g, enumScheme, ea)
				if err != nil {
					t.Fatal(err)
				}
				fr, err := cert.RunSequential(g, formulaScheme, fa)
				if err != nil {
					t.Fatal(err)
				}
				if !er.Accepted || !fr.Accepted {
					t.Fatalf("%s/%s seed %d: honest proofs rejected: enum=%v formula=%v",
						kind, alias.Name, seed, er.Rejecters, fr.Rejecters)
				}
			}
		}
	}
}

// TestFormulaSupersedesEnum checks the precedence rule: when both a
// property and a formula are supplied, the formula drives the build.
func TestFormulaSupersedesEnum(t *testing.T) {
	s, err := Default().Build("tree-mso", Params{Property: "perfect-matching", Formula: "forall x. forall y. x = y"})
	if err != nil {
		t.Fatal(err)
	}
	// HasAtMostOneVertex is FO and not a library automaton: the type
	// compiler names its schemes distinctively.
	if !strings.Contains(s.Name(), "tree-fo-types") {
		t.Fatalf("formula did not supersede the enum: built %q", s.Name())
	}
}
