// Command certify is a small CLI around the public API: generate a graph
// family, pick a scheme, prove, verify (sequentially and on the sharded
// simulated network), optionally run an adversarial tamper sweep, and
// report certificate sizes.
//
// The graph kinds come from the shared generator spec (internal/wire), the
// scheme names and property lists come from the scheme registry, and the
// tamper kinds come from the shared tamper spec, so this command, the
// facade and cmd/certserver always agree on what exists.
//
// Usage examples:
//
//	certify -graph path -n 64 -scheme tree-mso -property perfect-matching
//	certify -graph random-td -n 200 -t 4 -scheme treedepth
//	certify -graph star -n 50 -scheme depth2-fo -formula "exists x. forall y. x = y | x ~ y"
//	certify -graph path -n 32 -scheme tree-mso -property max-degree-<=2 -tamper 3
//	certify -graph cycle -n 100 -scheme universal -property connected -distributed -workers 4 -tamper-kind all -trials 25
//	certify -graph partial-k-tree -n 200 -t 3 -scheme tw-mso -property tw-bound -decompose -tamper-kind corrupt-bag
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	compactcert "repro"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/treewidth"
	"repro/internal/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// loadGraphStream reads one wire-v2 binary graph from a file.
func loadGraphStream(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return wire.DecodeGraphStream(f, wire.StreamLimits{})
}

// emitGraphStream writes g to a file in the wire-v2 binary format.
func emitGraphStream(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := wire.EncodeGraphStream(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// schemeNames renders the flag help for -scheme from the registry listing
// plus the historical alias.
func schemeNames() string {
	names := make([]string, 0, 16)
	for _, info := range compactcert.Schemes() {
		names = append(names, info.Name)
	}
	names = append(names, "universal-diam2")
	return strings.Join(names, " | ")
}

// run executes the CLI over args, writing the report to stdout and
// diagnostics to stderr, and returns the process exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("certify", flag.ContinueOnError)
	var (
		graphKind = fs.String("graph", "path", strings.Join(wire.GeneratorKinds(), " | "))
		n         = fs.Int("n", 32, "number of vertices")
		t         = fs.Int("t", 3, "treedepth/treewidth bound (treedepth/kernel/tw-mso schemes, random-td and k-tree families)")
		schemeSel = fs.String("scheme", "tree-mso", schemeNames())
		property  = fs.String("property", "perfect-matching",
			"tree-mso property: "+strings.Join(compactcert.TreeMSOProperties(), " | ")+
				"; tw-mso property: "+strings.Join(compactcert.TreewidthMSOProperties(), " | "))
		formula = fs.String("formula", "",
			"FO/MSO sentence; supersedes -property on formula-capable schemes "+
				"(default for formula-only schemes: \"forall x. exists y. x ~ y\")")
		seed        = fs.Int64("seed", 1, "random seed")
		density     = fs.Float64("density", 0, "extra-edge density for random-td / edge-keep probability for partial-k-tree (0 = default)")
		tamper      = fs.Int("tamper", 0, "flip this many random certificate bits before verifying")
		distributed = fs.Bool("distributed", true, "run the sharded network simulator after the sequential referee")
		workers     = fs.Int("workers", 0, "simulator worker bound (0 = GOMAXPROCS)")
		tamperKind  = fs.String("tamper-kind", "", "adversarial sweep: "+strings.Join(wire.TamperKinds(), " | "))
		tamperK     = fs.Int("tamper-k", 0, "bits to flip per trial for -tamper-kind flip-bits (0 = 1)")
		trials      = fs.Int("trials", 10, "trials per tamper for -tamper-kind sweeps")
		decompose   = fs.Bool("decompose", false, "print the graph's tree decomposition summary (heuristics, exact when small)")
		trace       = fs.Bool("trace", false, "print the phase span tree (compile/prove/verify/rounds) after the run")
		emitStream  = fs.String("emit-stream", "", "also write the graph to FILE in the binary stream format (wire v2)")
		loadStream  = fs.String("load-stream", "", "load the graph from FILE (binary stream format) instead of generating; -graph/-n/-density are ignored")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	rng := rand.New(rand.NewSource(*seed))
	ctx, root := obs.Start(context.Background(), "certify")
	// Deferred so error exits still close the root span; the trace would
	// otherwise show a forever-running phase (and certlint flags it).
	defer func() {
		root.End()
		if *trace {
			fmt.Fprintln(stdout, "trace:")
			root.WriteTree(stdout)
		}
	}()

	var (
		g       *graph.Graph
		witness wire.Witness
		err     error
	)
	if *loadStream != "" {
		// Stream-loaded graphs carry no construction witness; witness-driven
		// schemes fall back to computing their own model.
		_, gsp := obs.Start(ctx, "generate")
		g, err = loadGraphStream(*loadStream)
		gsp.End()
		if err != nil {
			fmt.Fprintf(os.Stderr, "certify: %v\n", err)
			return 2
		}
		*graphKind = "stream:" + *loadStream
	} else {
		spec := wire.GeneratorSpec{Kind: *graphKind, N: *n, T: *t, Density: *density, Seed: *seed}
		_, gsp := obs.Start(ctx, "generate")
		g, witness, err = spec.Build()
		gsp.End()
		if err != nil {
			fmt.Fprintf(os.Stderr, "certify: %v\n", err)
			return 2
		}
	}
	if *emitStream != "" {
		if err := emitGraphStream(*emitStream, g); err != nil {
			fmt.Fprintf(os.Stderr, "certify: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "stream: wrote %s\n", *emitStream)
	}

	name := *schemeSel
	params := compactcert.SchemeParams{
		Property:       *property,
		Formula:        *formula,
		T:              *t,
		Provider:       witness.Model,
		DecompProvider: witness.Decomp,
	}
	if name == "universal-diam2" {
		// Historical alias for the generic upper-bound demo.
		name, params.Property = "universal", "diameter-<=2"
	}
	var entry *compactcert.SchemeInfo
	for _, info := range compactcert.Schemes() {
		if info.Name == name {
			i := info
			entry = &i
			break
		}
	}
	if entry == nil {
		// Usage error, like an unknown graph kind: exit 2.
		fmt.Fprintf(os.Stderr, "certify: unknown scheme %q\n", *schemeSel)
		return 2
	}
	// Formula-only schemes keep their historical default sentence; schemes
	// accepting both leave the formula empty so -property drives the build
	// unless the user asked for a formula explicitly (which supersedes it).
	needsFormula := entry.NeedsParam(compactcert.ParamFormula)
	needsProperty := entry.NeedsParam(compactcert.ParamProperty)
	if params.Formula == "" && needsFormula && !needsProperty {
		params.Formula = "forall x. exists y. x ~ y"
	}
	if params.Formula != "" {
		if err := wire.ValidateFormula(params.Formula); err != nil {
			fmt.Fprintf(os.Stderr, "certify: %v\n", err)
			return 2
		}
	}
	var sweep *engine.TamperSweep
	if *tamperKind != "" {
		tamperSpec := wire.TamperSpec{Kind: *tamperKind, K: *tamperK, Trials: *trials, Seed: *seed}
		tampers, err := tamperSpec.Tampers()
		if err != nil {
			fmt.Fprintf(os.Stderr, "certify: %v\n", err)
			return 2
		}
		sweep = &engine.TamperSweep{Tampers: tampers, Trials: tamperSpec.EffectiveTrials(), Seed: *seed}
	}
	sim := &netsim.Engine{Workers: *workers}
	pipe := &engine.Pipeline{Cache: engine.NewCache(registry.Default()), Sim: sim}
	res, a, s := pipe.Certify(ctx, engine.Job{Graph: g, Scheme: name, Params: params, Sweep: sweep})
	var pe *engine.PhaseError
	if errors.As(res.Err, &pe) && pe.Phase == "compile" {
		fmt.Fprintf(os.Stderr, "certify: %v\n", res.Err)
		return 1
	}
	root.SetAttr("graph", *graphKind)

	fmt.Fprintf(stdout, "graph: %s n=%d m=%d\n", *graphKind, g.N(), g.M())
	if *decompose {
		for _, method := range []struct {
			name string
			f    func(*graph.Graph) (*treewidth.Decomposition, []int, int, error)
		}{{"min-fill", treewidth.MinFill}, {"min-degree", treewidth.MinDegree}} {
			d, _, width, err := method.f(g)
			if err != nil {
				fmt.Fprintf(os.Stderr, "certify: decompose: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "decomposition (%s): width=%d bags=%d valid=%v\n",
				method.name, width, d.NumBags(), treewidth.IsValid(g, d))
		}
		if g.N() <= treewidth.ExactLimit {
			w, _, err := treewidth.Exact(g)
			if err != nil {
				fmt.Fprintf(os.Stderr, "certify: decompose: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "decomposition (exact): treewidth=%d\n", w)
		}
	}
	fmt.Fprintf(stdout, "scheme: %s\n", res.Scheme)
	if res.Err != nil {
		fmt.Fprintf(os.Stderr, "certify: %v\n", res.Err)
		return 1
	}
	fmt.Fprintf(stdout, "certificates: max %d bits, total %d bits\n", res.MaxBits, res.TotalBits)
	fmt.Fprintf(stdout, "sequential verification: accepted=%v\n", res.Accepted)

	if *distributed {
		dctx, dsp := obs.Start(ctx, "verify")
		dsp.SetAttr("mode", "distributed")
		rep, err := sim.Run(dctx, g, s, a)
		dsp.End()
		if err != nil {
			fmt.Fprintf(os.Stderr, "certify: distributed run: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "distributed verification: accepted=%v (1 round, %d nodes, %d workers)\n",
			rep.Accepted, g.N(), rep.Workers)
	}

	if *tamper > 0 {
		bad := compactcert.FlipRandomBits(a, *tamper, rng)
		tctx, tsp := obs.Start(ctx, "tampered-verify")
		rep2, err := sim.Run(tctx, g, s, bad)
		tsp.End()
		if err != nil {
			fmt.Fprintf(os.Stderr, "certify: tampered run: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "after flipping %d bits: accepted=%v, rejecting nodes=%v\n",
			*tamper, rep2.Accepted, rep2.Rejecters)
	}

	if res.Sweep != nil {
		fmt.Fprintf(stdout, "adversarial sweep (%d trials per tamper):\n", sweep.Trials)
		for _, st := range res.Sweep.Stats {
			fmt.Fprintf(stdout, "  %-12s mutated=%d detected=%d noops=%d rate=%.2f rejecters=%d\n",
				st.Tamper, st.Mutated, st.Detected, st.NoOps, st.DetectionRate(), st.Rejecters)
		}
		if !res.Sweep.AllDetected {
			fmt.Fprintln(stdout, "  WARNING: some corrupted assignments were accepted (see undetected trial indices above)")
		}
	}
	return 0
}
