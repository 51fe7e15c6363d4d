// Command perfbench is the repository's live benchmark. Each run boots a
// fresh cmd/certserver, drives it over loopback HTTP with one closed-loop
// workload, checks every answer, and prints the workload's metrics: the
// end-to-end metrics with -trace 0, or the per-layer metrics of a traced
// pass with -trace 1. The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}.
//
// Run it through run.sh, which builds the server and this driver first:
//
//	bash perfbench/run.sh --workload certify-large-cold --seconds 30 --trace 0
//
// See README.md for the workloads, the metrics and the layer mapping.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// config is one run's settings, all from the command line.
type config struct {
	workload  string
	seed      int64
	seconds   time.Duration
	traced    bool
	serverBin string
	outDir    string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (result, error){
	"certify-large-cold": runLarge,
	"certify-large-warm": runLarge,
	"service-mix":        runMix,
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload: certify-large-cold, certify-large-warm or service-mix")
		seed     = flag.Int64("seed", 1, "workload seed: every generated graph and request choice derives from it")
		seconds  = flag.Int("seconds", 30, "measured window per run, in seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: the traced per-layer pass")
		bin      = flag.String("server", "", "path to a built cmd/certserver binary")
		outDir   = flag.String("out", ".bench_build", "directory for the traced pass's span dump")
	)
	flag.Parse()
	runner, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *bin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -server, -seconds >= 1 and -trace 0 or 1")
		return 2
	}
	cfg := config{
		workload:  *workload,
		seed:      *seed,
		seconds:   time.Duration(*seconds) * time.Second,
		traced:    *trace == 1,
		serverBin: *bin,
		outDir:    *outDir,
	}
	res, err := runner(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s has no value\n", cfg.workload, name)
			return 1
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("workload %s seed %d: attempted %d, failed %d\n", cfg.workload, cfg.seed, res.Attempted, res.Failed)
	for _, name := range names {
		fmt.Printf("  %-32s %14.4f %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// tally counts attempted requests and failures; a failure is a transport
// error, a non-200 status or a wrong answer. The first few failures are
// described on standard error.
type tally struct {
	attempted, failed int
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if t.failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
	}
}

func (t *tally) result(metrics map[string]metric) result {
	return result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   metrics,
	}
}

// setupReps is how often an untraced run sets up from scratch (the warm
// workload, whose set-up certifies an n=10^5 graph, uses 3); setup_s is
// the median. Each repetition boots its own server, and only the last
// one is measured, so the measured server has seen exactly one set-up.
const setupReps = 5

// setUp boots a fresh server and runs prepare on it, reps times, keeping
// the last server. It returns the median set-up time in seconds.
func setUp(cfg config, reps int, prepare func(*server) error) (*server, float64, error) {
	var times []float64
	var srv *server
	for i := 0; i < reps; i++ {
		if srv != nil {
			srv.stop()
		}
		t0 := time.Now()
		var err error
		if srv, err = startServer(cfg.serverBin); err != nil {
			return nil, 0, err
		}
		if err := prepare(srv); err != nil {
			srv.stop()
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return srv, median(times), nil
}

// subSeed derives the i-th seed of one input stream from the workload
// seed (a splitmix64 finaliser), so every generated input is a pure
// function of the command-line seed.
func subSeed(seed int64, stream, i int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream)<<40 + uint64(i)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x >> 1)
}

// spanFile is where a traced pass writes its spans.
func spanFile(cfg config) string {
	return filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
