// Command perfbench is the repository's benchmark. It runs one named
// workload against the simulator's public packages, checks every output it
// produces, and prints the workload's metrics as one JSON line:
//
//	perfbench --workload paper-tables --seed 3 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics (wall, set-up, CPU,
// allocation); with --trace 1 it makes a separate traced run of the same
// workload, seed and length under the CPU profiler and prints the
// per-layer metrics. README.md describes the workloads and every metric;
// run.sh builds and runs it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// refInputs is the number of reference inputs each workload has. Every run
// measures all of them, one op per input, cycling from input
// 1 + seed mod refInputs. So the same seed always gives the same inputs,
// every input has a recorded output digest, and every seed measures the
// same work: runs differ by the host and the code, not by the input.
const refInputs = 4

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
		seed    = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "how long the measured phase runs")
		traced  = flag.Int("trace", 0, "1 makes the traced run that reports per-layer metrics")
	)
	flag.Parse()
	// The whole benchmark runs on one processor. On a small shared VM two
	// busy threads swing op times by a third as the host moves its vCPUs
	// around, while one thread stays within a few percent. The worker
	// pools, shards and connections still number nproc, so every
	// concurrency mechanism runs; only parallel speedup is not measured.
	runtime.GOMAXPROCS(1)
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) || flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds > 0, --trace 0|1\n", workloadNames())
		return 2
	}
	e, err := newEnv(*name, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(e.dir)

	prov := collectProvenance(e)
	if err := printJSON(map[string]any{"provenance": prov}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	w := mk(e)
	var metrics map[string]metric
	if e.traced {
		metrics, err = traceRun(e, w, prov)
	} else {
		metrics, err = measureRun(e, w)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", e.name, err)
		return 1
	}
	for _, r := range e.tally.reasons {
		fmt.Fprintf(os.Stderr, "perfbench: %s: output check failed: %s\n", e.name, r)
	}
	res := result{Correct: e.tally.correct(), Attempted: e.tally.attempted, Failed: e.tally.failed, Metrics: metrics}
	if err := printJSON(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// printJSON writes v as one compact JSON line on standard output.
func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}

// env is one benchmark invocation's shared state.
type env struct {
	name    string
	seed    int64   // as given
	inputs  []int64 // the reference inputs in cycle order, from the seed
	input   int64   // the current op's reference input, 1..refInputs
	seconds time.Duration
	traced  bool
	jobs    int    // workers, shards and connections: nproc
	outDir  string // build/output directory inside the checkout
	dir     string // scratch directory of this invocation, removed at exit
	spans   *tracer
	tally   tally
}

func newEnv(name string, seed int64, seconds time.Duration, traced bool) (*env, error) {
	out := os.Getenv("CARGO_TARGET_DIR")
	if out == "" {
		out = ".bench_build"
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return nil, err
	}
	e := &env{
		name: name, seed: seed, seconds: seconds, traced: traced, jobs: runtime.NumCPU(),
		outDir: out, dir: dir,
	}
	start := ((seed % refInputs) + refInputs) % refInputs
	for i := int64(0); i < refInputs; i++ {
		e.inputs = append(e.inputs, 1+(start+i)%refInputs)
	}
	e.input = e.inputs[0]
	if traced {
		e.spans = newTracer()
	}
	return e, nil
}

// scratch returns a fresh path under the invocation's scratch directory.
func (e *env) scratch(name string) string { return filepath.Join(e.dir, name) }

// checkDigest compares an output digest with the one recorded for this
// workload and input.
func (e *env) checkDigest(what, got string) {
	want := recordedDigest(e.name, what, e.input)
	e.tally.check(got == want, "%s %s on input %d: digest %s, recorded %q", e.name, what, e.input, got, want)
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
