package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"macaw/perfbench/layers"
)

// workload is one named benchmark input driven through public calls.
type workload interface {
	// setup builds what every op needs. It is timed and repeated: its
	// median is setup_s.
	setup(e *env) error
	// op runs one measured operation, checks its outputs into e.tally,
	// and returns what it measured beyond time and memory. An op that
	// pauses between its phases reports its own "wall_s".
	op(e *env) (opStats, error)
	// layerMetrics gathers the workload's per-layer counts and probe
	// timings for the traced run. It runs untimed, after the ops.
	layerMetrics(e *env) (map[string]float64, error)
}

// cleaner is implemented by workloads that leave files behind an op; the
// harness calls cleanup before the next op, outside its timing.
type cleaner interface{ cleanup(e *env) error }

// opStats are the values one op measured itself, keyed by metric name.
type opStats map[string]float64

// workloads maps each workload name to its constructor.
var workloads = map[string]func(*env) workload{
	"paper-tables": func(*env) workload { return &tablesWorkload{} },
	"sweep":        func(*env) workload { return &sweepWorkload{} },
}

// sample is one timed op.
type sample struct {
	input                 int64 // the reference input the op ran
	wall, cpu, alloc, gcs float64
	rss                   float64 // peak resident bytes during the op; 0 if unknown
	stats                 opStats
}

const (
	setupReps = 5 // set-ups before the first op; one more precedes each timed op
	minCycles = 2 // cycles over the inputs per untraced run, however long they take
)

// timeOp runs one op from a quiet start — the previous op's files removed
// and flushed to disk, the heap collected and freed memory returned to the
// kernel — and measures it. Without the flush, one op's disk writeback lands
// in the next op's time. When prof is non-nil, the op and only the op runs
// under the CPU profiler, which writes into prof.
func timeOp(e *env, w workload, prof *bytes.Buffer) (sample, error) {
	if c, ok := w.(cleaner); ok {
		if err := c.cleanup(e); err != nil {
			return sample{}, err
		}
	}
	syscall.Sync()
	debug.FreeOSMemory()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	peak := resetPeakRSS()
	if prof != nil {
		if err := pprof.StartCPUProfile(prof); err != nil {
			return sample{}, fmt.Errorf("cpu profile: %w", err)
		}
	}
	c0 := cpuSeconds()
	t0 := time.Now()
	st, err := w.op(e)
	wall := time.Since(t0).Seconds()
	c1 := cpuSeconds()
	if prof != nil {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&m1)
	s := sample{
		input: e.input, wall: wall, cpu: c1 - c0,
		alloc: float64(m1.TotalAlloc - m0.TotalAlloc),
		gcs:   float64(m1.NumGC - m0.NumGC),
		stats: st,
	}
	if peak {
		s.rss = peakRSSBytes()
	}
	if v, ok := st["wall_s"]; ok {
		s.wall = v
		delete(st, "wall_s")
	}
	return s, err
}

// setupPhase times setupReps set-ups and returns their durations.
func setupPhase(e *env, w workload) ([]float64, error) {
	var times []float64
	for i := 0; i < setupReps; i++ {
		if err := timeSetup(e, w, &times); err != nil {
			return nil, err
		}
	}
	return times, nil
}

// timeSetup runs one set-up from a collected heap and appends its duration.
func timeSetup(e *env, w workload, times *[]float64) error {
	runtime.GC()
	end := e.spans.begin("setup")
	t0 := time.Now()
	err := w.setup(e)
	*times = append(*times, time.Since(t0).Seconds())
	end()
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	return nil
}

// opsFor runs timed ops, one per reference input in the seed's cyclic
// order, until d has passed and at least min cycles over the inputs ran.
// With setups non-nil, a timed set-up precedes each op and its duration is
// appended. With profiles non-nil, each op runs under the CPU profiler and
// its profile is appended.
func opsFor(e *env, w workload, d time.Duration, min int, setups *[]float64, profiles *[][]byte) ([]sample, error) {
	var out []sample
	start := time.Now()
	for len(out) < min*len(e.inputs) || time.Since(start) < d {
		if setups != nil {
			if err := timeSetup(e, w, setups); err != nil {
				return nil, err
			}
		}
		e.input = e.inputs[len(out)%len(e.inputs)]
		var prof *bytes.Buffer
		if profiles != nil {
			prof = new(bytes.Buffer)
		}
		end := e.spans.begin("op")
		s, err := timeOp(e, w, prof)
		end()
		if err != nil {
			return nil, err
		}
		if prof != nil {
			*profiles = append(*profiles, prof.Bytes())
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s op %d input %d at %.1fs: wall %.4fs cpu %.4fs\n",
			e.name, len(out), e.input, time.Since(start).Seconds(), s.wall, s.cpu)
		out = append(out, s)
	}
	return out, nil
}

// measureRun is the untraced run: set-up, one warm-up op, then timed ops
// cycling over the inputs for the run's length. It reports the end-to-end
// metrics, each the mean over the inputs of its per-input median.
func measureRun(e *env, w workload) (map[string]metric, error) {
	setups, err := setupPhase(e, w)
	if err != nil {
		return nil, err
	}
	// The warm-up op fills caches and finishes lazy set-up; its outputs
	// are checked like every other op's, its time is not reported.
	if _, err := timeOp(e, w, nil); err != nil {
		return nil, err
	}
	ops, err := opsFor(e, w, e.seconds, minCycles, &setups, nil)
	if err != nil {
		return nil, err
	}
	wall := perInput(ops, func(s sample) float64 { return s.wall })
	for _, in := range e.inputs {
		var walls []float64
		for _, s := range ops {
			if s.input == in {
				walls = append(walls, s.wall)
			}
		}
		q1, q3 := quartiles(walls)
		fmt.Fprintf(os.Stderr, "perfbench: %s input %d: %d ops, wall median %.4fs (q1 %.4f, q3 %.4f)\n",
			e.name, in, len(walls), median(walls), q1, q3)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d ops, wall %.4fs, setup median %.4fs over %d\n",
		e.name, len(ops), wall, median(setups), len(setups))
	return map[string]metric{
		"wall_s":   {wall, "s"},
		"setup_s":  {median(setups), "s"},
		"cpu_s":    {perInput(ops, func(s sample) float64 { return s.cpu }), "s"},
		"alloc_mb": {perInput(ops, func(s sample) float64 { return s.alloc }) / 1e6, "MB"},
	}, nil
}

// traceRun is the traced run of the same workload, seed and length: half
// the time untraced (the reference for the tracing overhead and the
// utilization), half under the CPU profiler, then the counting pass and
// layer probes. It reports the per-layer metrics.
func traceRun(e *env, w workload, prov provenance) (map[string]metric, error) {
	if _, err := setupPhase(e, w); err != nil {
		return nil, err
	}
	if _, err := timeOp(e, w, nil); err != nil {
		return nil, err
	}
	untraced, err := opsFor(e, w, e.seconds/2, 1, nil, nil)
	if err != nil {
		return nil, err
	}
	var raw [][]byte
	traced, err := opsFor(e, w, e.seconds/2, 1, nil, &raw)
	if err != nil {
		return nil, err
	}
	prof := &layers.Profile{}
	for _, r := range raw {
		p, err := layers.Parse(r)
		if err != nil {
			return nil, err
		}
		if err := prof.Merge(p); err != nil {
			return nil, err
		}
	}
	tab, err := layers.Fold(prof, "nanoseconds")
	if err != nil {
		return nil, err
	}
	lm, err := w.layerMetrics(e)
	if err != nil {
		return nil, fmt.Errorf("layer metrics: %w", err)
	}

	wallU := perInput(untraced, func(s sample) float64 { return s.wall })
	cpuU := perInput(untraced, func(s sample) float64 { return s.cpu })
	v := map[string]float64{}
	for _, name := range perLayer {
		v[name.name] = 0
	}
	for _, l := range tab.Layers() {
		if _, ok := v[l+".self_share"]; ok {
			v[l+".self_share"] = tab.Share(l)
		}
	}
	v["mac.self_share"] = tab.PrefixShare("mac")
	v["fork.share"] = layers.CumShare(prof, "nanoseconds", isForkFrame)
	v["trace.overhead_s"] = perInput(traced, func(s sample) float64 { return s.wall }) - wallU
	v["runner.utilization"] = cpuU / (wallU * float64(runtime.GOMAXPROCS(0)))
	v["gc.cycles"] = perInput(untraced, func(s sample) float64 { return s.gcs })
	v["mem.peak_rss_mb"] = peakRSS(untraced) / 1e6
	for k, x := range statsPerInput(untraced) {
		v[k] = x
	}
	for k, x := range lm {
		v[k] = x
	}
	if ev := v["sim.events"]; ev > 0 {
		perOp := float64(tab.Total) / float64(len(traced))
		v["sim.ns_per_event"] = perOp * tab.Share("sim") / ev
		v["alloc.bytes_per_event"] = perInput(untraced, func(s sample) float64 { return s.alloc }) / ev
	}
	if tx := v["phy.tx"]; tx > 0 {
		perOp := float64(tab.Total) / float64(len(traced))
		v["phy.ns_per_tx"] = perOp * tab.Share("phy") / tx
	}

	out := map[string]metric{}
	for _, m := range perLayer {
		out[m.name] = metric{v[m.name], m.unit}
	}
	var text strings.Builder
	fmt.Fprintf(&text, "layer table: %s inputs %v, %d traced ops, %d samples\n", e.name, e.inputs, len(traced), len(prof.Samples))
	if err := tab.Write(&text); err != nil {
		return nil, err
	}
	fmt.Print(text.String())
	if err := writeTraceFiles(e, prov, tab, raw, out); err != nil {
		return nil, err
	}
	return out, nil
}

// isForkFrame matches the fork and state-capture entry points of every
// layer (core, phy, the MACs, transport, traffic, the oracle).
func isForkFrame(fn string) bool {
	i := strings.LastIndexByte(fn, '.')
	name := fn[i+1:]
	return name == "AdoptFrom" || name == "adoptFrom" || name == "AppendState" || name == "appendState"
}

// statsPerInput averages, per key, the ops' own measurements over the inputs
// as perInput does.
func statsPerInput(ops []sample) map[string]float64 {
	out := map[string]float64{}
	for _, s := range ops {
		for k := range s.stats {
			if _, ok := out[k]; !ok {
				out[k] = perInput(ops, func(s sample) float64 { return s.stats[k] })
			}
		}
	}
	return out
}

func column(ops []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ops))
	for i, s := range ops {
		out[i] = f(s)
	}
	return out
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSS is the median over ops of each op's peak resident set size, or
// the process-wide peak where the kernel cannot reset the peak mark.
func peakRSS(ops []sample) float64 {
	if rss := column(ops, func(s sample) float64 { return s.rss }); rss[0] > 0 {
		return median(rss)
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports kilobytes
}

// resetPeakRSS sets the kernel's peak-RSS mark of this process (VmHWM) to
// its current RSS, through /proc/self/clear_refs (Linux 4.0+).
func resetPeakRSS() bool {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return false
	}
	_, err = f.Write([]byte("5"))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err == nil
}

// peakRSSBytes reads VmHWM, the peak RSS since the last reset, from
// /proc/self/status (0 if unreadable).
func peakRSSBytes() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb * 1024
		}
	}
	return 0
}

// procWchar reads the bytes this process has passed to write(2) and its
// relatives, from /proc/self/io.
func procWchar() (float64, error) {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "wchar: "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, fmt.Errorf("/proc/self/io has no wchar line")
}

// sha is the hex SHA-256 of the concatenated parts.
func sha(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

//go:embed digests.json
var digestsJSON []byte

// recordedDigest returns the recorded digest of a workload's output on one
// reference input ("" when none is recorded).
func recordedDigest(workload, what string, input int64) string {
	var all map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		panic(fmt.Sprintf("perfbench: digests.json: %v", err)) // embedded at build time
	}
	return all[workload+"/"+what][strconv.FormatInt(input, 10)]
}

// tracer records spans around the benchmark's calls into each layer, in
// memory, from the benchmark's own goroutine. A nil tracer records nothing:
// untraced runs carry none.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
}

type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 at the root
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span as a child of the innermost open one and returns the
// function that closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNs: time.Since(t.t0).Nanoseconds()})
	t.stack = append(t.stack, id)
	return func() {
		t.spans[id].EndNs = time.Since(t.t0).Nanoseconds()
		t.stack = t.stack[:len(t.stack)-1]
	}
}

// selfTimes sums, per span name, each span's duration minus the part of it
// its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	self := map[string]float64{}
	for _, s := range t.spans {
		self[s.Name] += float64(s.EndNs - s.StartNs)
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= float64(s.EndNs - s.StartNs)
		}
	}
	for k, v := range self {
		self[k] = v / 1e6
	}
	return self
}

// writeTraceFiles writes the traced run's record — provenance, spans, span
// self times, the full layer table and the metrics — and each traced op's
// CPU profile under <build dir>/trace/. `go run ./cmd/layers` on the
// profiles reproduces the layer table.
func writeTraceFiles(e *env, prov provenance, tab layers.Table, profiles [][]byte, out map[string]metric) error {
	dir := filepath.Join(e.outDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	shares := map[string]float64{}
	for _, l := range tab.Layers() {
		shares[l] = tab.Share(l)
	}
	doc, err := json.MarshalIndent(map[string]any{
		"provenance":   prov,
		"layer_shares": shares,
		"metrics":      out,
		"span_self_ms": e.spans.selfTimes(),
		"spans":        e.spans.spans,
	}, "", " ")
	if err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", e.name, e.seed))
	for i, p := range profiles {
		if err := os.WriteFile(fmt.Sprintf("%s-op%d.pprof", base, i), p, 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: trace record written to %s.json\n", base)
	return os.WriteFile(base+".json", doc, 0o644)
}

// provenance identifies what was measured and where.
type provenance struct {
	GitRev     string  `json:"git_rev"`
	GitDirty   string  `json:"git_dirty"`
	TreeSHA256 string  `json:"tree_sha256"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Inputs     []int64 `json:"inputs"`
	RunSeconds float64 `json:"run_seconds"`
	Traced     bool    `json:"traced"`
}

func collectProvenance(e *env) provenance {
	p := provenance{
		GitRev: "none", GitDirty: "unknown", TreeSHA256: treeDigest("."),
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: cpuModel(), Workload: e.name, Seed: e.seed, Inputs: e.inputs,
		RunSeconds: e.seconds.Seconds(), Traced: e.traced,
	}
	// Only a checkout that is itself a git work tree reports a revision;
	// git is never asked to search parent directories.
	if _, err := os.Stat(".git"); err == nil {
		if rev, err := gitOutput("rev-parse", "HEAD"); err == nil {
			p.GitRev = strings.TrimSpace(rev)
		}
		if st, err := gitOutput("status", "--porcelain", "--untracked-files=no"); err == nil {
			p.GitDirty = strconv.FormatBool(strings.TrimSpace(st) != "")
		}
	}
	return p
}

// treeDigest hashes the Go sources and module files under root (path and
// content), skipping dot-directories and the build directory, so a run
// outside git still names the exact tree it measured.
func treeDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "digests.json") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(f), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitOutput runs one git command in the checkout and returns its output.
func gitOutput(args ...string) (string, error) {
	out, err := exec.Command("git", args...).Output()
	return string(out), err
}

// profiled runs f under the CPU profiler and returns its parsed profile.
func profiled(f func() error) (*layers.Profile, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	err := f()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	return layers.Parse(buf.Bytes())
}
