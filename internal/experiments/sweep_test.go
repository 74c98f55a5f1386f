package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"macaw/internal/metrics"
	"macaw/internal/sim"
	"macaw/internal/snapshot"
	"macaw/internal/trace"
)

// sweepCfg is short enough to sweep twenty seeds twice (warm and cold)
// under the race detector, long enough that every delta kind has events to
// act on after the barrier.
func sweepCfg(seed int64) RunConfig {
	return RunConfig{Total: 4 * sim.Second, Warmup: 1 * sim.Second, Seed: seed, Audit: true}
}

// sweepTestVariants covers four of the six delta kinds — one backoff bound,
// one MILD factor, the offered load, and the retry limit.
var sweepTestVariants = []SweepVariant{
	{Kind: "backoff.max", Value: 16},
	{Kind: "mild.inc", Value: 2},
	{Kind: "load.rate", Value: 52},
	{Kind: "retry.limit", Value: 2},
}

// TestSweepWarmMatchesCold is the sweep engine's differential proof at the
// experiments layer: for every protocol column, every delta kind, and
// twenty seeds, the warm-started sweep — one audited warmup per protocol,
// forked into every variant — renders the byte-identical table to the cold
// sweep that simulates each variant from scratch. Variants dispatch through
// a worker pool, so under -race this also exercises concurrent forks
// reading one shared twin.
func TestSweepWarmMatchesCold(t *testing.T) {
	r := NewRunner(4)
	for seed := int64(1); seed <= 20; seed++ {
		cfg := sweepCfg(seed).WithRunner(r)
		warm, warmInfo, err := RunSweep(cfg, sweepTestVariants, SweepOptions{})
		if err != nil {
			t.Fatalf("seed %d warm sweep: %v", seed, err)
		}
		cold, coldInfo, err := RunSweep(cfg, sweepTestVariants, SweepOptions{Cold: true})
		if err != nil {
			t.Fatalf("seed %d cold sweep: %v", seed, err)
		}
		// The titles name their mode; everything measured must agree.
		cold.Title = warm.Title
		if got, want := fmt.Sprintf("%+v", warm), fmt.Sprintf("%+v", cold); got != want {
			t.Fatalf("seed %d: warm sweep differs from cold:\n--- warm ---\n%s\n--- cold ---\n%s",
				seed, warm.Render(), cold.Render())
		}
		cells := len(sweepTestVariants) * len(sweepCols())
		if warmInfo.Warmups != len(sweepCols()) || warmInfo.Forks != cells || warmInfo.ColdRuns != 0 {
			t.Fatalf("seed %d: warm sweep ran %+v", seed, warmInfo)
		}
		if coldInfo.ColdRuns != cells || coldInfo.Warmups != 0 || coldInfo.Forks != 0 {
			t.Fatalf("seed %d: cold sweep ran %+v", seed, coldInfo)
		}
	}
}

// TestSweepStoredWarmCaptureStaysCurrent pins the premise of verifying every
// fork against the capture stored at the barrier: forking only reads the
// warm twin, so once every variant of a protocol has forked from it and run
// its tail, rendering the twin afresh must still reproduce the stored bytes.
func TestSweepStoredWarmCaptureStaysCurrent(t *testing.T) {
	cfg := sweepCfg(2).ForTable("sweep")
	s := &sweeper{cfg: cfg, warms: make(map[string]*warmRun)}
	for _, col := range sweepCols() {
		s.warms[col.name] = &warmRun{}
		for _, v := range sweepTestVariants {
			cfgv := cfg
			cfgv.Delta = &snapshot.Delta{Kind: v.Kind, Value: v.Value}
			s.runCell(cfgv, v, col)
		}
		src := s.warm(col)
		if got := src.Net.AppendState(nil); !bytes.Equal(got, src.State) {
			t.Fatalf("%s: warm twin's capture changed while it was forked:\n--- stored ---\n%s\n--- now ---\n%s", col.name, src.State, got)
		}
	}
	if want := len(sweepCols()) * len(sweepTestVariants); s.info.Forks != want || s.info.Warmups != len(sweepCols()) {
		t.Fatalf("ran %+v, want %d forks from %d warmups", s.info, want, len(sweepCols()))
	}
}

// TestSweepWarmCacheRoundTrip drives the warm-state cache through its
// lifecycle: a first sweep writes one entry per protocol, a second sweep
// verifies against all of them, corrupt and torn entries are rewarmed and
// overwritten (with identical results), a configuration change makes every
// entry stale, and a config-matched entry with diverged state — recorded
// nondeterminism — fails closed.
func TestSweepWarmCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := sweepCfg(3)
	variants := sweepTestVariants[:2]
	cols := len(sweepCols())

	first, info, err := RunSweep(cfg, variants, SweepOptions{CacheDir: dir})
	if err != nil {
		t.Fatalf("first sweep: %v", err)
	}
	if info.CacheWrites != cols || info.CacheHits != 0 {
		t.Fatalf("first sweep cache: %+v", info)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "warm-*.snap"))
	if len(files) != cols {
		t.Fatalf("cache holds %d files, want %d", len(files), cols)
	}

	second, info, err := RunSweep(cfg, variants, SweepOptions{CacheDir: dir})
	if err != nil {
		t.Fatalf("second sweep: %v", err)
	}
	if info.CacheHits != cols || info.CacheWrites != 0 {
		t.Fatalf("second sweep cache: %+v", info)
	}
	if first.Render() != second.Render() {
		t.Fatal("cache-verified sweep differs from the first")
	}

	// A bit-flipped entry and a torn (truncated) entry are both repaired.
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0xFF
	if err := os.WriteFile(files[0], flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[1], data[:16], 0o644); err != nil {
		t.Fatal(err)
	}
	third, info, err := RunSweep(cfg, variants, SweepOptions{CacheDir: dir})
	if err != nil {
		t.Fatalf("third sweep: %v", err)
	}
	if info.CacheHits != cols-2 || info.CacheWrites != 2 {
		t.Fatalf("post-corruption sweep cache: %+v", info)
	}
	if first.Render() != third.Render() {
		t.Fatal("sweep over a corrupted cache differs from the first")
	}

	// Changing the run configuration stales every entry: same file names
	// (label, seed, and barrier agree), different config prefix.
	longer := cfg
	longer.Total = 5 * sim.Second
	if _, info, err = RunSweep(longer, variants, SweepOptions{CacheDir: dir}); err != nil {
		t.Fatalf("staled sweep: %v", err)
	}
	if info.CacheHits != 0 || info.CacheWrites != cols {
		t.Fatalf("staled sweep cache: %+v", info)
	}

	// A config-matched entry whose state bytes differ is nondeterminism
	// caught in the act, never silently overwritten.
	snap, err := snapshot.ReadFile(files[2])
	if err != nil {
		t.Fatal(err)
	}
	snap.State = append([]byte("phantom line\n"), snap.State...)
	if err := snapshot.WriteFile(files[2], snap); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			p := recover()
			if p == nil {
				t.Fatal("sweep over a diverged cache entry did not fail closed")
			}
			if !strings.Contains(fmt.Sprint(p), "warm cache") {
				t.Fatalf("divergence panic does not name the cache: %v", p)
			}
		}()
		RunSweep(longer, variants, SweepOptions{CacheDir: dir})
	}()
}

// TestSweepWarmCacheEviction pins the cache bound: with CacheMax set below
// the number of protocols, the oldest entries are pruned and only CacheMax
// files survive.
func TestSweepWarmCacheEviction(t *testing.T) {
	dir := t.TempDir()
	_, info, err := RunSweep(sweepCfg(5), sweepTestVariants[:1], SweepOptions{CacheDir: dir, CacheMax: 2})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if info.CacheWrites != len(sweepCols()) {
		t.Fatalf("sweep cache: %+v", info)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "warm-*.snap"))
	if len(files) != 2 {
		t.Fatalf("cache holds %d files after eviction, want 2", len(files))
	}
}

// TestParseSweepSpec pins the spec grammar and its error reporting.
func TestParseSweepSpec(t *testing.T) {
	got, err := ParseSweepSpec("backoff.max=16,32; load.rate = 40")
	if err != nil {
		t.Fatalf("ParseSweepSpec: %v", err)
	}
	want := []SweepVariant{{"backoff.max", 16}, {"backoff.max", 32}, {"load.rate", 40}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("ParseSweepSpec = %v, want %v", got, want)
	}
	for _, tc := range []struct{ spec, wantErr string }{
		{"nonsense=1", "unknown sweep parameter"},
		{"backoff.max=fast", "is not a number"},
		{"backoff.max", "not kind=v1,v2"},
		{"", "names no variants"},
		{";;", "names no variants"},
	} {
		if _, err := ParseSweepSpec(tc.spec); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("ParseSweepSpec(%q) = %v, want error containing %q", tc.spec, err, tc.wantErr)
		}
	}
}

// TestRunSweepRefusesIncompatibleConfigs: sinks observe only the tail of a
// warm-started run, so sweeps refuse them rather than record documents that
// silently differ from a cold run's; checkpoint plans and a caller-set
// delta are config errors too.
func TestRunSweepRefusesIncompatibleConfigs(t *testing.T) {
	base := sweepCfg(1)
	for name, cfg := range map[string]RunConfig{
		"metrics":    func() RunConfig { c := base; c.Metrics = metrics.NewSink(); return c }(),
		"trace":      func() RunConfig { c := base; c.Trace = trace.NewJSONLSink(); return c }(),
		"checkpoint": func() RunConfig { c := base; c.Checkpoint = &CheckpointPlan{}; return c }(),
		"delta":      func() RunConfig { c := base; c.Delta = &snapshot.Delta{Kind: "load.rate", Value: 40}; return c }(),
	} {
		if _, _, err := RunSweep(cfg, sweepTestVariants[:1], SweepOptions{}); err == nil {
			t.Errorf("RunSweep with %s configured did not error", name)
		}
	}
	if _, _, err := RunSweep(base, nil, SweepOptions{}); err == nil {
		t.Error("RunSweep with no variants did not error")
	}
}
