package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestQuantileMatchesInclusiveMethod(t *testing.T) {
	// Python: statistics.quantiles([1..10], n=4, method="inclusive")
	// == [3.25, 5.5, 7.75].
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if !near(q1, 3.25) || !near(median(xs), 5.5) || !near(q3, 7.75) {
		t.Fatalf("quartiles = %v/%v/%v, want 3.25/5.5/7.75", q1, median(xs), q3)
	}
	if xs[0] != 10 {
		t.Fatal("quantile sorted its input in place")
	}
	if got := median([]float64{4, 1, 3}); got != 3 {
		t.Fatalf("odd median = %v, want 3", got)
	}
	if got := median([]float64{2.5}); got != 2.5 {
		t.Fatalf("single-sample median = %v", got)
	}
	if quantile(xs, 0) != 1 || quantile(xs, 1) != 10 {
		t.Fatal("quantile(0)/quantile(1) must be min/max")
	}
}

func TestQuantileOfNothingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("median of no samples did not panic")
		}
	}()
	median(nil)
}

func TestTopPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {160, 0.9},
		{999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {1 << 20, 0.999},
	} {
		if got := topPercentile(c.n); got != c.want {
			t.Errorf("topPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestMetricNames(t *testing.T) {
	for _, ok := range []string{"wall_s", "sim.self_share", "mac.dcf.self_share", "ledger.put_p90_ms", "paper-tables", "9x"} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false", ok)
		}
	}
	long := "a"
	for len(long) < 65 {
		long += "a"
	}
	for _, bad := range []string{"", "_lead", ".lead", "wall s", "p/s", "naïve", "a:b", long} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
}

func TestTallyCountsFailures(t *testing.T) {
	var tl tally
	if tl.correct() {
		t.Fatal("a tally with nothing attempted must not read correct")
	}
	tl.check(true, "fine")
	tl.check(false, "digest %s", "abc")
	tl.check(true, "fine")
	if tl.attempted != 3 || tl.failed != 1 || tl.correct() {
		t.Fatalf("tally = %+v, want 3 attempted, 1 failed, not correct", tl)
	}
	if len(tl.reasons) != 1 || tl.reasons[0] != "digest abc" {
		t.Fatalf("reasons = %q", tl.reasons)
	}
}

func TestPerInputAveragesInputMedians(t *testing.T) {
	var ops []sample
	// Input 1: median 1 despite one outlying op; input 2: median 3.
	for _, s := range []struct {
		input int64
		wall  float64
	}{{1, 1}, {2, 3}, {1, 9}, {2, 2}, {1, 1}, {2, 4}} {
		ops = append(ops, sample{input: s.input, wall: s.wall})
	}
	if got := perInput(ops, func(s sample) float64 { return s.wall }); !near(got, 2) {
		t.Fatalf("perInput = %v, want (1+3)/2 = 2", got)
	}
}

func TestInputsCycleFromTheSeed(t *testing.T) {
	t.Setenv("CARGO_TARGET_DIR", t.TempDir())
	for _, c := range []struct {
		seed  int64
		first int64
	}{{0, 1}, {1, 2}, {refInputs, 1}, {-1, refInputs}, {1<<62 + 3, 4}} {
		e, err := newEnv("paper-tables", c.seed, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int64]bool{}
		for _, in := range e.inputs {
			seen[in] = true
		}
		if len(e.inputs) != refInputs || len(seen) != refInputs || e.inputs[0] != c.first {
			t.Errorf("seed %d: inputs %v, want every input once starting at %d", c.seed, e.inputs, c.first)
		}
	}
}
