package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json; unknown keys fail the decode.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	seen := map[string]bool{}
	name := func(n string) {
		if !validName(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	var wl []string
	for _, w := range b.Workloads {
		name(w.Name)
		wl = append(wl, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	sort.Strings(wl)
	if got, want := wl, workloadNames(); !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", got, want)
	}
	units := map[string]string{}
	for _, m := range b.EndToEnd {
		name(m.Name)
		units[m.Name] = m.Unit
		if m.Better != "lower" && m.Better != "higher" || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: better %q bound %v", m.Name, m.Better, m.Bound)
		}
	}
	if units["setup_s"] != "s" {
		t.Error("end_to_end must carry setup_s in seconds")
	}
	checkList(t, "end_to_end", endToEnd, units)
	units = map[string]string{}
	for _, m := range b.PerLayer {
		name(m.Name)
		units[m.Name] = m.Unit
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("per-layer %s: better %q", m.Name, m.Better)
		}
	}
	checkList(t, "per_layer", perLayer, units)
	if b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Paths) != 1 || b.Paths[0] != "perfbench" {
		t.Errorf("run_seconds %d, paths %v", b.RunSeconds, b.Paths)
	}
}

// checkList compares a metric list in code with BENCHMARK.json's.
func checkList(t *testing.T, what string, code []metricSpec, units map[string]string) {
	t.Helper()
	if len(code) != len(units) {
		t.Errorf("%s: %d metrics in BENCHMARK.json, %d reported", what, len(units), len(code))
	}
	for _, m := range code {
		if u, ok := units[m.name]; !ok || u != m.unit {
			t.Errorf("%s: %s reported in %q, BENCHMARK.json says %q (listed %t)", what, m.name, m.unit, u, ok)
		}
	}
}

func TestRecordedDigestsCoverEveryInput(t *testing.T) {
	for _, key := range []string{"paper-tables/tables", "paper-tables/observed-sinks", "sweep/tables", "paper-tables/city-results", "paper-tables/campaign-stream"} {
		for i := int64(1); i <= refInputs; i++ {
			w, what, _ := strings.Cut(key, "/")
			if recordedDigest(w, what, i) == "" {
				t.Errorf("no digest recorded for %s on input %d", key, i)
			}
		}
	}
}
