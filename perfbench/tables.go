package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"macaw/internal/core"
	"macaw/internal/experiments"
	"macaw/internal/mac/macaw"
	"macaw/internal/metrics"
	"macaw/internal/topo"
	"macaw/internal/trace"
	"macaw/perfbench/layers"
)

// tablesTraceMax caps the trace events kept per run in the observer probe.
// Every hook still fires and every event past the cap is counted, so the
// observers' cost is paid in full while memory stays small.
const tablesTraceMax = 2000

// tablesWorkload is paper-tables: all eleven tables through Runner.Tables,
// observers off. Its traced run also probes the paths no workload carries:
// the same tables with the audit oracle on and metrics and trace sinks
// attached, the sharded city, and the campaign service.
type tablesWorkload struct {
	runner *experiments.Runner
}

// tablesConfig is the tables' run length at the current input.
func tablesConfig(e *env) experiments.RunConfig {
	cfg := experiments.Bench()
	cfg.Seed = e.input
	return cfg
}

// setup builds every paper topology into a network at every reference
// input, as the tables do, and opens the worker pool.
func (w *tablesWorkload) setup(e *env) error {
	names := make([]string, 0)
	all := topo.All()
	for n := range all {
		names = append(names, n)
	}
	sort.Strings(names)
	end := e.spans.begin("topo.Layout.Build")
	defer end()
	for _, in := range e.inputs {
		for _, n := range names {
			if err := all[n].Build(core.NewNetwork(in), core.MACAWFactory(macaw.DefaultOptions())); err != nil {
				return fmt.Errorf("%s: %w", n, err)
			}
		}
	}
	w.runner = experiments.NewRunner(e.jobs)
	return nil
}

// runTables runs the eleven tables and returns them with the digest of
// their rendering.
func (w *tablesWorkload) runTables(e *env, cfg experiments.RunConfig) ([]experiments.Table, string, error) {
	end := e.spans.begin("experiments.Runner.Tables")
	tabs, err := w.runner.Tables(experiments.All(), cfg)
	end()
	if err != nil {
		return nil, "", err
	}
	return tabs, tablesDigest(tabs), nil
}

// tablesDigest is the SHA-256 of the tables' renderings.
func tablesDigest(tabs []experiments.Table) string {
	h := sha256.New()
	for _, t := range tabs {
		h.Write([]byte(t.Render()))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// mediumStats sums the medium counters of every column of the tables:
// transmissions, and corrupted receptions as a share of all receptions.
func mediumStats(tabs []experiments.Table) opStats {
	var tx, rx, corrupted float64
	for _, t := range tabs {
		for _, c := range t.Columns {
			m := c.Results.Medium
			tx += float64(m.Transmissions)
			rx += float64(m.Delivered + m.Corrupted + m.NoiseDropped + m.Aborted)
			corrupted += float64(m.Corrupted)
		}
	}
	st := opStats{"phy.tx": tx}
	if rx > 0 {
		st["phy.corrupted_ratio"] = corrupted / rx
	}
	return st
}

func (w *tablesWorkload) op(e *env) (opStats, error) {
	tabs, d, err := w.runTables(e, tablesConfig(e))
	if err != nil {
		return nil, err
	}
	e.checkDigest("tables", d)
	return mediumStats(tabs), nil
}

// runObserved runs the tables with the oracle and both sinks and returns
// the digests of the tables and of the serialized sinks.
func (w *tablesWorkload) runObserved(e *env, cfg experiments.RunConfig) (tables, sinks string, err error) {
	cfg.Audit = true
	cfg.Metrics = metrics.NewSink()
	cfg.Trace = trace.NewJSONLSink()
	cfg.TraceMax = tablesTraceMax
	if _, tables, err = w.runTables(e, cfg); err != nil {
		return "", "", err
	}
	end := e.spans.begin("sinks.serialize")
	h := sha256.New()
	err = cfg.Metrics.WriteJSON(h)
	if err == nil {
		err = cfg.Trace.WriteJSONL(h)
	}
	fmt.Fprintf(h, "dropped %d\n", cfg.Trace.Dropped())
	end()
	if err != nil {
		return "", "", err
	}
	return tables, hex.EncodeToString(h.Sum(nil)), nil
}

// layerMetrics makes the counting pass — the tables with a metrics sink,
// whose engine and MAC counters are exact — and the observer probe: at
// every input, the tables without observers and then with them, both under
// the CPU profiler so their ratio compares like with like. The observed
// tables must equal the plain ones and the sinks their recorded digest; the
// observed runs' profile gives the observer layers' shares.
func (w *tablesWorkload) layerMetrics(e *env) (map[string]float64, error) {
	var c counts
	for _, in := range e.inputs {
		e.input = in
		cfg := tablesConfig(e)
		cfg.Metrics = metrics.NewSink()
		_, d, err := w.runTables(e, cfg)
		if err != nil {
			return nil, err
		}
		e.checkDigest("tables", d)
		c.addSink(cfg.Metrics)
	}
	out := c.metrics()

	var plainS, observedS float64
	observedProf := &layers.Profile{}
	for _, in := range e.inputs {
		e.input = in
		var plain, tables, sinks string
		_, err := profiled(func() (err error) {
			t0 := time.Now()
			_, plain, err = w.runTables(e, tablesConfig(e))
			plainS += time.Since(t0).Seconds()
			return err
		})
		if err != nil {
			return nil, err
		}
		p, err := profiled(func() (err error) {
			t0 := time.Now()
			tables, sinks, err = w.runObserved(e, tablesConfig(e))
			observedS += time.Since(t0).Seconds()
			return err
		})
		if err != nil {
			return nil, err
		}
		if err := observedProf.Merge(p); err != nil {
			return nil, err
		}
		e.checkDigest("tables", plain)
		e.tally.check(tables == plain, "observed tables differ from the plain tables on input %d", in)
		e.checkDigest("observed-sinks", sinks)
	}
	tab, err := layers.Fold(observedProf, "nanoseconds")
	if err != nil {
		return nil, err
	}
	for _, l := range []string{"oracle", "metrics", "trace", "json"} {
		out[l+".self_share"] = tab.Share(l)
	}
	out["observer.overhead_ratio"] = observedS / plainS

	for _, probe := range []func(*env) (map[string]float64, error){cityProbe, campaignProbe} {
		m, err := probe(e)
		if err != nil {
			return nil, err
		}
		for k, x := range m {
			out[k] = x
		}
	}
	return out, nil
}

// counts sums the exact engine and MAC counters of a counting pass, one op
// per reference input, and reports them per op.
type counts struct {
	ops                        int
	events, maxq, retries, rts float64
}

func (c *counts) metrics() map[string]float64 {
	out := map[string]float64{"sim.events": c.events / float64(max(c.ops, 1)), "sim.max_queued": c.maxq}
	if c.rts > 0 {
		out["mac.retry_ratio"] = c.retries / c.rts
	}
	return out
}

// addSink adds the engine and MAC counters of every run in a metrics sink
// as one op.
func (c *counts) addSink(s *metrics.Sink) {
	c.ops++
	for _, l := range s.Labels() {
		rm := s.Run(l)
		c.events += float64(rm.Engine.EventsFired)
		c.maxq = max(c.maxq, float64(rm.Engine.MaxEventQueue))
		for _, st := range rm.Stations {
			c.retries += float64(st.MACStats.Retries)
			c.rts += float64(st.MACStats.RTSSent)
		}
	}
}
