package main

import (
	"fmt"
	"time"

	"macaw/internal/core"
	"macaw/internal/experiments"
	"macaw/internal/mac/csma"
	"macaw/internal/mac/dcf"
	"macaw/internal/mac/macaw"
	"macaw/internal/mac/token"
	"macaw/internal/mac/tournament"
	"macaw/internal/sim"
)

// sweepSpec covers the MACAW/MILD delta kinds and the DCF/Tournament ones,
// two values each, so every backend's retuning path and FSM carries load.
const sweepSpec = "backoff.max=8,32;mild.inc=1.5,3;mild.dec=1,4;load.rate=40,64;" +
	"cw.min=7,31;cw.max=127,1023;retry.short=2,7;tournament.window=8,32"

// sweepProtocols is the number of backend columns RunSweepTables runs.
const sweepProtocols = 6

// forkReps is how many forks and captures the fork probe times per backend.
const forkReps = 20

// sweepWorkload is a warm-started RunSweepTables over all six backends.
type sweepWorkload struct {
	variants []experiments.SweepVariant
	runner   *experiments.Runner
}

// sweepConfig is warmup-dominated, the regime forking exists for.
func sweepConfig(e *env) experiments.RunConfig {
	return experiments.RunConfig{Total: 60 * sim.Second, Warmup: 50 * sim.Second, Seed: e.input}
}

// backends builds one factory per sweep column, in the sweep's order.
func backends() []core.MACFactory {
	return []core.MACFactory{
		core.CSMAFactory(csma.Options{ACK: true}),
		core.MACAFactory(),
		core.MACAWFactory(macaw.DefaultOptions()),
		core.TokenFactory(token.Options{Ring: core.RingOf(5)}),
		core.DCFFactory(dcf.Options{}),
		core.TournamentFactory(tournament.Options{}),
	}
}

// setup parses the grid, builds the sweep topology once per backend at
// every reference input, and opens the worker pool.
func (w *sweepWorkload) setup(e *env) error {
	var err error
	if w.variants, err = experiments.ParseSweepSpec(sweepSpec); err != nil {
		return err
	}
	end := e.spans.begin("topo.Layout.Build")
	defer end()
	for _, in := range e.inputs {
		for _, f := range backends() {
			if err := experiments.SweepLayout().Build(core.NewNetwork(in), f); err != nil {
				return err
			}
		}
	}
	w.runner = experiments.NewRunner(e.jobs)
	return nil
}

func (w *sweepWorkload) op(e *env) (opStats, error) {
	end := e.spans.begin("experiments.RunSweepTables")
	tabs, info, err := experiments.RunSweepTables(sweepConfig(e).WithRunner(w.runner), w.variants, experiments.SweepOptions{})
	end()
	if err != nil {
		return nil, err
	}
	e.checkDigest("tables", tablesDigest(tabs))
	e.tally.check(info.Protocols == sweepProtocols && info.Forks == len(w.variants)*info.Protocols && info.Warmups == info.Protocols,
		"sweep ran %d forks and %d warmups over %d protocols, want %d forks and one warmup per protocol",
		info.Forks, info.Warmups, info.Protocols, len(w.variants)*sweepProtocols)
	return nil, nil
}

// layerMetrics probes fork and capture: each backend's sweep network is
// warmed to the barrier through Start/RunTo, then forked into fresh builds
// (AdoptFrom) and captured (AppendState) forkReps times each.
func (w *sweepWorkload) layerMetrics(e *env) (map[string]float64, error) {
	cfg := sweepConfig(e)
	var adopts, captures []float64
	var stateBytes float64
	for _, f := range backends() {
		warm := core.NewNetwork(cfg.Seed)
		if err := experiments.SweepLayout().Build(warm, f); err != nil {
			return nil, err
		}
		end := e.spans.begin("core.Network.RunTo")
		warm.Start(cfg.Total, cfg.Warmup)
		warm.RunTo(warm.Sim.Now() + sim.Time(cfg.Warmup))
		warm.ForceCompactEvents()
		end()
		for i := 0; i < forkReps; i++ {
			fork := core.NewNetwork(cfg.Seed)
			if err := experiments.SweepLayout().Build(fork, f); err != nil {
				return nil, err
			}
			end := e.spans.begin("core.Network.AdoptFrom")
			t0 := time.Now()
			err := fork.AdoptFrom(warm)
			adopts = append(adopts, time.Since(t0).Seconds()*1e3)
			end()
			if err != nil {
				return nil, fmt.Errorf("fork probe: %w", err)
			}
			end = e.spans.begin("core.Network.AppendState")
			t0 = time.Now()
			state := warm.AppendState(nil)
			captures = append(captures, time.Since(t0).Seconds()*1e3)
			end()
			stateBytes += float64(len(state))
		}
	}
	return map[string]float64{
		"fork.adopt_ms":   median(adopts),
		"fork.capture_ms": median(captures),
		"fork.state_kb":   stateBytes / float64(len(captures)) / 1024,
	}, nil
}
