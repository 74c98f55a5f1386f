package main

import (
	"fmt"
	"runtime"
	"time"

	"macaw/internal/core"
	"macaw/internal/mac/macaw"
	"macaw/internal/sim"
	"macaw/internal/topo"
)

// citySpec is the 10000-station clustered city: ~1250 causally independent
// radio components of a few stations each.
var citySpec = topo.RandomSpec{N: 10000, Seed: 42, Clustered: true, AreaFt: 12000}

const cityTotal, cityWarmup = 1 * sim.Second, 250 * sim.Millisecond

// citySetups is how many times the shard probe builds the city.
const citySetups = 3

// cityProbe is the shard probe of the paper-tables traced run. It builds
// the city — topology, blueprint, partition — citySetups times, then runs
// it once through the sharded engine at shards = nproc on the run's first
// input and checks the results against their recorded digest.
//
// The city is not a workload of its own: it allocates about 3 GB per run,
// and the same run took anywhere from 2.4 to 4.1 s within two minutes on a
// shared 2-vCPU host, too unsteady to bound.
func cityProbe(e *env) (map[string]float64, error) {
	var buildMs, partMs []float64
	var bp core.Blueprint
	var components int
	for i := 0; i < citySetups; i++ {
		runtime.GC()
		end := e.spans.begin("topo.Random")
		t0 := time.Now()
		l := topo.Random(citySpec)
		end()
		end = e.spans.begin("topo.Layout.Blueprint")
		b, err := l.Blueprint(core.MACAWFactory(macaw.DefaultOptions()))
		buildMs = append(buildMs, time.Since(t0).Seconds()*1e3)
		end()
		if err != nil {
			return nil, err
		}
		end = e.spans.begin("core.Blueprint.Partition")
		t0 = time.Now()
		_, count, _, ok := b.Partition()
		partMs = append(partMs, time.Since(t0).Seconds()*1e3)
		end()
		if !ok || count <= 1 {
			return nil, fmt.Errorf("shard probe: city did not partition (certified %t, %d components)", ok, count)
		}
		bp, components = b, count
	}

	e.input = e.inputs[0]
	bp.Seed = e.input
	runtime.GC()
	c0 := cpuSeconds()
	t0 := time.Now()
	end := e.spans.begin("core.Blueprint.Run")
	res, info, err := bp.Run(cityTotal, cityWarmup, e.jobs)
	end()
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - c0
	if err != nil {
		return nil, err
	}
	out := fmt.Sprintf("%s%+v\ncomponents %d\n", res.String(), res.Medium, info.Components)
	e.checkDigest("city-results", sha([]byte(out)))
	return map[string]float64{
		"shard.components":   float64(components),
		"topo.build_ms":      median(buildMs),
		"shard.partition_ms": median(partMs),
		"shard.utilization":  cpu / (wall * float64(runtime.GOMAXPROCS(0))),
	}, nil
}
