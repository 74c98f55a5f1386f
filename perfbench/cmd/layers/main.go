// Command layers folds CPU profiles into the simulator's layer table.
//
//	go run ./cmd/layers cpu.pprof [more.pprof ...]
//
// run from the perfbench directory, prints one line per layer — its self
// share and CPU time — with the "other" bucket always listed, so a hot
// package the layer map does not name shows up. Any profile written by
// runtime/pprof works: `macawsim -cpuprofile`, `go test -cpuprofile`, or
// the benchmark's own traced runs. Several profiles are summed.
package main

import (
	"flag"
	"fmt"
	"os"

	"macaw/perfbench/layers"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: layers profile [profile ...]")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	var sum layers.Table
	for _, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "layers:", err)
			os.Exit(1)
		}
		p, err := layers.Parse(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "layers: %s: %v\n", path, err)
			os.Exit(1)
		}
		t, err := layers.Fold(p, "nanoseconds")
		if err != nil {
			fmt.Fprintf(os.Stderr, "layers: %s: %v\n", path, err)
			os.Exit(1)
		}
		sum.Add(t)
	}
	if err := sum.Write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
}
